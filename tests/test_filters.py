from __future__ import annotations

import random

from conftest import generated_doc, human_doc, labelled_source_filter, snapshot_of
from ragloop.filters import MarkerStubDetector, diversity_filter
from ragloop.metrics import self_bleu
from ragloop.retrieval import RankedList


def _ranked(ids, query_id="q"):
    return RankedList.from_ordered(query_id, 1,
                                   [(d, float(len(ids) - i))
                                    for i, d in enumerate(ids)])


def _labeled_corpus(labels):
    """labels like 'HLHHLHH': human docs carry no marker, generated do."""
    docs = []
    for i, label in enumerate(labels, start=1):
        if label == "H":
            docs.append(human_doc(f"d{i}", f"human passage number {i}"))
        else:
            docs.append(generated_doc(f"d{i}", f"synthweave passage {i}",
                                      "gen", "q"))
    return snapshot_of(docs), [f"d{i}" for i in range(1, len(labels) + 1)]


def test_source_filter_scan_rule():
    corpus, ids = _labeled_corpus("HLHHLHH")
    result = labelled_source_filter(_ranked(ids), MarkerStubDetector(), corpus)
    assert result.doc_ids() == ["d1", "d3", "d4", "d6", "d7"]
    assert not result.shortfall and not result.fallback_unfiltered


def test_source_filter_shortfall():
    corpus, ids = _labeled_corpus("LLHLLHLHLL")
    result = labelled_source_filter(_ranked(ids), MarkerStubDetector(), corpus)
    assert result.doc_ids() == ["d3", "d6", "d8"]
    assert result.shortfall


def test_source_filter_all_human_identity():
    corpus, ids = _labeled_corpus("HHHHHHH")
    result = labelled_source_filter(_ranked(ids), MarkerStubDetector(), corpus)
    assert result.doc_ids() == ids[:5]


def test_source_filter_keeps_zero_detected_docs():
    corpus, ids = _labeled_corpus("LHLHLHLHLH")
    detector = MarkerStubDetector()
    result = labelled_source_filter(_ranked(ids), detector, corpus)
    assert not result.fallback_unfiltered
    kept_texts = [corpus.get_text(d) for d in result.doc_ids()]
    assert not any(detector.classify(kept_texts))


class _BrokenDetector:
    def classify(self, texts):
        from ragloop.errors import RemoteServiceError
        raise RemoteServiceError("detector offline")


def test_source_filter_fallback_on_detector_failure():
    corpus, ids = _labeled_corpus("LLLLLLL")
    result = labelled_source_filter(_ranked(ids), _BrokenDetector(), corpus)
    assert result.fallback_unfiltered
    assert result.doc_ids() == ids[:5]


def _diversity_corpus():
    docs = [human_doc(f"d{i}", "alpha beta gamma delta epsilon")
            for i in range(1, 6)]
    distinct = ["omega psi chi phi rho", "one two three four five",
                "red blue green yellow pink", "cat dog bird fish mouse",
                "north south east west center"]
    docs += [human_doc(f"d{i}", text) for i, text in enumerate(distinct, 6)]
    return snapshot_of(docs), [f"d{i}" for i in range(1, 11)]


def test_diversity_filter_threshold_already_met():
    corpus, _ = _diversity_corpus()
    ids = ["d6", "d7", "d8", "d9", "d10"]  # mutually disjoint texts
    result = diversity_filter(_ranked(ids), corpus)
    assert result.doc_ids() == ids
    assert result.removals == 0 and not result.exhausted


def _oracle_greedy(ids, corpus, threshold=0.4, window=5):
    # independent simulation of the greedy loop over leave-one-out sets
    working = list(ids[:window])
    next_idx = window
    removals = 0
    while self_bleu([corpus.get_text(d) for d in working]) > threshold:
        if next_idx >= len(ids):
            return working, removals, True
        scored = []
        for pos in range(len(working)):
            subset = working[:pos] + working[pos + 1:]
            scored.append((self_bleu([corpus.get_text(d) for d in subset]),
                           pos))
        best = min(s for s, _ in scored)
        drop_pos = max(pos for s, pos in scored if s == best)
        working.pop(drop_pos)
        working.append(ids[next_idx])
        next_idx += 1
        removals += 1
    return working, removals, False


def test_diversity_filter_identical_then_disjoint_derived():
    corpus, ids = _diversity_corpus()
    result = diversity_filter(_ranked(ids), corpus)
    # derived with the oracle: drop worst-ranked duplicates until the set
    # of two duplicates plus three disjoint docs reaches the threshold
    want_ids, want_removals, want_exhausted = _oracle_greedy(ids, corpus)
    assert result.doc_ids() == want_ids == ["d1", "d2", "d6", "d7", "d8"]
    assert result.removals == want_removals == 3
    assert result.exhausted == want_exhausted is False
    final = self_bleu([corpus.get_text(d) for d in result.doc_ids()])
    assert final <= 0.4


def test_diversity_filter_exhaustion():
    docs = [human_doc(f"d{i}", "alpha beta gamma delta") for i in range(1, 7)]
    corpus = snapshot_of(docs)
    result = diversity_filter(_ranked([f"d{i}" for i in range(1, 7)]), corpus)
    assert result.exhausted
    assert len(result.doc_ids()) == 5
    assert result.removals <= 1


def test_diversity_filter_short_pool_flagged():
    corpus, _ = _diversity_corpus()
    result = diversity_filter(_ranked(["d1", "d2", "d3"]), corpus)
    assert result.shortfall
    assert result.doc_ids() == ["d1", "d2", "d3"]


def test_diversity_filter_contract_on_random_pools():
    rng = random.Random(4242)
    vocab = [f"tok{i}" for i in range(30)]
    for trial in range(60):
        docs = []
        n = rng.randint(5, 12)
        base = [rng.choice(vocab) for _ in range(6)]
        for i in range(n):
            if rng.random() < 0.5:
                words = list(base)
            else:
                words = [rng.choice(vocab) for _ in range(6)]
            docs.append(human_doc(f"t{trial}d{i}", " ".join(words)))
        corpus = snapshot_of(docs)
        ids = [d.doc_id for d in docs]
        result = diversity_filter(_ranked(ids), corpus)
        assert result.removals <= len(ids) - 5
        final_ids = result.doc_ids()
        score = self_bleu([corpus.get_text(d) for d in final_ids])
        assert score <= 0.4 or result.exhausted
        # order preservation among kept documents
        positions = [ids.index(d) for d in final_ids]
        assert positions == sorted(positions)


def test_filters_preserve_relative_order():
    corpus, ids = _labeled_corpus("HLHHLHHLHH")
    result = labelled_source_filter(_ranked(ids), MarkerStubDetector(), corpus)
    positions = [ids.index(d) for d in result.doc_ids()]
    assert positions == sorted(positions)
