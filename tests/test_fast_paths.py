"""Differential tests: the cached-token and once-per-call n-gram paths
against the implementations they replaced.

The oracles below are the text-based versions of Self-BLEU, the diversity
filter and the document-grading metrics, copied unchanged from before the
corpus cached document tokens. Every comparison requires exact equality:
the arithmetic is the same, so the floats must be bit-equal. The synthetic
generator's former side methods for false answers and judge replies are
kept too, as oracles for the requests `generate` now answers.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Mapping, Sequence

import pytest

from ragloop import filters, metrics
from ragloop.corpus import CorpusSnapshot, HUMAN
from ragloop.filters import DIVERSITY_THRESHOLD, FilterResult
from ragloop.generation import (ANSWER_CHECK, CONTEXT_SIZE, FALSE_ANSWER_COUNT,
                                MIS_ANSWER, GenerationRequest,
                                SyntheticGenerator, build_prompt, derive_seed)
from ragloop.metrics import normalize_answer
from ragloop.config import parse_config_mapping
from ragloop.retrieval import RankEntry, RankedList, tokenize
from ragloop.runner import ExperimentRunner
from ragloop.synthdata import write_demo_dataset

from conftest import human_doc, snapshot_of


# ---- oracles: the replaced implementations, verbatim -----------------------

def _contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return False
    n = len(needle)
    first = needle[0]
    for i in range(len(haystack) - n + 1):
        if haystack[i] == first and haystack[i:i + n] == needle:
            return True
    return False


def em(gold_answers: Sequence[str], text: str) -> int:
    """1 iff any normalized gold answer occurs contiguously in the text."""
    if not gold_answers:
        raise ValueError("em requires at least one gold answer")
    text_tokens = normalize_answer(text)
    for gold in gold_answers:
        if _contains_subsequence(text_tokens, normalize_answer(gold)):
            return 1
    return 0


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _bleu(candidate: list[str], references: list[list[str]], max_n: int) -> float:
    """Sentence BLEU: clipped n-gram precisions, geometric mean, closest-
    reference brevity penalty, no smoothing."""
    c = len(candidate)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        counts = _ngram_counts(candidate, n)
        total = sum(counts.values())
        if total == 0:
            return 0.0
        max_ref: dict[tuple, int] = {}
        for ref in references:
            ref_counts = _ngram_counts(ref, n)
            for ngram, cnt in counts.items():
                rc = ref_counts.get(ngram, 0)
                if rc > max_ref.get(ngram, 0):
                    max_ref[ngram] = rc
        clipped = sum(min(cnt, max_ref.get(ngram, 0)) for ngram, cnt in counts.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total) / max_n
    r = min((len(ref) for ref in references),
            key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def self_bleu(docs: Sequence[str], max_n: int = 3) -> float:
    """Mean BLEU of each document against the rest of the set.

    High values mean the set is homogeneous. Uses uniform 1..max_n-gram
    weights and no smoothing, so disjoint sets score exactly 0 and
    identical sets exactly 1.
    """
    if len(docs) < 2:
        raise ValueError("self_bleu needs at least 2 documents")
    token_lists = [tokenize(d) if isinstance(d, str) else list(d) for d in docs]
    scores = []
    for i, candidate in enumerate(token_lists):
        references = token_lists[:i] + token_lists[i + 1:]
        scores.append(_bleu(candidate, references, max_n))
    return sum(scores) / len(scores)


def _set_self_bleu(entries: list[RankEntry], texts: dict[str, str]) -> float:
    if len(entries) < 2:
        return 0.0
    return self_bleu([texts[e.doc_id] for e in entries])


def diversity_filter(candidates: RankedList, corpus: CorpusSnapshot,
                     threshold: float = DIVERSITY_THRESHOLD,
                     window: int = CONTEXT_SIZE) -> FilterResult:
    """Greedy self-similarity reduction over the top-`window` candidates.

    While the working set scores above the threshold and unused candidates
    remain: score every leave-one-out subset, drop the document whose
    removal helps most (ties drop the worst-ranked), and pull in the next
    candidate. Stops at the first conforming set, or flags exhaustion.
    """
    entries = candidates.entries
    texts = {e.doc_id: corpus.get_text(e.doc_id) for e in entries}
    if len(entries) < window:
        return FilterResult(entries=list(entries), shortfall=True)
    working = list(entries[:window])
    next_idx = window
    removals = 0
    while _set_self_bleu(working, texts) > threshold:
        if next_idx >= len(entries):
            return FilterResult(entries=working, exhausted=True,
                                removals=removals)
        best_drop = None
        best_score = None
        for pos in range(len(working)):
            subset = working[:pos] + working[pos + 1:]
            score = _set_self_bleu(subset, texts)
            # ties prefer dropping the worst original rank
            if (best_score is None or score < best_score
                    or (score == best_score
                        and working[pos].rank > working[best_drop].rank)):
                best_score = score
                best_drop = pos
        working.pop(best_drop)
        working.append(entries[next_idx])
        next_idx += 1
        removals += 1
    return FilterResult(entries=working, removals=removals)


def acc_at_k(ranked: Sequence[RankedList], gold: Mapping[str, Sequence[str]],
             k: int, corpus: CorpusSnapshot) -> float:
    """Percentage of queries with a gold answer in some top-k document."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranked:
        return 0.0
    hits = 0
    for rl in ranked:
        if rl.query_id not in gold:
            raise ValueError(f"query {rl.query_id!r} has no gold answers")
        answers = gold[rl.query_id]
        for entry in rl.top(k):
            if em(answers, corpus.get_text(entry.doc_id)):
                hits += 1
                break
    return 100.0 * hits / len(ranked)


def context_right_num(top5: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot) -> int:
    """How many of the top-5 documents contain a gold answer."""
    return sum(em(golds, corpus.get_text(e.doc_id)) for e in top5.top(5))


def first_right_ranks(ranked: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot) -> tuple[int | None, int | None]:
    """Rank of the first correct document from any source and from humans.

    Returns None for a slot when no such document is in the list.
    """
    first_any: int | None = None
    first_human: int | None = None
    for entry in ranked.entries:
        doc = corpus.get(entry.doc_id)
        if not em(golds, doc.text):
            continue
        if first_any is None:
            first_any = entry.rank
        if doc.source.kind == HUMAN:
            first_human = entry.rank
            break
    return first_any, first_human


def false_answer_candidates(self, query: str, ref_answers: list[str],
                            attempt: int = 0) -> list[str]:
    # decoys must not contain any reference-answer token, so the
    # primary answer is reversed; hash fallback covers palindromes
    base = ref_answers[0]
    mangled = "-".join(t[::-1] for t in tokenize(base)) or "unknown"
    decoys = [f"not-{mangled}-{i}" for i in range(1, FALSE_ANSWER_COUNT + 1)]
    if attempt > 0 or any(em(ref_answers, d) for d in decoys):
        tag = derive_seed(self.seed, "decoy", query, attempt)
        decoys = [f"decoy{tag % 10_000}x{i}"
                  for i in range(1, FALSE_ANSWER_COUNT + 1)]
    return decoys


def judge_reply(self, request: GenerationRequest) -> str:
    # offline judge: the response supports the answer iff it contains it
    if request.answer is None or request.response is None:
        return "no"
    return "Yes." if em([request.answer], request.response) else "No."


# ---- a recorded run: its final corpus and every ranked list ---------------

@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("recorded")
    corpus_path, query_path = write_demo_dataset(tmp / "data", num_docs=120,
                                                 num_queries=10, seed=11)
    config = parse_config_mapping({
        "seed_corpus": str(corpus_path), "query_set": str(query_path),
        "output_dir": str(tmp / "run"), "pipeline": "bm25",
        "sample_size": 10, "iterations": 2, "seed": 4, "offline": True,
        "retrieval_depth": 12,
        "generators": [
            {"name": "gen-a", "kind": "synthetic", "accuracy": 0.8},
            {"name": "gen-b", "kind": "synthetic", "accuracy": 0.8},
        ],
    })
    runner = ExperimentRunner(config)
    phases = [runner.run_baseline()]
    runner._commit(runner.inject_zero_shot())
    for iteration in (1, 2):
        phases.append(runner.run_iteration(iteration, em_prev=None))
    ranked = [rl for art in phases for rl in art.ranked.values()]
    return runner.corpus, ranked, runner.gold


# ---- Self-BLEU ----------------------------------------------------------------

def test_self_bleu_bit_equal_on_random_token_sets():
    rng = random.Random(20240)
    for trial in range(400):
        vocab = [f"w{i}" for i in range(rng.choice((3, 6, 12, 40)))]
        docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 25))]
                for _ in range(rng.randint(2, 6))]
        max_n = rng.randint(1, 4)
        want = self_bleu(docs, max_n)
        assert metrics.self_bleu(docs, max_n) == want
        assert metrics.self_bleu([" ".join(d) for d in docs], max_n) == want
        profiles = [metrics.ngram_profile(d, max_n) for d in docs]
        assert metrics.self_bleu(profiles, max_n) == want


def test_self_bleu_bit_equal_on_recorded_top5_sets(recorded):
    corpus, ranked, _ = recorded
    compared = 0
    for rl in ranked:
        ids = rl.doc_ids()[:5]
        if len(ids) < 2:
            continue
        want = self_bleu([corpus.get_text(d) for d in ids])
        assert metrics.self_bleu([corpus.tokens(d) for d in ids]) == want
        compared += 1
    assert compared >= 20


def test_self_bleu_rejects_profile_of_other_order():
    profiles = [metrics.ngram_profile(["a", "b"], 2)] * 2
    with pytest.raises(ValueError, match="2-gram counts"):
        metrics.self_bleu(profiles, max_n=3)


# ---- diversity filter ----------------------------------------------------------

def test_diversity_filter_identical_on_recorded_candidates(recorded):
    corpus, ranked, _ = recorded
    outcomes = Counter()
    for rl in ranked:
        for keep in (9, 3):
            candidates = RankedList(rl.query_id, rl.iteration,
                                    rl.entries[:keep])
            want = diversity_filter(candidates, corpus)
            assert filters.diversity_filter(candidates, corpus) == want
            outcomes["shortfall"] += want.shortfall
            outcomes["exhausted"] += want.exhausted
            outcomes["removed"] += want.removals > 0
    # the recorded lists reach every way the filter can end
    assert outcomes["shortfall"] and outcomes["exhausted"] and outcomes["removed"]


def test_diversity_filter_identical_on_synthetic_near_duplicates():
    rng = random.Random(99)
    vocab = [f"t{i}" for i in range(15)]
    base = [rng.choice(vocab) for _ in range(30)]
    docs = []
    for i in range(14):
        toks = list(base)
        for _ in range(rng.randint(0, 12)):
            toks[rng.randrange(len(toks))] = rng.choice(vocab)
        docs.append(human_doc(f"d{i:02d}", " ".join(toks)))
    corpus = snapshot_of(docs)
    candidates = RankedList.from_ordered(
        "q", 1, [(d.doc_id, float(20 - i)) for i, d in enumerate(docs)])
    for threshold in (0.2, 0.5, 0.8, 0.95):
        assert (filters.diversity_filter(candidates, corpus, threshold)
                == diversity_filter(candidates, corpus, threshold))


# ---- document grading from cached tokens ---------------------------------------

def test_grading_identical_on_recorded_lists(recorded):
    corpus, ranked, gold = recorded
    for k in (1, 5, 12):
        assert metrics.acc_at_k(ranked, gold, k, corpus) == \
            acc_at_k(ranked, gold, k, corpus)
    for rl in ranked:
        answers = gold[rl.query_id]
        assert metrics.context_right_num(rl, answers, corpus) == \
            context_right_num(rl, answers, corpus)
        assert metrics.first_right_ranks(rl, answers, corpus) == \
            first_right_ranks(rl, answers, corpus)
        # a wrong answer, and one that needs articles stepped over
        for golds in (["nowhere"], ["site describe its"]):
            assert metrics.first_right_ranks(rl, golds, corpus) == \
                first_right_ranks(rl, golds, corpus)


def test_containment_skipping_articles_matches_stripping():
    rng = random.Random(7)
    vocab = ["a", "an", "the", "x", "y", "z"]
    for _ in range(3000):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        needle = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
        needle = [t for t in needle if t not in ("a", "an", "the")]
        want = _contains_subsequence([t for t in tokens
                                      if t not in ("a", "an", "the")], needle)
        assert metrics._contains_normalized(tokens, needle) is want


def test_em_identical_on_random_texts():
    rng = random.Random(8)
    vocab = ["a", "An", "the", "x", "Y", "z", "x-y", "THE z", "!"]
    for _ in range(2000):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        golds = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 2))]
        assert metrics.em(golds, text) == em(golds, text)
    with pytest.raises(ValueError, match="at least one gold answer"):
        metrics.em([], "text")


def test_grading_matches_em_on_article_heavy_text():
    texts = {"d1": "The capital is the Paris of an age",
             "d2": "a capital, a Paris",
             "d3": "capital the the paris"}
    corpus = snapshot_of([human_doc(d, t) for d, t in texts.items()])
    rl = RankedList.from_ordered("q", 0, [(d, 1.0) for d in texts])
    for golds in (["capital Paris"], ["the Paris of age"], ["Paris a capital"],
                  ["the"], ["capital"]):
        assert metrics.context_right_num(rl, golds, corpus) == \
            sum(em(golds, t) for t in texts.values())
    with pytest.raises(ValueError, match="at least one gold answer"):
        metrics.context_right_num(rl, [], corpus)


# ---- synthetic false answers and judge replies through `generate` -------------

@pytest.mark.parametrize("answers", [["Paris"], ["anna"], ["Le Havre", "Havre"]],
                         ids=["plain", "palindrome", "two-answers"])
def test_synthetic_false_answers_match_side_method(answers):
    gen = SyntheticGenerator("g", seed=4)
    query = "which port is this"
    prompt = build_prompt(MIS_ANSWER, query, ref_answers=answers)
    for attempt in range(4):
        got = [gen.generate(GenerationRequest(
                   prompt=prompt, kind=MIS_ANSWER, query=query,
                   gold_answers=answers, attempt=attempt * FALSE_ANSWER_COUNT + i))
               for i in range(FALSE_ANSWER_COUNT)]
        assert got == false_answer_candidates(gen, query, answers, attempt)
    # a palindrome survives reversal, so its first set is the hash fallback
    assert false_answer_candidates(gen, query, ["anna"])[0].startswith("decoy")


def test_synthetic_judge_matches_side_method():
    gen = SyntheticGenerator("g", seed=1)
    replies = []
    for response in ("the answer is Paris", "the answer is Lyon"):
        request = GenerationRequest(
            prompt=build_prompt(ANSWER_CHECK, "q", response=response,
                                answer="Paris"),
            kind=ANSWER_CHECK, query="q", response=response, answer="Paris")
        assert gen.generate(request) == judge_reply(gen, request)
        replies.append(gen.generate(request))
    assert replies == ["Yes.", "No."]
