from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import asdict

import pytest

from conftest import generated_doc, human_doc, snapshot_of
from ragloop.metrics import (EvalRecord, IterationMetrics, acc_at_k,
                             context_right_num, dominance_p, em, em_llm,
                             first_right_ranks, normalize_answer, pearson,
                             self_bleu, source_share, transitions)
from ragloop.retrieval import RankedList, tokenize


# ---- normalization and EM ---------------------------------------------------

def test_normalize_answer_rules():
    assert normalize_answer("The Beatles!") == ["beatles"]
    assert normalize_answer("42") == ["42"]
    assert normalize_answer("an apple a day") == ["apple", "day"]


def test_em_containment():
    assert em(["Paris"], "The capital of France is Paris.") == 1
    assert em(["42"], "forty-two") == 0
    assert em(["Barack Obama", "Obama"], "President Obama signed...") == 1


def test_em_case_and_article_invariance():
    base = "they saw the northern lights"
    assert em(["Northern Lights"], base) == em(["northern lights"], base) == 1
    assert em(["the northern lights"], "northern lights appeared") == 1


def test_em_requires_contiguous_tokens():
    assert em(["new york city"], "new york is a city") == 0
    assert em(["new york city"], "welcome to new york city today") == 1


def test_em_of_tokens_equals_em_of_text():
    for text in ("The capital of France is Paris.", "new york is a city",
                 "welcome to the New York city today", ""):
        for golds in (["Paris"], ["new york city"], ["the city", "Lyon"]):
            assert em(golds, tokenize(text)) == em(golds, text)
            assert em(golds, tuple(tokenize(text))) == em(golds, text)


def test_em_rejects_empty_golds():
    with pytest.raises(ValueError):
        em([], "text")


def test_em_llm_truth_table():
    assert em_llm(1, "yes") == 1
    assert em_llm(1, "no") == 0
    assert em_llm(0, "yes") == 0
    assert em_llm(0, "no") == 0


# ---- acc@k ------------------------------------------------------------------

def _ranked(query_id, ids, iteration=0):
    return RankedList.from_ordered(query_id, iteration,
                                   [(d, float(len(ids) - i))
                                    for i, d in enumerate(ids)])


def _mini_corpus():
    docs = [human_doc("hit", "the answer is paris obviously"),
            human_doc("miss1", "nothing to see"),
            human_doc("miss2", "still nothing"),
            human_doc("miss3", "nope"),
            human_doc("miss4", "not here"),
            human_doc("miss5", "absent"),
            human_doc("miss6", "empty")]
    return snapshot_of(docs)


def _first_any(ranked, corpus):
    return first_right_ranks(ranked, ["Paris"], corpus, {})[0]


def test_acc_at_k_rank_thresholds():
    corpus = _mini_corpus()
    at3 = _ranked("q", ["miss1", "miss2", "hit", "miss3", "miss4"])
    assert acc_at_k([_first_any(at3, corpus)], 5) == 100.0
    at7 = _ranked("q", ["miss1", "miss2", "miss3", "miss4", "miss5",
                        "miss6", "hit"])
    assert acc_at_k([_first_any(at7, corpus)], 5) == 0.0
    assert acc_at_k([_first_any(at7, corpus)], 20) == 100.0


def test_acc_at_k_ratio():
    corpus = _mini_corpus()
    lists = [_ranked(f"q{i}", ["hit" if i < 5 else "miss1"]) for i in range(10)]
    assert acc_at_k([_first_any(rl, corpus) for rl in lists], 5) == 50.0


def test_acc_at_k_non_decreasing_in_k():
    corpus = _mini_corpus()
    lst = _ranked("q", ["miss1", "miss2", "miss3", "hit"])
    values = [acc_at_k([_first_any(lst, corpus)], k) for k in range(1, 6)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---- dominance and shares ---------------------------------------------------

def _tagged_corpus():
    docs = [human_doc(f"h{i}", f"human text {i}") for i in range(30)]
    docs += [generated_doc(f"g{i}", f"generated text {i}", "gen-A", "q")
             for i in range(30)]
    docs += [generated_doc(f"b{i}", f"generated text b {i}", "gen-B", "q")
             for i in range(30)]
    return snapshot_of(docs)


def test_dominance_single_query():
    corpus = _tagged_corpus()
    ranked = _ranked("q", ["g0", "g1", "h0", "g2", "h1"])
    assert dominance_p([ranked], corpus) == 60.0


def test_dominance_all_human_is_zero():
    corpus = _tagged_corpus()
    ranked = _ranked("q", ["h0", "h1", "h2", "h3", "h4"])
    assert dominance_p([ranked], corpus) == 0.0


def test_dominance_is_pooled_not_averaged():
    corpus = _tagged_corpus()
    q1 = _ranked("q1", ["g0", "g1", "g2", "g3", "g4"])
    q2 = _ranked("q2", ["h0", "h1", "h2", "h3", "h4"])
    assert dominance_p([q1, q2], corpus) == 50.0


def test_dominance_unresolvable_doc_rejected():
    corpus = _tagged_corpus()
    with pytest.raises(KeyError):
        dominance_p([_ranked("q", ["ghost"])], corpus)


def test_dominance_matches_brute_force_recount():
    # oracle: count generated and human slots by hand over the raw lists
    corpus = _tagged_corpus()
    rng = random.Random(99)
    ids = [f"h{i}" for i in range(30)] + [f"g{i}" for i in range(30)] + \
          [f"b{i}" for i in range(30)]
    for _ in range(200):
        lists = []
        for q in range(rng.randint(1, 6)):
            chosen = rng.sample(ids, rng.randint(1, 12))
            lists.append(_ranked(f"q{q}", chosen))
        llm = human = 0
        for rl in lists:
            for entry in rl.entries[:5]:
                if entry.doc_id.startswith("h"):
                    human += 1
                else:
                    llm += 1
        expected = 100.0 * llm / (llm + human)
        assert dominance_p(lists, corpus) == expected


def test_source_share_single_query_even_split():
    corpus = _tagged_corpus()
    ranked = _ranked("q", ["h0", "g0"])
    assert source_share([ranked], corpus) == \
        {"gen-A": 50.0, "human": 50.0}


def test_source_share_short_list_uses_actual_slots():
    corpus = _tagged_corpus()
    ranked = _ranked("q", ["h0", "h1", "g0"])  # shorter than SHARE_DEPTH
    shares = source_share([ranked], corpus)
    assert abs(shares["human"] - 200.0 / 3) < 1e-9
    assert abs(sum(shares.values()) - 100.0) < 1e-9


def test_source_share_all_human():
    corpus = _tagged_corpus()
    lists = [_ranked(f"q{i}", ["h0", "h1", "h2"]) for i in range(10)]
    assert source_share(lists, corpus) == {"human": 100.0}


# ---- Self-BLEU ---------------------------------------------------------------

def _oracle_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _oracle_bleu(candidate, references, max_n=3):
    # independent reimplementation: clipped precisions, geometric mean,
    # closest-length brevity penalty, zero on any empty precision
    precisions = []
    for n in range(1, max_n + 1):
        cand = _oracle_ngrams(candidate, n)
        if not cand:
            return 0.0
        clipped = 0
        for ngram, count in cand.items():
            best = max((_oracle_ngrams(ref, n)[ngram] for ref in references),
                       default=0)
            clipped += min(count, best)
        precisions.append(clipped / sum(cand.values()))
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    c = len(candidate)
    r = min((len(ref) for ref in references), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


def _oracle_self_bleu(docs, max_n=3):
    scores = []
    for i, cand in enumerate(docs):
        refs = docs[:i] + docs[i + 1:]
        scores.append(_oracle_bleu(cand, refs, max_n))
    return sum(scores) / len(scores)


def test_self_bleu_identical_documents():
    assert self_bleu(["a b c d", "a b c d"]) == 1.0
    assert self_bleu(["a b c d"] * 5) == 1.0


def test_self_bleu_derived_value():
    # hand derivation: p1=3/4, p2=2/3, p3=1/2 each way, BP=1
    expected = (3 / 4 * 2 / 3 * 1 / 2) ** (1 / 3)
    assert abs(self_bleu(["a b c d", "a b c e"]) - expected) < 1e-9
    tokens = [["a", "b", "c", "d"], ["a", "b", "c", "e"]]
    assert abs(self_bleu(["a b c d", "a b c e"]) -
               _oracle_self_bleu(tokens)) < 1e-12


def test_self_bleu_disjoint_documents():
    assert self_bleu(["a b c", "x y z"]) == 0.0


def test_self_bleu_rejects_single_document():
    with pytest.raises(ValueError):
        self_bleu(["only one"])


def test_self_bleu_matches_oracle_on_random_sets():
    rng = random.Random(5150)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(100):
        size = rng.randint(2, 5)
        docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 15))]
                for _ in range(size)]
        got = self_bleu([" ".join(d) for d in docs])
        want = _oracle_self_bleu(docs)
        assert abs(got - want) < 1e-9
        assert 0.0 <= got <= 1.0


def test_self_bleu_permutation_invariant():
    rng = random.Random(77)
    docs = ["a b c d e", "a b x y z", "p q r s t", "a b c x y"]
    base = self_bleu(docs)
    for _ in range(5):
        shuffled = docs[:]
        rng.shuffle(shuffled)
        assert self_bleu(shuffled) == base


# ---- context right / transitions / ranks -------------------------------------

def test_context_right_num_counts():
    corpus = snapshot_of([
        human_doc("c1", "paris is here"), human_doc("c2", "paris again"),
        human_doc("c3", "nothing"), human_doc("c4", "paris third"),
        human_doc("c5", "not this one"), human_doc("c6", "paris too late")])
    golds = ["Paris"]
    lst = _ranked("q", ["c1", "c2", "c3", "c4", "c5", "c6"])
    # only the top five count: hits at ranks 1, 2, 4
    assert context_right_num(lst, golds, corpus, {}) == 3
    none = _ranked("q", ["c3", "c5"])
    assert context_right_num(none, golds, corpus, {}) == 0
    allhit = _ranked("q", ["c1", "c2", "c4", "c6"])
    assert context_right_num(allhit, golds, corpus, {}) == 4


def test_transitions_counts_and_identity():
    prev = {"q1": 1, "q2": 0, "q3": 1}
    nxt = {"q1": 0, "q2": 1, "q3": 1}
    assert transitions(prev, nxt) == (1, 1)
    assert transitions(prev, prev) == (0, 0)
    rng = random.Random(31)
    for _ in range(50):
        keys = [f"q{i}" for i in range(rng.randint(1, 40))]
        a = {k: rng.randint(0, 1) for k in keys}
        b = {k: rng.randint(0, 1) for k in keys}
        t01, t10 = transitions(a, b)
        assert sum(b.values()) - sum(a.values()) == t01 - t10


def test_transitions_key_mismatch_rejected():
    with pytest.raises(ValueError):
        transitions({"q1": 1}, {"q2": 1})


def _rank_corpus():
    return snapshot_of([
        human_doc("h-first", "the answer is paris"),
        human_doc("h-none", "irrelevant"),
        generated_doc("g-right", "surely paris", "gen", "q"),
        generated_doc("g-wrong", "surely lyon", "gen", "q")])


def test_first_right_ranks_any_and_human():
    corpus = _rank_corpus()
    lst = _ranked("q", ["h-none", "g-right", "g-wrong", "h-first"])
    assert first_right_ranks(lst, ["Paris"], corpus, {}) == (2, 4)


def test_first_right_ranks_generated_only():
    corpus = _rank_corpus()
    lst = _ranked("q", ["h-none", "g-right"])
    assert first_right_ranks(lst, ["Paris"], corpus, {}) == (2, None)


def test_first_right_ranks_none():
    corpus = _rank_corpus()
    lst = _ranked("q", ["h-none", "g-wrong"])
    assert first_right_ranks(lst, ["Paris"], corpus, {}) == (None, None)


def test_containment_memo_is_filled_and_then_read():
    corpus = _rank_corpus()
    lst = _ranked("q", ["h-none", "g-right", "g-wrong", "h-first"])
    contains: dict[str, int] = {}
    assert first_right_ranks(lst, ["Paris"], corpus, contains=contains) == (2, 4)
    assert contains == {"h-none": 0, "g-right": 1, "g-wrong": 0, "h-first": 1}
    assert context_right_num(lst, ["Paris"], corpus, contains=contains) == 2
    # a memoized document is not checked again: a flipped entry shows
    contains["g-wrong"] = 1
    assert first_right_ranks(lst, ["Paris"], corpus, contains=contains) == (2, 4)
    assert context_right_num(lst, ["Paris"], corpus, contains=contains) == 3
    contains["h-none"] = 1
    assert first_right_ranks(lst, ["Paris"], corpus, contains=contains) == (1, 1)


def test_first_right_any_never_exceeds_human():
    corpus = _rank_corpus()
    rng = random.Random(13)
    ids = ["h-first", "h-none", "g-right", "g-wrong"]
    for _ in range(100):
        sample = rng.sample(ids, rng.randint(1, 4))
        first_any, first_human = first_right_ranks(_ranked("q", sample),
                                                   ["Paris"], corpus, {})
        if first_any is not None and first_human is not None:
            assert first_any <= first_human


# ---- pearson / significance ---------------------------------------------------

def test_pearson_perfect_and_inverse():
    x = [0.0, 1.0, 1.0, 0.0, 1.0]
    assert abs(pearson(x, x) - 1.0) < 1e-12
    y = [1.0 - v for v in x]
    assert abs(pearson(x, y) + 1.0) < 1e-12


def test_pearson_constant_input_rejected():
    with pytest.raises(ValueError, match="constant"):
        pearson([1.0, 1.0, 1.0], [0.0, 1.0, 0.0])


# ---- record types --------------------------------------------------------------

def test_eval_record_rank_invariant():
    with pytest.raises(ValueError):
        EvalRecord(query_id="q", iteration=1, generator_name="g", em=1,
                   first_right_any=5, first_right_human=2)


def test_iteration_metrics_validation():
    m = IterationMetrics(iteration=1, acc_at_5=50.0, acc_at_20=60.0,
                         em_mean=40.0, dominance_p=30.0,
                         source_share_top50={"human": 60.0, "gen": 40.0},
                         self_bleu_top5=0.5)
    m.validate()
    m.source_share_top50 = {"human": 70.0, "gen": 40.0}
    with pytest.raises(ValueError, match="shares"):
        m.validate()
    again = IterationMetrics(**asdict(m))
    assert again.iteration == 1 and again.acc_at_5 == 50.0
