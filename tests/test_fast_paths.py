"""Differential tests: the cached-token and once-per-call n-gram paths
against the implementations they replaced.

The oracles below are the text-based versions of Self-BLEU, the diversity
filter and the document-grading metrics, copied unchanged from before the
corpus cached document tokens, and the diversity filter that rescored
every leave-one-out subset from n-gram Counters before it kept per-slot
counts. Every comparison requires exact equality:
the arithmetic is the same, so the floats must be bit-equal. The synthetic
generator's former side methods for false answers and judge replies are
kept too, as oracles for the requests `generate` now answers. So are the
phrase cleaner that ran every phrase's regex over every text, and the
searches that fully sorted every candidate before keeping the top k.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Mapping, Sequence

import numpy as np
import pytest

from ragloop import filters, metrics
from ragloop.corpus import CorpusSnapshot, HUMAN
from ragloop.filters import DIVERSITY_THRESHOLD, FilterResult
from ragloop.generation import (ANSWER_CHECK, CONTEXT_SIZE, FALSE_ANSWER_COUNT,
                                MIS_ANSWER, GenerationRequest,
                                SyntheticGenerator, build_prompt, derive_seed)
from ragloop.metrics import normalize_answer
from ragloop.config import parse_config_mapping
from ragloop.postprocess import PhraseList, clean, default_phrase_list
from ragloop.retrieval import (BM25_B, BM25_K1, InvertedIndex, RankEntry,
                               RankedList, VectorIndex, _id_rank, _top_k,
                               tokenize)
from ragloop.runner import ExperimentRunner
from ragloop.synthdata import write_demo_dataset

from conftest import human_doc, snapshot_of

_WS_RE = re.compile(r"\s+")
_DANGLING_HEAD_RE = re.compile(r"^[\s,;:]+")


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


def _counter_set_self_bleu(entries: list[RankEntry],
                            profiles: dict[str, metrics.NgramProfile]) -> float:
    if len(entries) < 2:
        return 0.0
    return metrics.self_bleu([profiles[e.doc_id] for e in entries])


def counter_diversity_filter(candidates: RankedList, corpus: CorpusSnapshot,
                             threshold: float = DIVERSITY_THRESHOLD) -> FilterResult:
    """Greedy self-similarity reduction over the top-CONTEXT_SIZE candidates.

    While the working set scores above the threshold and unused candidates
    remain: score every leave-one-out subset, drop the document whose
    removal helps most (ties drop the worst-ranked), and pull in the next
    candidate. Stops at the first conforming set, or flags exhaustion.
    Each candidate's n-gram Counters are built once, when it joins the
    working set, and dropped when the call returns.
    """
    entries = candidates.entries
    if len(entries) < CONTEXT_SIZE:
        return FilterResult(entries=list(entries), shortfall=True)
    profiles: dict[str, metrics.NgramProfile] = {}

    def join(entry: RankEntry) -> RankEntry:
        profiles[entry.doc_id] = metrics.ngram_profile(corpus.tokens(entry.doc_id))
        return entry

    working = [join(e) for e in entries[:CONTEXT_SIZE]]
    next_idx = CONTEXT_SIZE
    removals = 0
    while _counter_set_self_bleu(working, profiles) > threshold:
        if next_idx >= len(entries):
            return FilterResult(entries=working, exhausted=True,
                                removals=removals)
        best_drop = None
        best_score = None
        for pos in range(len(working)):
            subset = working[:pos] + working[pos + 1:]
            score = _counter_set_self_bleu(subset, profiles)
            # ties prefer dropping the worst original rank
            if (best_score is None or score < best_score
                    or (score == best_score
                        and working[pos].rank > working[best_drop].rank)):
                best_score = score
                best_drop = pos
        working.pop(best_drop)
        working.append(join(entries[next_idx]))
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


def _oracle_patterns(plist: PhraseList) -> list[re.Pattern]:
    ordered = sorted(plist.phrases, key=len, reverse=True)
    return [re.compile(re.escape(p) + r"[,\s]*", re.IGNORECASE) for p in ordered]


def oracle_clean(text: str, plist: PhraseList) -> str:
    patterns = _oracle_patterns(plist)
    out = text
    removed = 0
    for _ in range(100):
        changed = False
        for pattern in patterns:
            out, n = pattern.subn(" ", out)
            if n:
                removed += n
                changed = True
        if not changed:
            break
        out = _WS_RE.sub(" ", out)
    out = _DANGLING_HEAD_RE.sub("", out)
    out = _WS_RE.sub(" ", out).strip()
    if removed == 0 or (text.strip() and not out):
        return text
    return out


def oracle_bm25_search(index: InvertedIndex, query: str,
                       k: int) -> list[tuple[str, float]]:
    # every derived array is rebuilt from the index's data on each call
    terms = tokenize(query)
    if not terms or not index.doc_count:
        return []
    lengths = np.asarray(index.doc_lengths, dtype=np.float64)
    id_rank = _id_rank(index.doc_ids)
    avgdl = index.avg_doc_length
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / avgdl)
    scores = np.zeros(index.doc_count, dtype=np.float64)
    matched = np.zeros(index.doc_count, dtype=bool)
    for term in terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        idxs = np.fromiter((p[0] for p in plist), dtype=np.int64, count=len(plist))
        tfs = np.fromiter((p[1] for p in plist), dtype=np.float64, count=len(plist))
        idf = index.idf(term)
        scores[idxs] += idf * tfs / (tfs + norm[idxs])
        matched[idxs] = True
    hit_idxs = np.nonzero(matched)[0]
    if hit_idxs.size == 0:
        return []
    # sort by descending score, then lexicographic doc_id
    order = np.lexsort((id_rank[hit_idxs], -scores[hit_idxs]))
    top = hit_idxs[order[:k]]
    return [(index.doc_ids[i], float(scores[i])) for i in top]


def oracle_vector_search(vindex: VectorIndex, query_vec: np.ndarray,
                         k: int) -> list[tuple[str, float]]:
    matrix = np.vstack(vindex._vectors)
    norms = np.linalg.norm(matrix, axis=1)
    id_rank = _id_rank(vindex.doc_ids)
    qnorm = float(np.linalg.norm(query_vec))
    if qnorm == 0.0:
        sims = np.zeros(vindex.doc_count, dtype=np.float64)
    else:
        denom = norms * qnorm
        dots = matrix @ query_vec
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    order = np.lexsort((id_rank, -sims))
    top = order[:k]
    return [(vindex.doc_ids[i], float(sims[i])) for i in top]


def _bits(pairs: list[tuple[str, float]]) -> list[tuple[str, str]]:
    # float.hex tells 0.0 from -0.0, which == does not
    return [(doc_id, score.hex()) for doc_id, score in pairs]


# ---- a recorded run: its final corpus and every ranked list ---------------

@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
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
    return runner, phases


@pytest.fixture(scope="module")
def recorded(recorded_run):
    runner, phases = recorded_run
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

def _same_filter_result(candidates, corpus, threshold=DIVERSITY_THRESHOLD,
                        text_oracle=True) -> FilterResult:
    want = counter_diversity_filter(candidates, corpus, threshold)
    assert filters.diversity_filter(candidates, corpus, threshold) == want
    if text_oracle:
        assert diversity_filter(candidates, corpus, threshold) == want
    return want


def _pool(texts: list[str]) -> tuple[CorpusSnapshot, RankedList]:
    docs = [human_doc(f"d{i:02d}", text) for i, text in enumerate(texts)]
    return snapshot_of(docs), RankedList.from_ordered(
        "q", 1, [(d.doc_id, float(len(docs) - i)) for i, d in enumerate(docs)])


def test_diversity_filter_identical_on_recorded_candidates(recorded):
    corpus, ranked, _ = recorded
    outcomes = Counter()
    for rl in ranked:
        for keep in (9, 3):
            candidates = RankedList(rl.query_id, rl.iteration,
                                    rl.entries[:keep])
            want = _same_filter_result(candidates, corpus)
            outcomes["shortfall"] += want.shortfall
            outcomes["exhausted"] += want.exhausted
            outcomes["removed"] += want.removals > 0
    # the recorded lists reach every way the filter can end
    assert outcomes["shortfall"] and outcomes["exhausted"] and outcomes["removed"]


@pytest.fixture(scope="module")
def late_lists(tmp_path_factory):
    """The 100-deep candidate lists of a run's fifth iteration, by which
    generated near-duplicates fill the top of every list."""
    tmp = tmp_path_factory.mktemp("late")
    corpus_path, query_path = write_demo_dataset(tmp / "data", num_docs=120,
                                                 num_queries=12, seed=11)
    config = parse_config_mapping({
        "seed_corpus": str(corpus_path), "query_set": str(query_path),
        "output_dir": str(tmp / "run"), "pipeline": "bm25",
        "sample_size": 12, "iterations": 5, "seed": 4, "offline": True,
        "retrieval_depth": 100,
        "generators": [
            {"name": "gen-a", "kind": "synthetic", "accuracy": 0.8},
            {"name": "gen-b", "kind": "synthetic", "accuracy": 0.8},
        ],
    })
    runner = ExperimentRunner(config)
    runner.run_baseline()
    runner._commit(runner.inject_zero_shot())
    for iteration in range(1, 6):
        artifacts = runner.run_iteration(iteration, em_prev=None)
    return runner.corpus, list(artifacts.ranked.values())


def test_diversity_filter_identical_on_late_iteration_lists(late_lists):
    corpus, ranked = late_lists
    exhausted = []
    for rl in ranked:
        assert len(rl.entries) == 100
        want = _same_filter_result(rl, corpus, text_oracle=False)
        if want.exhausted:
            exhausted.append(rl)
    # a query that used up its whole list, every candidate past the top 5
    # having joined and all but the last 5 dropped
    assert exhausted
    assert filters.diversity_filter(exhausted[0], corpus).removals == 95
    _same_filter_result(exhausted[0], corpus)


def test_diversity_filter_identical_on_synthetic_near_duplicates():
    rng = random.Random(99)
    vocab = [f"t{i}" for i in range(15)]
    base = [rng.choice(vocab) for _ in range(30)]
    texts = []
    for _ in range(14):
        toks = list(base)
        for _ in range(rng.randint(0, 12)):
            toks[rng.randrange(len(toks))] = rng.choice(vocab)
        texts.append(" ".join(toks))
    corpus, candidates = _pool(texts)
    for threshold in (0.2, 0.5, 0.8, 0.95):
        _same_filter_result(candidates, corpus, threshold)


def test_diversity_filter_breaks_ties_between_exact_duplicates():
    corpus, candidates = _pool(["the harbor ledger lists the harbor tides"] * 12)
    # every leave-one-out subset scores 1.0: each round drops the newest
    want = _same_filter_result(candidates, corpus)
    assert want.exhausted and want.removals == 7
    assert want.doc_ids() == ["d00", "d01", "d02", "d03", "d11"]
    dup = "glacier origin was recorded by the archive"
    corpus, candidates = _pool([dup, "orchard custom notes", dup, dup,
                                "orchard custom notes", dup, "bridge height",
                                dup, "orchard custom notes", "festival purpose"])
    for threshold in (0.0, 0.1, DIVERSITY_THRESHOLD, 0.9, 1.0):
        _same_filter_result(candidates, corpus, threshold)


def test_diversity_filter_identical_on_documents_of_zero_to_two_tokens():
    # "?!" has no tokens; the 1- and 2-token texts have no 2- or 3-grams
    texts = ["harbor", "?!", "harbor ledger", "harbor", "harbor ledger",
             "ledger harbor", "-- ...", "harbor ledger tides", "ledger",
             "harbor ledger", "tides"]
    for start in range(4):
        corpus, candidates = _pool(texts[start:] + texts[:start])
        for threshold in (0.0, DIVERSITY_THRESHOLD, 1.0):
            _same_filter_result(candidates, corpus, threshold)
    corpus, candidates = _pool(["?!"] * 6)
    assert _same_filter_result(candidates, corpus, 0.0).removals == 0


def test_diversity_filter_identical_on_random_pools():
    rng = random.Random(404)
    for trial in range(300):
        vocab = [f"w{i}" for i in range(rng.randint(1, 6))]
        texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
                 or "?" for _ in range(rng.randint(4, 16))]
        corpus, candidates = _pool(texts)
        threshold = rng.choice((0.0, 0.1, DIVERSITY_THRESHOLD, 0.7, 1.0))
        _same_filter_result(candidates, corpus, threshold,
                            text_oracle=trial % 10 == 0)


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


# ---- phrase cleaning: scan only phrases that can occur ---------------------

_FILLER = "the river museum holds an archive of the north"
# non-ASCII letters that re.IGNORECASE matches to an ASCII letter while
# str.lower leaves them alone
_FOLD_VARIANTS = {"s": "\u017f", "k": "\u212a", "i": "\u0131", "I": "\u0130"}


def _same_as_oracle(texts, plist):
    patterns = _oracle_patterns(plist)
    for text in texts:
        assert clean(text, plist) == oracle_clean(text, plist), text
        assert plist.contains_any(text) == \
            any(p.search(text) for p in patterns), text


def test_clean_matches_oracle_on_every_bundled_phrase():
    plist = default_phrase_list()
    texts = []
    for phrase in plist.phrases:
        for form in (phrase, phrase.upper(), phrase.lower()):
            for sep in (" ", ", "):
                texts += [form, form + sep.rstrip(),
                          form + sep + _FILLER,
                          _FILLER + " " + form + sep + _FILLER,
                          _FILLER + sep + form,
                          _FILLER + " " + form + sep]
    _same_as_oracle(texts, plist)


def test_clean_matches_oracle_at_seams():
    # removing one phrase (or collapsing the whitespace it leaves) joins
    # the halves of another
    plist = default_phrase_list()
    rng = random.Random(909)
    texts = []
    for outer in plist.phrases:
        cuts = [m.start() for m in re.finditer(" ", outer)]
        for cut in cuts:
            for _ in range(3):
                inner = rng.choice(plist.phrases)
                sep = rng.choice([" ", ", ", "  ", ",  "])
                texts.append(f"{_FILLER} {outer[:cut]} {inner}{sep}"
                             f"{outer[cut + 1:]}, {_FILLER}")
                texts.append(f"{outer[:cut]} {inner}{sep}{outer[cut + 1:]}")
    assert texts
    _same_as_oracle(texts, plist)
    # a phrase that only exists until whitespace collapses must be found in
    # the pass whose removal made it
    spaced = PhraseList(["long phrase here", "as  well"])
    _same_as_oracle(["x as long phrase here, well y"], spaced)
    assert clean("x as long phrase here, well y", spaced) == "x y"


def test_clean_matches_oracle_on_case_folding_letters():
    plist = default_phrase_list()
    texts = ["A\u017f a chatbot, the river is long.",
             "I hope th\u0131s helps you with the archive."]
    for phrase in plist.phrases:
        for ascii_letter, variant in _FOLD_VARIANTS.items():
            if ascii_letter in phrase:
                folded = phrase.replace(ascii_letter, variant, 1)
                texts += [folded + ", " + _FILLER,
                          _FILLER + " " + folded.upper() + " " + _FILLER,
                          # the variant sits outside the phrase
                          phrase + " " + variant + " " + _FILLER]
    _same_as_oracle(texts, plist)
    # both named texts hold a phrase: the predicate must say so
    assert all(plist.contains_any(t) for t in texts[:2])
    assert all(clean(t, plist) != t for t in texts[:2])


def test_clean_matches_oracle_on_non_ascii_phrase_list():
    plist = PhraseList(["\u017fure thing", "Stra\u00dfe note", "\u0130stanbul says",
                        "na\u00efve answer", "plain phrase", "\u212aindly"])
    texts = []
    for phrase in plist.phrases + ["sure thing", "SURE THING", "istanbul says",
                                   "kindly", "KINDLY", "Kindly", "STRASSE note",
                                   "plain phrase", "PLAIN PHRASE"]:
        texts += [phrase + ", " + _FILLER, _FILLER + " " + phrase,
                  _FILLER + ", " + phrase + ", " + _FILLER, phrase]
    _same_as_oracle(texts, plist)
    # an ASCII text can hold a non-ASCII phrase
    assert plist.contains_any("Sure thing, the river")
    assert clean("Sure thing, the river", plist) == "the river"


def test_clean_matches_oracle_on_recorded_generations(recorded_run):
    plist = default_phrase_list()
    _, phases = recorded_run
    raws = [r.raw_text for art in phases for r in art.records]
    assert len(raws) >= 40
    rng = random.Random(31)
    seeded = []
    for raw in raws:
        text = raw
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(text))
            text = text[:pos] + rng.choice([" ", ", "]) + \
                rng.choice(plist.phrases) + rng.choice([" ", ", "]) + text[pos:]
        seeded.append(text)
    _same_as_oracle(raws + seeded, plist)
    # offline generations hold no phrase, so each comes back as it was
    assert all(clean(raw, plist) is raw for raw in raws)


# ---- top-k selection before the sort ------------------------------------------

def _full_sort(idxs, scores, id_rank, k):
    order = np.lexsort((id_rank[idxs], -scores))
    return idxs[order[:k]]


@pytest.mark.parametrize("scores", [
    [3.0, 1.0, 2.0, 2.0, 2.0, 0.5, 2.0],    # a tie across the k-th score
    [1.0] * 9,                              # all equal
    [0.0, -0.0, 0.0, -0.0, 1.0, -1.0],      # both zeros tie
    [np.nan, 1.0, np.nan, 2.0, 0.5],        # NaN sorts after every number
], ids=["tie-at-cut", "all-equal", "signed-zeros", "nan"])
def test_top_k_matches_full_sort(scores):
    scores = np.array(scores, dtype=np.float64)
    rng = random.Random(len(scores))
    for _ in range(20):
        id_rank = np.array(rng.sample(range(len(scores)), len(scores)))
        idxs = np.arange(len(scores))
        for k in range(1, len(scores) + 3):
            assert list(_top_k(idxs, scores, id_rank, k)) == \
                list(_full_sort(idxs, scores, id_rank, k))


def test_top_k_matches_full_sort_on_random_ties():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        idxs = np.sort(rng.choice(200, size=n, replace=False))
        scores = rng.integers(0, 4, size=n).astype(np.float64) / 3.0
        id_rank = rng.permutation(200)
        for k in (1, 2, 5, n - 1, n, n + 1):
            if k >= 1:
                assert list(_top_k(idxs, scores, id_rank, k)) == \
                    list(_full_sort(idxs, scores, id_rank, k))


def test_bm25_search_matches_full_sort_with_ties_and_incremental_adds():
    index = InvertedIndex()
    rng = random.Random(12)
    words = "river museum archive north bridge harvest the of a".split()
    added = 0
    for batch in range(6):
        docs = []
        for _ in range(15):
            added += 1
            # duplicated texts give equal scores across every cut
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            docs.append(human_doc(f"d{rng.randint(0, 10**6):07d}-{added}",
                                  text if added % 3 else "river the"))
        index.add(docs)
        for query in ("river", "the of", "museum archive north", "river the",
                      "absent", "bridge bridge harvest"):
            for k in (1, 3, 10, 40, added, added + 5):
                # the first search after an add fills the caches; a stale
                # length normalisation would change every score
                assert _bits(index.search(query, k)) == \
                    _bits(oracle_bm25_search(index, query, k)), (batch, query, k)


def test_bm25_search_matches_full_sort_on_recorded_index(recorded_run):
    runner, _ = recorded_run
    assert runner.index.doc_count > 120
    for query in runner.queries:
        for k in (1, 5, 12, 100, runner.index.doc_count):
            assert _bits(runner.index.search(query.question, k)) == \
                _bits(oracle_bm25_search(runner.index, query.question, k))


def test_vector_search_matches_full_sort_with_signed_zeros_and_ties():
    vindex = VectorIndex()
    # against the query (0, -1): (1, 0) scores 0.0, (-1, 0) scores -0.0
    vindex.add_vectors([("a", np.array([1.0, 0.0])), ("b", np.array([-1.0, 0.0])),
                        ("c", np.array([0.0, -1.0])), ("d", np.array([0.0, -2.0])),
                        ("e", np.array([-1.0, 0.0])), ("f", np.array([0.0, 0.0])),
                        ("g", np.array([0.0, 1.0]))])
    for query in (np.array([0.0, -1.0]), np.array([1.0, 1.0]),
                  np.array([0.0, 0.0])):
        for k in range(1, 10):
            assert _bits(vindex.search_vector(query, k)) == \
                _bits(oracle_vector_search(vindex, query, k))
    assert vindex.search_vector(np.array([0.0, -1.0]), 2) == [("c", 1.0), ("d", 1.0)]


def test_vector_search_matches_full_sort_after_incremental_adds():
    rng = np.random.default_rng(8)
    vindex = VectorIndex()
    for batch in range(5):
        # coarse integer vectors repeat, so similarities tie
        vindex.add_vectors([(f"v{batch}-{i:02d}",
                             rng.integers(-1, 2, size=4).astype(np.float64))
                            for i in range(25)])
        for _ in range(10):
            query = rng.integers(-1, 2, size=4).astype(np.float64)
            for k in (1, 4, 20, vindex.doc_count, vindex.doc_count + 3):
                assert _bits(vindex.search_vector(query, k)) == \
                    _bits(oracle_vector_search(vindex, query, k))
