"""Differential tests: the cached-token and once-per-call n-gram paths
against the implementations they replaced.

The oracles below are the text-based versions of Self-BLEU, the diversity
filter and the document-grading metrics, copied unchanged from before the
corpus cached document tokens, and the diversity filter that rescored
every leave-one-out subset from n-gram Counters before it kept per-slot
counts. That filter scores with `maxima_self_bleu`, the Self-BLEU that
clipped each set's Counters by a dict of per-n-gram maxima before
`self_bleu` moved onto the filter's count table, so the table is never
checked against itself. Every comparison requires exact equality:
the arithmetic is the same, so the floats must be bit-equal. The synthetic
generator's former side methods for false answers and judge replies are
kept too, as oracles for the requests `generate` now answers. So are the
phrase cleaner that ran every phrase's regex over every text, and the
searches that fully sorted every candidate before keeping the top k. The
tokenizer's regex stays in `retrieval` as the oracle of its ASCII fast path
and of the synthetic generator's read of a context's leading tokens.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import pytest

from ragloop import filters, metrics, retrieval
from ragloop.corpus import NGRAM_ORDERS, CorpusSnapshot, HUMAN
from ragloop.filters import DIVERSITY_THRESHOLD, FilterResult
from ragloop.generation import (ANSWER_CHECK, CONTEXT_SIZE, FALSE_ANSWER_COUNT,
                                MIS_ANSWER, GenerationRequest,
                                SyntheticGenerator, build_prompt, derive_seed)
from ragloop.metrics import _bleu_from_clipped, normalize_answer
from ragloop.config import parse_config_mapping
from ragloop.postprocess import PhraseList, clean, default_phrase_list
from ragloop.retrieval import (BM25_B, BM25_K1, InvertedIndex, RankEntry,
                               RankedList, VectorIndex, _id_rank, _top_k,
                               search_bm25, tokenize)
from ragloop.runner import ExperimentRunner
from ragloop.synthdata import write_demo_dataset

from conftest import holds_phrase, human_doc, snapshot_of

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


class NgramProfile(NamedTuple):
    """A document's length and its n-gram Counters, `counts[n - 1]` for
    n = 1..NGRAM_ORDERS. 1-grams are keyed by the token, longer ones by
    tuples."""

    length: int
    counts: tuple[Counter, ...]


def ngram_profile(tokens: Sequence[str]) -> NgramProfile:
    return NgramProfile(len(tokens), (Counter(tokens),) + tuple(
        Counter(zip(*(tokens[i:] for i in range(n))))
        for n in range(2, NGRAM_ORDERS + 1)))


def _set_maxima(counters: list[Counter]) -> dict:
    """Each n-gram's largest count over the set, and the largest count left
    once one document holding that count is set aside (0 if none)."""
    maxima: dict = {}
    get = maxima.get
    for counts in counters:
        for ngram, cnt in counts.items():
            top = get(ngram)
            if top is None:
                maxima[ngram] = (cnt, 0)
            elif cnt > top[0]:
                maxima[ngram] = (cnt, top[0])
            elif cnt > top[1]:
                maxima[ngram] = (top[0], cnt)
    return maxima


def _clipped_counts(candidate: NgramProfile,
                    set_maxima: list[dict]) -> Iterator[int]:
    """The candidate's n-gram counts clipped by the other members of its
    set, one sum per order n = 1..NGRAM_ORDERS, each computed when it is
    read. `set_maxima[n - 1]` is `_set_maxima` of the whole set's n-gram
    Counters."""
    for n in range(NGRAM_ORDERS):
        maxima = set_maxima[n]
        clipped = 0
        for ngram, cnt in candidate.counts[n].items():
            # below the set's largest count, a reference holds the largest;
            # at it, the best reference holds the runner-up
            largest, runner_up = maxima[ngram]
            clipped += cnt if cnt < largest else runner_up
        yield clipped


def maxima_self_bleu(docs: Sequence[str | Sequence[str]]) -> float:
    """Mean BLEU of each document against the rest of the set.

    High values mean the set is homogeneous. Uses uniform
    1..NGRAM_ORDERS-gram weights and no smoothing, so disjoint sets score
    exactly 0 and identical sets exactly 1.

    A document is a text or a token sequence (such as the corpus's cached
    tokens). Each document's n-gram Counters are built once per call and
    dropped afterwards: keeping them for every document that reaches a
    top-5 list would cost several times the memory of the cached tokens
    they are built from.
    """
    if len(docs) < 2:
        raise ValueError("self_bleu needs at least 2 documents")
    profiles = [ngram_profile(tokenize(d) if isinstance(d, str) else d)
                for d in docs]
    set_maxima = [_set_maxima([p.counts[n] for p in profiles])
                  for n in range(NGRAM_ORDERS)]
    lengths = [p.length for p in profiles]
    scores = []
    for i, candidate in enumerate(profiles):
        c = candidate.length
        # the closest reference length; a tie goes to the shorter
        r = min(lengths[:i] + lengths[i + 1:], key=lambda rl: (abs(rl - c), rl))
        scores.append(_bleu_from_clipped(
            _clipped_counts(candidate, set_maxima), c, r))
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
                            tokens: dict[str, tuple[str, ...]]) -> float:
    if len(entries) < 2:
        return 0.0
    return maxima_self_bleu([tokens[e.doc_id] for e in entries])


def counter_diversity_filter(candidates: RankedList, corpus: CorpusSnapshot,
                             threshold: float = DIVERSITY_THRESHOLD) -> FilterResult:
    """Greedy self-similarity reduction over the top-CONTEXT_SIZE candidates.

    While the working set scores above the threshold and unused candidates
    remain: score every leave-one-out subset, drop the document whose
    removal helps most (ties drop the worst-ranked), and pull in the next
    candidate. Stops at the first conforming set, or flags exhaustion.
    Each subset is scored by `maxima_self_bleu` on the corpus's cached
    tokens, read once per candidate when it joins the working set.
    """
    entries = candidates.entries
    if len(entries) < CONTEXT_SIZE:
        return FilterResult(entries=list(entries), shortfall=True)
    tokens: dict[str, tuple[str, ...]] = {}

    def join(entry: RankEntry) -> RankEntry:
        tokens[entry.doc_id] = corpus.tokens(entry.doc_id)
        return entry

    working = [join(e) for e in entries[:CONTEXT_SIZE]]
    next_idx = CONTEXT_SIZE
    removals = 0
    while _counter_set_self_bleu(working, tokens) > threshold:
        if next_idx >= len(entries):
            return FilterResult(entries=working, exhausted=True,
                                removals=removals)
        best_drop = None
        best_score = None
        for pos in range(len(working)):
            subset = working[:pos] + working[pos + 1:]
            score = _counter_set_self_bleu(subset, tokens)
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
        doc_idxs, term_freqs = plist
        idxs = np.fromiter(doc_idxs, dtype=np.int64, count=len(doc_idxs))
        tfs = np.fromiter(term_freqs, dtype=np.float64, count=len(term_freqs))
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
    matrix = vindex.matrix
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
    return runner.corpus, ranked, {q.query_id: q.answers for q in runner.queries}


# ---- Self-BLEU ----------------------------------------------------------------

def test_self_bleu_bit_equal_on_random_token_sets():
    rng = random.Random(20240)
    for trial in range(400):
        vocab = [f"w{i}" for i in range(rng.choice((3, 6, 12, 40)))]
        docs = [[rng.choice(vocab) for _ in range(rng.randint(0, 25))]
                for _ in range(rng.randint(2, 6))]
        want = self_bleu(docs)
        assert maxima_self_bleu(docs) == want
        assert metrics.self_bleu(docs) == want
        assert metrics.self_bleu([" ".join(d) for d in docs]) == want


def test_self_bleu_bit_equal_on_recorded_top5_sets(recorded):
    corpus, ranked, _ = recorded
    compared = 0
    for rl in ranked:
        ids = rl.doc_ids()[:5]
        if len(ids) < 2:
            continue
        want = self_bleu([corpus.get_text(d) for d in ids])
        assert maxima_self_bleu([corpus.tokens(d) for d in ids]) == want
        assert metrics.self_bleu([corpus.tokens(d) for d in ids]) == want
        compared += 1
    assert compared >= 20


def _maxima_scores(sets: Mapping) -> dict:
    return {key: maxima_self_bleu(docs) for key, docs in sets.items()}


def test_self_bleu_of_a_mapping_scores_sets_of_two_to_six_members():
    rng = random.Random(31)
    vocab = [f"w{i}" for i in range(15)]
    sets = {f"s{i:03d}": [[rng.choice(vocab) for _ in range(rng.randint(0, 20))]
                          for _ in range(rng.randint(2, 6))]
            for i in range(150)}
    assert {len(docs) for docs in sets.values()} == {2, 3, 4, 5, 6}
    got = metrics.self_bleu(sets)
    assert list(got) == list(sets)
    assert got == _maxima_scores(sets)


def test_self_bleu_of_sets_without_tokens_is_zero():
    # punctuation-only texts tokenize to nothing
    sets = {"punct": ["?!", "...", "--"], "empty": ["", ""],
            "one-empty": ["...", "a b c", "a b c"], "one-token": ["a", "a"]}
    want = {key: self_bleu(docs) for key, docs in sets.items()}
    assert want["punct"] == want["empty"] == 0.0
    assert metrics.self_bleu(sets) == want
    assert metrics.self_bleu({"a": ["?!", ""], "b": ["...", "--", ""]}) == \
        {"a": 0.0, "b": 0.0}
    assert metrics.self_bleu(["?!", "..."]) == 0.0


def test_self_bleu_of_more_sets_than_one_block():
    rng = random.Random(32)
    vocab = [f"w{i}" for i in range(40)]
    sets = {i: [[rng.choice(vocab) for _ in range(rng.randint(0, 60))]
                for _ in range(rng.randint(2, 6))] for i in range(300)}
    # one set larger than a block on its own, between the others
    sets[150] = [[rng.choice(vocab) for _ in range(metrics._BLOCK_WEIGHT)]
                 for _ in range(3)]
    weight = sum(len(docs) + sum(map(len, docs)) for docs in sets.values())
    assert weight > 5 * metrics._BLOCK_WEIGHT
    assert metrics.self_bleu(sets) == _maxima_scores(sets)


def test_self_bleu_scores_each_recorded_phase_in_one_call(recorded_run):
    runner, phases = recorded_run
    corpus = runner.corpus
    for art in phases:
        sets = {qid: [corpus.tokens(e.doc_id) for e in rl.top(5)]
                for qid, rl in art.ranked.items() if len(rl.entries) >= 2}
        assert len(sets) == len(art.ranked)
        want = {qid: self_bleu([" ".join(tokens) for tokens in docs])
                for qid, docs in sets.items()}
        got = metrics.self_bleu(sets)
        assert got == want
        assert sum(got.values()) / len(got) == art.metrics.self_bleu_top5


def _recorded_phase_sets(recorded_run) -> list[dict]:
    """Each recorded phase's top-5 sets, keyed by query, as the runner
    scores them."""
    runner, phases = recorded_run
    return [{qid: [runner.corpus.tokens(e.doc_id) for e in rl.top(5)]
             for qid, rl in art.ranked.items() if len(rl.entries) >= 2}
            for art in phases]


def test_self_bleu_renumbering_every_order_matches_plain_codes(
        recorded_run, monkeypatch):
    # a code limit of 0 sends every block down the dense renumbering path
    phase_sets = _recorded_phase_sets(recorded_run)
    plain = [metrics.self_bleu(sets) for sets in phase_sets]
    monkeypatch.setattr(metrics, "_CODE_LIMIT", 0)
    for sets, want in zip(phase_sets, plain):
        assert metrics.self_bleu(sets) == want == _maxima_scores(sets)


def test_self_bleu_of_a_whole_phase_in_one_block_matches_blocks(
        recorded_run, monkeypatch):
    phase_sets = _recorded_phase_sets(recorded_run)
    weights = [sum(len(docs) + sum(map(len, docs)) for docs in sets.values())
               for sets in phase_sets]
    assert max(weights) > metrics._BLOCK_WEIGHT
    blocked = [metrics.self_bleu(sets) for sets in phase_sets]
    monkeypatch.setattr(metrics, "_BLOCK_WEIGHT", 1 << 40)
    for sets, want in zip(phase_sets, blocked):
        assert metrics.self_bleu(sets) == want == _maxima_scores(sets)


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


def _window_scores(window: metrics._WindowCounts) -> tuple[float, list[float]]:
    score, left_out = window.scores()
    return score, left_out()


def test_window_scores_after_replacements_match_a_fresh_window():
    rng = random.Random(512)
    for trial in range(60):
        vocab = [f"w{i}" for i in range(rng.choice((2, 5, 12)))]
        pool = [[rng.choice(vocab) for _ in range(rng.randint(0, 14))]
                for _ in range(rng.randint(8, 16))]
        corpus = snapshot_of([human_doc(f"d{i:02d}", " ".join(tokens) or "?")
                              for i, tokens in enumerate(pool)])
        ids = [f"d{i:02d}" for i in range(len(pool))]
        docs, members = pool[:CONTEXT_SIZE], ids[:CONTEXT_SIZE]
        window = metrics._WindowCounts(corpus, members)
        for doc_id, tokens in zip(ids[CONTEXT_SIZE:], pool[CONTEXT_SIZE:]):
            pos = rng.randrange(CONTEXT_SIZE)
            window.replace(pos, doc_id)
            docs = docs[:pos] + docs[pos + 1:] + [tokens]
            members = members[:pos] + members[pos + 1:] + [doc_id]
        score, left_out = _window_scores(window)
        assert (score, left_out) == _window_scores(
            metrics._WindowCounts(corpus, members))
        assert score == maxima_self_bleu(docs)
        assert left_out == [maxima_self_bleu(docs[:pos] + docs[pos + 1:])
                            for pos in range(CONTEXT_SIZE)]


def test_window_scores_match_maxima_self_bleu_after_many_joins_on_one_store():
    # windows share the store's numbering, which each document joins once
    # and then re-enters many times, in windows numbered before and after it
    rng = random.Random(2048)
    vocab = [f"w{i}" for i in range(8)]
    pool = [[rng.choice(vocab) for _ in range(rng.randint(0, 20))]
            for _ in range(60)]
    corpus = snapshot_of([human_doc(f"d{i:02d}", " ".join(tokens) or "?")
                          for i, tokens in enumerate(pool)])
    for trial in range(12):
        picks = [rng.randrange(len(pool)) for _ in range(CONTEXT_SIZE + 30)]
        members = picks[:CONTEXT_SIZE]
        window = metrics._WindowCounts(corpus, [f"d{i:02d}" for i in members])
        for joining in picks[CONTEXT_SIZE:]:
            pos = rng.randrange(CONTEXT_SIZE)
            window.replace(pos, f"d{joining:02d}")
            members = members[:pos] + members[pos + 1:] + [joining]
            docs = [pool[i] for i in members]
            score, left_out = _window_scores(window)
            assert score == maxima_self_bleu(docs)
            assert left_out == [maxima_self_bleu(docs[:k] + docs[k + 1:])
                                for k in range(CONTEXT_SIZE)]


# ---- document grading from cached tokens ---------------------------------------

def test_grading_identical_on_recorded_lists(recorded):
    corpus, ranked, gold = recorded
    first_any = [
        metrics.first_right_ranks(rl, gold[rl.query_id], corpus, {})[0]
        for rl in ranked]
    for k in (1, 5, 12, 20):
        assert metrics.acc_at_k(first_any, k) == acc_at_k(ranked, gold, k, corpus)
    for rl in ranked:
        answers = gold[rl.query_id]
        assert metrics.context_right_num(rl, answers, corpus, {}) == \
            context_right_num(rl, answers, corpus)
        assert metrics.first_right_ranks(rl, answers, corpus, {}) == \
            first_right_ranks(rl, answers, corpus)
        # a wrong answer, and one that needs articles stepped over
        for golds in (["nowhere"], ["site describe its"]):
            assert metrics.first_right_ranks(rl, golds, corpus, {}) == \
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
        assert metrics.context_right_num(rl, golds, corpus, {}) == \
            sum(em(golds, t) for t in texts.values())
    with pytest.raises(ValueError, match="at least one gold answer"):
        metrics.context_right_num(rl, [], corpus, {})


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
        assert holds_phrase(plist, text) == \
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
    assert all(holds_phrase(plist, t) for t in texts[:2])
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
    assert holds_phrase(plist, "Sure thing, the river")
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
                assert _bits(index.search_all([query], k)[0]) == \
                    _bits(oracle_bm25_search(index, query, k)), (batch, query, k)


def test_bm25_search_matches_full_sort_on_recorded_index(recorded_run):
    runner, _ = recorded_run
    assert runner.index.doc_count > 120
    for query in runner.queries:
        for k in (1, 5, 12, 100, runner.index.doc_count):
            assert _bits(runner.index.search_all([query.question], k)[0]) == \
                _bits(oracle_bm25_search(runner.index, query.question, k))


def _all_bits(found: list[list[tuple[str, float]]]) -> list:
    return [_bits(pairs) for pairs in found]


def test_bm25_search_all_matches_full_sort_on_recorded_questions(recorded_run):
    runner, _ = recorded_run
    index = runner.index
    questions = [q.question for q in runner.queries]
    for k in (1, 5, 12, index.doc_count + 5):
        want = [_bits(oracle_bm25_search(index, q, k)) for q in questions]
        assert _all_bits(index.search_all(questions, k)) == want
        ranked = search_bm25(index, {q.query_id: q.question
                                     for q in runner.queries}, k, iteration=3)
        assert list(ranked) == [q.query_id for q in runner.queries]
        assert [_bits([(e.doc_id, e.score) for e in rl.entries])
                for rl in ranked.values()] == want
        assert all(rl.iteration == 3 and rl.query_id == qid
                   for qid, rl in ranked.items())


def test_bm25_search_all_matches_full_sort_across_blocks_after_adds():
    rng = random.Random(41)
    words = [f"w{i}" for i in range(1500)] + ["the", "of"]
    queries = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
               for _ in range(250)]
    # repeated terms, terms no document holds, and no terms at all
    queries += ["the the of", "w1 absent w1", "absent words only", "", "..."]
    index = InvertedIndex()
    for batch in range(3):
        index.add([human_doc(f"b{batch}-{i:03d}", " ".join(
            rng.choice(words) for _ in range(rng.randint(1, 40))))
            for i in range(300)])
        # the queries' weight rows span more than one block
        indexed = {t for q in queries for t in tokenize(q) if t in index.postings}
        assert len(indexed) * index.doc_count > retrieval._BLOCK_ELEMENTS
        for k in (1, 7, index.doc_count + 1):
            assert _all_bits(index.search_all(queries, k)) == \
                [_bits(oracle_bm25_search(index, q, k)) for q in queries]
    assert index.search_all(["absent words only", "", "..."], 3) == [[], [], []]


def test_bm25_search_all_returns_fewer_than_k_hits():
    index = InvertedIndex()
    index.add([human_doc("d1", "apple pie"), human_doc("d2", "apple apple"),
               human_doc("d3", "banana")])
    found = index.search_all(["apple", "banana apple", "pear"], 10)
    assert [len(pairs) for pairs in found] == [2, 3, 0]
    assert _all_bits(found) == [_bits(oracle_bm25_search(index, q, 10))
                                for q in ("apple", "banana apple", "pear")]


def test_bm25_search_all_on_an_empty_index():
    index = InvertedIndex()
    assert index.search_all(["river", "the the", ""], 3) == [[], [], []]
    assert index.search_all([], 3) == []
    assert search_bm25(index, {"a": "river", "b": ""}, 3) == {
        "a": RankedList("a", 0, []), "b": RankedList("b", 0, [])}


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


# ---- tokenize: the ASCII fast path against the regex ----------------------------

# the Kelvin sign lowers to ASCII "k"; dotted capital I lowers to "i" and a
# combining dot; long s is a letter whose lowercase is itself; capital sigma
# lowers to final sigma at the end of a word; an Arabic-Indic digit and the
# "fi" ligature are word characters outside ASCII
_NON_ASCII = ["\u212a", "\u0130", "\u017f", "\u03a3", "\u03c3", "\u03c2",
              "\u0663", "\ufb01", "\u00e9", "\u00a0", "\u2014"]


def _regex_tokens(text: str) -> list[str]:
    return retrieval._TOKEN_RE.findall(text.lower())


def test_tokenize_matches_the_regex_on_every_ascii_code_point():
    for code in range(128):
        c = chr(code)
        for text in (c, c * 3, f"ab{c}CD", f"{c}x_{c}9Z{c}", f"_{c}_"):
            assert tokenize(text) == _regex_tokens(text), repr(text)


@pytest.mark.parametrize("text", [
    "\u212aelvin", "\u212a", "\u0130stanbul", "d\u0130\u0130", "\u017ftra\u017fe",
    "\u039f\u0394\u039f\u03a3 \u039f\u0394\u039f\u03a3.", "\u03a3\u0391\u03a3", "\u03a3_\u03a3",
    "\u0663 apples", "x\u0663y", "\ufb01le \ufb01", "snake_case \u0130",
    "caf\u00e9\u00a0bar\u2014baz"])
def test_tokenize_matches_the_regex_on_non_ascii_text(text):
    assert tokenize(text) == _regex_tokens(text)


def test_tokenize_takes_the_fast_path_when_the_lowered_text_is_ascii():
    # the Kelvin sign is not ASCII, but its lowercase is
    assert "\u212aelvin".lower().isascii()
    assert tokenize("\u212aelvin") == ["kelvin"] == _regex_tokens("\u212aelvin")


def test_tokenize_matches_the_regex_on_random_strings():
    rng = random.Random(25)
    ascii_chars = [chr(code) for code in range(128)]
    wordy = list("abcXYZ019_ ") * 4
    for trial in range(4000):
        pool = ascii_chars + wordy
        if trial % 2:
            pool = pool + _NON_ASCII * 3
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        assert tokenize(text) == _regex_tokens(text), repr(text)


def test_ranked_list_entries_are_rank_entries():
    ranked = RankedList.from_ordered("q", 3, [("b", 2), ("a", np.float64(0.5))])
    assert ranked.entries == [RankEntry("b", 2.0, 1), RankEntry("a", 0.5, 2)]
    assert all(type(e) is RankEntry and type(e.score) is float
               for e in ranked.entries)
    assert ranked.entries[1].doc_id == "a" and ranked.entries[1].rank == 2


# ---- one tokenization per committed document -------------------------------------

def test_committed_tokens_and_index_equal_a_fresh_tokenization(tmp_path):
    corpus_path, query_path = write_demo_dataset(tmp_path / "data", num_docs=80,
                                                 num_queries=8, seed=5)
    config = parse_config_mapping({
        "seed_corpus": str(corpus_path), "query_set": str(query_path),
        "output_dir": str(tmp_path / "run"), "pipeline": "bm25",
        "sample_size": 8, "iterations": 2, "seed": 6, "offline": True,
        "misinfo": True, "grade_with_judge": True,
        "generators": [
            {"name": "gen-a", "kind": "synthetic", "accuracy": 0.7},
            {"name": "gen-b", "kind": "synthetic", "accuracy": 0.7},
        ],
    })
    runner = ExperimentRunner(config)
    runner.run_baseline()
    runner._commit(runner.inject_zero_shot())
    for iteration in (1, 2):
        runner.run_iteration(iteration, em_prev=None)
    corpus = runner.corpus
    docs = list(corpus.iter_documents())
    assert sum(d.source.kind != HUMAN for d in docs) > 40
    for doc in docs:
        tokens = corpus.tokens(doc.doc_id)
        assert tokens == tuple(tokenize(doc.text))
        # every token is the store's one copy
        assert all(corpus._vocab[t] is t for t in tokens)
    fresh = InvertedIndex()
    fresh.add(docs)
    index = runner.index
    assert index.doc_ids == fresh.doc_ids
    assert index.doc_lengths == fresh.doc_lengths
    assert index.total_length == fresh.total_length
    assert np.array_equal(index._id_rank, fresh._id_rank)
    assert _bits(list(enumerate(index._norm.tolist()))) == \
        _bits(list(enumerate(fresh._norm.tolist())))
    assert index.postings.keys() == fresh.postings.keys()
    for term, (idxs, tfs) in fresh.postings.items():
        got_idxs, got_tfs = index.postings[term]
        assert (got_idxs.dtype, got_tfs.dtype) == (np.int64, np.int32)
        assert np.array_equal(got_idxs, idxs) and np.array_equal(got_tfs, tfs)
