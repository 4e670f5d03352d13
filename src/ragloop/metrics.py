"""Measurement machinery: retrieval accuracy, answer grading, dominance,
diversity, source shares, query-state transitions, rank tracking and
correlation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import CorpusSnapshot, HUMAN
from .retrieval import RankedList, tokenize

_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> list[str]:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    return [t for t in tokenize(text) if t not in _ARTICLES]


def _gold_needles(gold_answers: Sequence[str]) -> list[list[str]]:
    if not gold_answers:
        raise ValueError("em requires at least one gold answer")
    return [normalize_answer(gold) for gold in gold_answers]


def _contains_normalized(tokens: Sequence[str], needle: list[str]) -> bool:
    """Whether `needle`, a normalized answer, occurs contiguously in
    `normalize_answer` of the text whose tokens are `tokens`. Articles are
    stepped over while matching instead of being stripped first, so the
    corpus's cached tokens serve as they are."""
    if not needle:
        return False
    first, rest = needle[0], needle[1:]
    end = len(tokens)
    start = 0
    while True:
        try:
            i = tokens.index(first, start)
        except ValueError:
            return False
        j = i + 1
        for want in rest:
            while j < end and tokens[j] in _ARTICLES:
                j += 1
            if j == end or tokens[j] != want:
                break
            j += 1
        else:
            return True
        start = i + 1


def _contains_any(needles: list[list[str]], tokens: Sequence[str]) -> int:
    return int(any(_contains_normalized(tokens, n) for n in needles))


def em(gold_answers: Sequence[str], text: str) -> int:
    """1 iff any normalized gold answer occurs contiguously in the text."""
    return _contains_any(_gold_needles(gold_answers), tokenize(text))


def em_llm(contains: int, judge_verdict: str) -> int:
    """Conjunction of containment and the judge's support verdict."""
    return 1 if contains == 1 and judge_verdict == "yes" else 0


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
        needles = _gold_needles(gold[rl.query_id])
        for entry in rl.top(k):
            if _contains_any(needles, corpus.tokens(entry.doc_id)):
                hits += 1
                break
    return 100.0 * hits / len(ranked)


def dominance_p(ranked: Sequence[RankedList], corpus: CorpusSnapshot,
                k: int = 5) -> float:
    """Pooled share of generator-sourced documents among top-k slots."""
    llm = 0
    total = 0
    for rl in ranked:
        for entry in rl.top(k):
            source = corpus.source_of(entry.doc_id)
            total += 1
            if source.kind != HUMAN:
                llm += 1
    if total == 0:
        return 0.0
    return 100.0 * llm / total


def source_share(ranked: Sequence[RankedList], corpus: CorpusSnapshot,
                 top_n: int = 50) -> dict[str, float]:
    """Per-source percentage of all pooled top-n slots across queries.

    Lists shorter than top_n contribute only their actual slots, so the
    shares always sum to 100.
    """
    counts: Counter[str] = Counter()
    total = 0
    for rl in ranked:
        for entry in rl.top(top_n):
            counts[corpus.source_of(entry.doc_id).label] += 1
            total += 1
    if total == 0:
        return {}
    return {label: 100.0 * n / total for label, n in sorted(counts.items())}


class NgramProfile(NamedTuple):
    """A document's length and its n-gram Counters, `counts[n - 1]` for
    n = 1..max_n. 1-grams are keyed by the token, longer ones by tuples."""

    length: int
    counts: tuple[Counter, ...]


def ngram_profile(tokens: Sequence[str], max_n: int = 3) -> NgramProfile:
    return NgramProfile(len(tokens), (Counter(tokens),) + tuple(
        Counter(zip(*(tokens[i:] for i in range(n))))
        for n in range(2, max_n + 1)))


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


def _clipped_counts(candidate: NgramProfile, set_maxima: list[dict],
                    max_n: int) -> Iterator[int]:
    """The candidate's n-gram counts clipped by the other members of its
    set, one sum per order n = 1..max_n, each computed when it is read.
    `set_maxima[n - 1]` is `_set_maxima` of the whole set's n-gram
    Counters."""
    for n in range(max_n):
        maxima = set_maxima[n]
        clipped = 0
        for ngram, cnt in candidate.counts[n].items():
            # below the set's largest count, a reference holds the largest;
            # at it, the best reference holds the runner-up
            largest, runner_up = maxima[ngram]
            clipped += cnt if cnt < largest else runner_up
        yield clipped


def _bleu_from_clipped(clipped: Iterable[int], c: int,
                       ref_lengths: Sequence[int], max_n: int) -> float:
    """Sentence BLEU of a c-token candidate whose clipped n-gram counts
    `clipped` yields for n = 1..max_n: clipped precisions, geometric mean,
    closest-reference brevity penalty, no smoothing. Reading stops at the
    first order that scores 0. Every Self-BLEU score in the program is
    evaluated here, so they all share one float evaluation order."""
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n, hits in zip(range(max_n), clipped):
        total = c - n
        if total <= 0 or hits == 0:
            return 0.0
        log_sum += math.log(hits / total) / max_n
    r = min(ref_lengths, key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def self_bleu(docs: Sequence[str | Sequence[str] | NgramProfile],
              max_n: int = 3) -> float:
    """Mean BLEU of each document against the rest of the set.

    High values mean the set is homogeneous. Uses uniform 1..max_n-gram
    weights and no smoothing, so disjoint sets score exactly 0 and
    identical sets exactly 1.

    A document is a text, a token sequence (such as the corpus's cached
    tokens) or an `NgramProfile` its caller built. Each document's n-gram
    Counters are built once per call, or once per caller that passes
    profiles, and are dropped afterwards: keeping them for every document
    that reaches a top-5 list would cost several times the memory of the
    cached tokens they are built from.
    """
    if len(docs) < 2:
        raise ValueError("self_bleu needs at least 2 documents")
    profiles = []
    for d in docs:
        if isinstance(d, NgramProfile):
            if len(d.counts) != max_n:
                raise ValueError(f"profile has {len(d.counts)}-gram counts, "
                                 f"self_bleu needs {max_n}")
            profiles.append(d)
        else:
            profiles.append(ngram_profile(
                tokenize(d) if isinstance(d, str) else d, max_n))
    set_maxima = [_set_maxima([p.counts[n] for p in profiles])
                  for n in range(max_n)]
    lengths = [p.length for p in profiles]
    scores = []
    for i, candidate in enumerate(profiles):
        scores.append(_bleu_from_clipped(
            _clipped_counts(candidate, set_maxima, max_n), candidate.length,
            lengths[:i] + lengths[i + 1:], max_n))
    return sum(scores) / len(scores)


def context_right_num(top5: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot) -> int:
    """How many of the top-5 documents contain a gold answer."""
    needles = _gold_needles(golds)
    return sum(_contains_any(needles, corpus.tokens(e.doc_id)) for e in top5.top(5))


def transitions(em_prev: Mapping, em_next: Mapping) -> tuple[int, int]:
    """Counts of queries flipping incorrect->correct and correct->incorrect."""
    if set(em_prev.keys()) != set(em_next.keys()):
        raise ValueError("transition maps must cover the same queries")
    count_01 = sum(1 for q in em_prev if em_prev[q] == 0 and em_next[q] == 1)
    count_10 = sum(1 for q in em_prev if em_prev[q] == 1 and em_next[q] == 0)
    return count_01, count_10


def first_right_ranks(ranked: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot) -> tuple[int | None, int | None]:
    """Rank of the first correct document from any source and from humans.

    Returns None for a slot when no such document is in the list.
    """
    first_any: int | None = None
    first_human: int | None = None
    needles = _gold_needles(golds)
    for entry in ranked.entries:
        if not _contains_any(needles, corpus.tokens(entry.doc_id)):
            continue
        if first_any is None:
            first_any = entry.rank
        if corpus.source_of(entry.doc_id).kind == HUMAN:
            first_human = entry.rank
            break
    return first_any, first_human


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; rejects constant inputs."""
    if len(x) != len(y):
        raise ValueError("pearson inputs must have equal length")
    if len(x) < 2:
        raise ValueError("pearson needs at least 2 points")
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValueError("correlation undefined for constant input")
    return float(np.corrcoef(xs, ys)[0, 1])


@dataclass
class EvalRecord:
    """Per-(query, generator) grading snapshot for one iteration."""

    query_id: str
    iteration: int
    generator_name: str
    em: int
    em_llm: int | None = None
    context_right_num: int = 0
    first_right_any: int | None = None
    first_right_human: int | None = None

    def __post_init__(self) -> None:
        if (self.first_right_any is not None and self.first_right_human is not None
                and self.first_right_any > self.first_right_human):
            raise ValueError("first correct rank from any source cannot exceed "
                             "the first correct human rank")


@dataclass
class IterationMetrics:
    """The full metric bundle for one iteration."""

    iteration: int
    acc_at_5: float
    acc_at_20: float
    em_mean: float
    em_mean_by_generator: dict[str, float] = field(default_factory=dict)
    dominance_p: float = 0.0
    source_share_top50: dict[str, float] = field(default_factory=dict)
    self_bleu_top5: float = 0.0
    transitions_01: int | None = None
    transitions_10: int | None = None
    em_llm_mean: float | None = None
    pearson_em_em_llm: float | None = None
    context_right_hist: dict[str, list[int]] = field(default_factory=dict)
    first_right_summary: dict[str, float | int | None] = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("acc_at_5", "acc_at_20", "em_mean", "dominance_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.source_share_top50:
            total = sum(self.source_share_top50.values())
            if abs(total - 100.0) > 0.01:
                raise ValueError(f"source shares sum to {total}, expected 100")
        if not 0.0 <= self.self_bleu_top5 <= 1.0:
            raise ValueError(f"self_bleu_top5 out of range: {self.self_bleu_top5}")
