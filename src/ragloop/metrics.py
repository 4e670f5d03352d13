"""Measurement machinery: retrieval accuracy, answer grading, dominance,
diversity, source shares, query-state transitions, rank tracking and
correlation, and `phase_metrics`, which assembles them into one phase's
report. Every cut and bin a phase reports is set here; the Self-BLEU
n-gram order is the corpus store's `NGRAM_ORDERS`."""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusSnapshot, HUMAN, NGRAM_DTYPE, NGRAM_ORDERS
from .retrieval import RankedList, tokenize

logger = logging.getLogger(__name__)

_ARTICLES = {"a", "an", "the"}

# A phase's cuts: dominance, Self-BLEU, Acc@5 and the context-right count
# (bins 0..TOP_K) read a query's top TOP_K, source shares its top SHARE_DEPTH
TOP_K = 5
SHARE_DEPTH = 50
CONTEXT_RIGHT_BINS = TOP_K + 1

# `_clipped_hits` takes sets in blocks of about this many tokens plus
# members, so that its temporaries stay bounded; a larger set is a block
# of its own.
_BLOCK_WEIGHT = 1 << 12
# Packed n-gram codes stay below this, so int64 arithmetic never wraps.
_CODE_LIMIT = 1 << 62


def normalize_answer(text: str) -> list[str]:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    return [t for t in tokenize(text) if t not in _ARTICLES]


@functools.cache
def answer_needle(answer: str) -> tuple[str, ...]:
    """`normalize_answer` of a gold answer, computed once per process:
    answers never change after load and are matched on every ranked list."""
    return tuple(normalize_answer(answer))


def _gold_needles(gold_answers: Sequence[str]) -> list[tuple[str, ...]]:
    if not gold_answers:
        raise ValueError("em requires at least one gold answer")
    return [answer_needle(gold) for gold in gold_answers]


def _contains_normalized(tokens: Sequence[str], needle: Sequence[str]) -> bool:
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


def _contains_any(needles: list[tuple[str, ...]], tokens: Sequence[str]) -> int:
    return int(any(_contains_normalized(tokens, n) for n in needles))


def em(gold_answers: Sequence[str], text: str | Sequence[str]) -> int:
    """1 iff any normalized gold answer occurs contiguously in the text.
    `text` is a text or its tokens, such as the tokens a caller already
    holds for an answer it grades against several answer sets."""
    tokens = tokenize(text) if isinstance(text, str) else text
    return _contains_any(_gold_needles(gold_answers), tokens)


def _holds_gold(doc_id: str, needles: list[tuple[str, ...]],
                corpus: CorpusSnapshot, contains: dict[str, int]) -> int:
    """`_contains_any` of the document's tokens, memoized in `contains`."""
    hit = contains.get(doc_id)
    if hit is None:
        hit = contains[doc_id] = _contains_any(needles, corpus.tokens(doc_id))
    return hit


def em_llm(contains: int, judge_verdict: str) -> int:
    """Conjunction of containment and the judge's support verdict."""
    return 1 if contains == 1 and judge_verdict == "yes" else 0


def acc_at_k(first_ranks: Sequence[int | None], k: int) -> float:
    """Percentage of queries with a gold answer in some top-k document,
    from each query's first correct rank (`first_right_ranks(...)[0]`,
    None when no listed document holds one)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not first_ranks:
        return 0.0
    hits = sum(1 for rank in first_ranks if rank is not None and rank <= k)
    return 100.0 * hits / len(first_ranks)


def _source_counts(ranked: Sequence[RankedList], corpus: CorpusSnapshot,
                   k: int) -> Counter[str]:
    """How many pooled top-k slots across queries each source label holds."""
    return Counter(corpus.source_of(entry.doc_id).label
                   for rl in ranked for entry in rl.top(k))


def dominance_p(ranked: Sequence[RankedList], corpus: CorpusSnapshot) -> float:
    """Pooled share of generator-sourced documents among top-TOP_K slots."""
    counts = _source_counts(ranked, corpus, TOP_K)
    total = sum(counts.values())
    return 100.0 * (total - counts[HUMAN]) / total if total else 0.0


def source_share(ranked: Sequence[RankedList], corpus: CorpusSnapshot
                 ) -> dict[str, float]:
    """Per-source percentage of all pooled top-SHARE_DEPTH slots across
    queries.

    Lists shorter than SHARE_DEPTH contribute only their actual slots, so
    the shares always sum to 100.
    """
    counts = _source_counts(ranked, corpus, SHARE_DEPTH)
    total = sum(counts.values())
    return {label: 100.0 * n / total for label, n in sorted(counts.items())}


def _by_distance(c: int, ref_lengths: Iterable[int]) -> list[tuple[int, int]]:
    """(|r - c|, r) per reference length r, nearest then shortest first."""
    return sorted((abs(r - c), r) for r in ref_lengths)


def _bleu_from_clipped(clipped: Iterable[int], c: int, r: int) -> float:
    """Sentence BLEU of a c-token candidate whose clipped n-gram counts
    `clipped` yields for n = 1..NGRAM_ORDERS, against references whose
    nearest length (`_by_distance`) is r: clipped precisions, geometric
    mean, brevity penalty, no smoothing. Reading stops at the first order
    that scores 0. Every Self-BLEU score in the program is evaluated here,
    so they all share one float evaluation order."""
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n, hits in zip(range(NGRAM_ORDERS), clipped):
        total = c - n
        if total <= 0 or hits == 0:
            return 0.0
        log_sum += math.log(hits / total) / NGRAM_ORDERS
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


class _WindowCounts:
    """Each 1..NGRAM_ORDERS-gram's count in every slot of an ordered set of
    the corpus's documents.

    The diversity filter's working window. Its rounds swap one document at
    a time and score every leave-one-out subset, which `_clipped_hits`,
    built for many fixed sets at once, does not serve; the two share only
    `_by_distance` and `_bleu_from_clipped`. `counts[slot, g]` is the count
    of n-gram number g of the store's numbering (`CorpusSnapshot.ngrams`)
    in the document in that slot; number 0 counts nothing. `order[pos]` is
    the slot of the document at position pos of the set. A joining document
    goes last in the order and takes the slot of the one leaving, so a swap
    rewrites only those two documents' counts, from the store's arrays.

    `numbers[slot]` and `hits[slot]` are the two fields of the store's
    array for the slot document: its distinct n-grams, order by order,
    each order after n-gram 0, so every order's stretch is non-empty and
    one `reduceat` sums them all.
    """

    def __init__(self, corpus: CorpusSnapshot, doc_ids: Sequence[str]):
        self.corpus = corpus
        self.size = len(doc_ids)
        for doc_id in doc_ids:
            corpus.ngrams(doc_id)
        self.counts = np.zeros((self.size, corpus.ngram_bound()), dtype=np.int32)
        self.lengths = [0] * self.size
        empty = np.zeros(0, dtype=NGRAM_DTYPE)
        self.numbers = [empty["number"]] * self.size
        self.hits = [empty["count"]] * self.size
        self.order = list(range(self.size))
        for slot, doc_id in enumerate(doc_ids):
            self.place(slot, doc_id)

    def replace(self, pos: int, doc_id: str) -> None:
        """Drop the document at position `pos`; document `doc_id` joins
        last, in the slot the dropped one leaves."""
        slot = self.order.pop(pos)
        self.order.append(slot)
        self.place(slot, doc_id)

    def place(self, slot: int, doc_id: str) -> None:
        """Put document `doc_id` in `slot`, in place of the one there."""
        grams = self.corpus.ngrams(doc_id)
        self.counts[slot, self.numbers[slot]] = 0
        width, bound = self.counts.shape[1], self.corpus.ngram_bound()
        if bound > width:
            grown = np.zeros((self.size, max(bound, 2 * width)), dtype=np.int32)
            grown[:, :width] = self.counts
            self.counts = grown
        numbers = self.numbers[slot] = grams["number"]
        hits = self.hits[slot] = grams["count"]
        self.counts[slot, numbers] = hits
        self.lengths[slot] = len(self.corpus.tokens(doc_id))

    def clipped(self) -> list:
        """`clipped[i][j][n - 1]`: slot i's n-gram count clipped against
        the window without slots i and j (j == i: without i alone)."""
        numbers = np.concatenate(self.numbers)
        others = np.take(self.counts, numbers, axis=1)
        offset = 0
        for slot, own in enumerate(self.numbers):
            others[slot, offset:offset + len(own)] = 0
            offset += len(own)
        # refs[j] is the largest count over every other slot but j: the
        # largest over slots above j, from a running maximum down, then
        # raised to the largest over slots below it, from one running up
        refs = np.empty_like(others)
        refs[1] = others[0]
        for j in range(2, self.size):
            np.maximum(refs[j - 1], others[j - 1], out=refs[j])
        below = others[-1]
        for j in range(self.size - 2, 0, -1):
            np.maximum(refs[j], below, out=refs[j])
            below = np.maximum(below, others[j])
        refs[0] = below
        sums = np.add.reduceat(np.minimum(np.concatenate(self.hits), refs),
                               np.flatnonzero(numbers == 0), axis=1)
        return sums.reshape(self.size, self.size, NGRAM_ORDERS).transpose(
            1, 0, 2).tolist()

    def scores(self) -> tuple[float, Callable[[], list[float]]]:
        """The Self-BLEU of the set, and a function that gives the Self-BLEU
        of the set without each position in turn, each summed in position
        order: bit-equal to `self_bleu` of those documents. Both read one
        `clipped` table and one table of nearest reference lengths, but the
        leave-one-out scores are worked out only when that function is
        called: the diversity filter calls it only in a round that drops a
        document."""
        clipped, lengths, order = self.clipped(), self.lengths, list(self.order)
        # for each slot, the nearest of the other lengths and the next
        # nearest, which is the nearest once a slot of that length is out
        nearest = {}
        for i in order:
            (_, r), (_, runner_up) = _by_distance(
                lengths[i], lengths[:i] + lengths[i + 1:])[:2]
            nearest[i] = r, runner_up

        def mean(out: int | None) -> float:
            gone = None if out is None else lengths[out]
            bleus = []
            for i in order:
                if i == out:
                    continue
                r, runner_up = nearest[i]
                bleus.append(_bleu_from_clipped(
                    clipped[i][i if out is None else out], lengths[i],
                    runner_up if r == gone else r))
            return sum(bleus) / len(bleus)

        return mean(None), lambda: [mean(out) for out in order]


def _block_hits(block: list[Sequence[Sequence]]) -> list[list]:
    """`_clipped_hits` of one block of sets."""
    docs = [doc for set_docs in block for doc in set_docs]
    members = len(docs)
    flat = list(itertools.chain.from_iterable(docs))
    hits = np.zeros((members, NGRAM_ORDERS), dtype=np.int64)
    if flat:
        # token ids local to the block: equal tokens, equal ids
        vocab = dict(zip(dict.fromkeys(flat), itertools.count()))
        ids = np.fromiter(map(vocab.__getitem__, flat), np.int64, len(flat))
        lengths = np.fromiter(map(len, docs), np.int64, members)
        member = np.repeat(np.arange(members), lengths)
        # how many tokens each position has left in its document, itself
        # included: a position starts an n-gram iff at least n
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat))
        set_lengths = [sum(map(len, set_docs)) for set_docs in block]
        width = len(vocab)
        # key[p] numbers (set, n-gram at p) below `bound`, and order n + 1
        # extends it by the next token's id. When those numbers could pass
        # the code limit, each order's keys are renumbered densely, below
        # the number of positions
        dense = members * sum(len(block) * width ** n for n in range(
            1, NGRAM_ORDERS + 1)) >= _CODE_LIMIT
        key = np.repeat(np.arange(len(block)) * width, set_lengths) + ids
        bound = len(block) * width
        codes = []
        offsets = [0]
        for n in range(1, NGRAM_ORDERS + 1):
            if n > 1:
                key = key[:-1] * width + ids[n - 1:]
                bound *= width
            if dense:
                distinct, key = np.unique(key, return_inverse=True)
                bound = len(distinct)
            starts = left[:len(key)] >= n
            # one code per occurrence: (order, set, n-gram), then member
            codes.append((key[starts] + offsets[-1]) * members
                         + member[:len(key)][starts])
            offsets.append(offsets[-1] + bound)
        codes = np.sort(np.concatenate(codes))
        first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        counts = np.diff(np.append(first, codes.size))
        gram, owner = np.divmod(codes[first], members)
        # per n-gram: the largest count, and the largest among the others
        # for the member holding it (the largest again on a tie)
        fresh = np.concatenate(([True], gram[1:] != gram[:-1]))
        heads = np.flatnonzero(fresh)
        group = np.cumsum(fresh) - 1
        top = np.maximum.reduceat(counts, heads)
        at_top = counts == top[group]
        runner_up = np.where(
            np.add.reduceat(at_top.astype(np.int64), heads) > 1, top,
            np.maximum.reduceat(np.where(at_top, 0, counts), heads))
        clipped = np.where(at_top, runner_up[group], counts)
        # each order's n-grams are one stretch of the sorted runs; the sums
        # of integers stay exact in float64
        ends = np.searchsorted(gram, offsets)
        for n in range(NGRAM_ORDERS):
            stretch = slice(ends[n], ends[n + 1])
            hits[:, n] = np.bincount(owner[stretch], clipped[stretch], members)
    rows = iter(hits.tolist())
    return [list(itertools.islice(rows, len(set_docs))) for set_docs in block]


def _clipped_hits(sets: Sequence[Sequence[Sequence]]) -> list[list]:
    """For each member of each set of token sequences, and each order n =
    1..NGRAM_ORDERS: the sum over the member's distinct n-grams of min(its
    count, the largest count among the set's other members).

    Every occurrence of every n-gram is packed into one int64 code, ordered
    by (order, set, n-gram) and then member, and one sort of a block's
    codes turns runs into counts. Sets go in blocks of about
    `_BLOCK_WEIGHT` tokens and members, so that the temporaries stay
    bounded. Where plain numbering could pass `_CODE_LIMIT`, n-grams are
    renumbered densely at every order, so codes stay below NGRAM_ORDERS x
    tokens x members and keys below tokens squared: within int64 for any
    block that fits in memory.
    """
    out: list[list] = []
    block: list[Sequence[Sequence]] = []
    weight = 0
    for docs in sets:
        block.append(docs)
        weight += len(docs) + sum(map(len, docs))
        if weight >= _BLOCK_WEIGHT:
            out += _block_hits(block)
            block, weight = [], 0
    if block:
        out += _block_hits(block)
    return out


def self_bleu(docs: Sequence[str | Sequence[str]] | Mapping[object, Sequence]
              ) -> float | dict:
    """Mean BLEU of each document against the rest of the set.

    High values mean the set is homogeneous. Uses uniform
    1..NGRAM_ORDERS-gram weights and no smoothing, so disjoint sets score
    exactly 0 and identical sets exactly 1.

    A document is a text or a token sequence (such as the corpus's cached
    tokens). Given a mapping of key -> set of documents, scores every set
    in one pass and returns key -> score. Clipped counts come from
    `_clipped_hits` and are dropped afterwards: numbering the n-grams of
    every document that reaches a top-TOP_K list in the corpus store costs
    more time and memory than counting them again each phase. The
    diversity filter, which rescores a few documents many times, reads the
    store's counts instead (`_WindowCounts`); both evaluate every score in
    `_bleu_from_clipped`.
    """
    sets = list(docs.values()) if isinstance(docs, Mapping) else [docs]
    token_sets = []
    for members in sets:
        if len(members) < 2:
            raise ValueError("self_bleu needs at least 2 documents")
        token_sets.append([tokenize(d) if isinstance(d, str) else d
                           for d in members])
    means = []
    for tokens, hits in zip(token_sets, _clipped_hits(token_sets)):
        lengths = [len(t) for t in tokens]
        scores = [_bleu_from_clipped(
            hits[i], lengths[i],
            _by_distance(lengths[i], lengths[:i] + lengths[i + 1:])[0][1])
            for i in range(len(tokens))]
        means.append(sum(scores) / len(scores))
    return dict(zip(docs, means)) if isinstance(docs, Mapping) else means[0]


def context_right_num(ranked: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot, contains: dict[str, int]) -> int:
    """How many of the top-TOP_K documents contain a gold answer.
    `contains` memoizes each document's containment, as in
    `first_right_ranks`."""
    needles = _gold_needles(golds)
    return sum(_holds_gold(e.doc_id, needles, corpus, contains)
               for e in ranked.top(TOP_K))


def transitions(em_prev: Mapping, em_next: Mapping) -> tuple[int, int]:
    """Counts of queries flipping incorrect->correct and correct->incorrect."""
    if set(em_prev.keys()) != set(em_next.keys()):
        raise ValueError("transition maps must cover the same queries")
    count_01 = sum(1 for q in em_prev if em_prev[q] == 0 and em_next[q] == 1)
    count_10 = sum(1 for q in em_prev if em_prev[q] == 1 and em_next[q] == 0)
    return count_01, count_10


def first_right_ranks(ranked: RankedList, golds: Sequence[str],
                      corpus: CorpusSnapshot, contains: dict[str, int]
                      ) -> tuple[int | None, int | None]:
    """Rank of the first correct document from any source and from humans.

    Returns None for a slot when no such document is in the list.
    `contains` maps a doc_id to whether it holds one of `golds`, and is
    filled as documents are checked. Neither documents nor a query's
    answers change during a run, so the runner keeps one map per query for
    the whole run and each (query, document) pair is checked once.
    """
    first_any: int | None = None
    first_human: int | None = None
    needles = _gold_needles(golds)
    for entry in ranked.entries:
        if not _holds_gold(entry.doc_id, needles, corpus, contains):
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


def _percent(values: Sequence[int]) -> float | None:
    """100 times the mean of 0/1 values; None when there are none."""
    return 100.0 * sum(values) / len(values) if values else None


def phase_metrics(iteration: int, ranked: Mapping[str, RankedList],
                  scans: Mapping[str, dict], records: Sequence,
                  em_prev: Mapping | None,
                  corpus: CorpusSnapshot) -> IterationMetrics:
    """One phase's validated metrics from its graded `records`. `ranked` and
    `scans` map each query, in query order, to its ranked list and to its
    `first_right_ranks` and `context_right_num` scan; `em_prev` maps
    (query, generator) to the last phase's em, or is None."""
    ranked_lists = list(ranked.values())
    first_any = [s["first_right_any"] for s in scans.values()]
    bleu_values = list(self_bleu({
        rl.query_id: [corpus.tokens(e.doc_id) for e in rl.top(TOP_K)]
        for rl in ranked_lists if len(rl.entries) >= 2}).values())
    by_gen: dict[str, list[int]] = {}
    for rec in records:
        by_gen.setdefault(rec.generator_name, []).append(rec.em)

    t01 = t10 = None
    if em_prev is not None:
        em_now = {(r.query_id, r.generator_name): r.em for r in records}
        common = set(em_prev) & set(em_now)
        if len(common) != len(em_now) or len(common) != len(em_prev):
            logger.warning("transition key sets differ at iteration %d "
                           "(%d vs %d); using the intersection",
                           iteration, len(em_prev), len(em_now))
        t01, t10 = transitions({k: em_prev[k] for k in common},
                               {k: em_now[k] for k in common})

    em_llm_values = [r.em_llm for r in records if r.em_llm is not None]
    pearson_value = None
    if em_llm_values and len(em_llm_values) == len(records):
        try:
            pearson_value = pearson([r.em for r in records], em_llm_values)
        except ValueError:
            pass

    hist = {"em0": [0] * CONTEXT_RIGHT_BINS, "em1": [0] * CONTEXT_RIGHT_BINS}
    for rec in records:
        crn = scans[rec.query_id]["context_right_num"]
        hist["em1" if rec.em == 1 else "em0"][crn] += 1

    any_ranks = [a for a in first_any if a is not None]
    human_ranks = [s["first_right_human"] for s in scans.values()
                   if s["first_right_human"] is not None]
    bundle = IterationMetrics(
        iteration=iteration, acc_at_5=acc_at_k(first_any, TOP_K),
        acc_at_20=acc_at_k(first_any, 20),
        em_mean=_percent([rec.em for rec in records]) or 0.0,
        em_mean_by_generator={name: _percent(v)
                              for name, v in sorted(by_gen.items())},
        dominance_p=dominance_p(ranked_lists, corpus),
        source_share_top50=source_share(ranked_lists, corpus),
        self_bleu_top5=(sum(bleu_values) / len(bleu_values)
                        if bleu_values else 0.0),
        transitions_01=t01, transitions_10=t10,
        em_llm_mean=_percent(em_llm_values), pearson_em_em_llm=pearson_value,
        context_right_hist=hist,
        first_right_summary={
            "mean_any": sum(any_ranks) / len(any_ranks) if any_ranks else None,
            "count_any": len(any_ranks),
            "mean_human": (sum(human_ranks) / len(human_ranks)
                           if human_ranks else None),
            "count_human": len(human_ranks)})
    bundle.validate()
    return bundle
