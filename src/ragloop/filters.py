"""Context-selection filters applied to retrieval results.

Two mitigation strategies: keep only documents a detector labels as
human-written, or greedily rebuild the context set until its n-gram
self-similarity drops under a threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusSnapshot
from .errors import RemoteServiceError
from .generation import CONTEXT_SIZE, DEFAULT_STYLE_MARKER
from .metrics import NgramProfile, _bleu_from_clipped, ngram_profile
# the filter scores its windows without calling self_bleu; the name stays
# here because the benchmark's tracer counts calls made through it
from .metrics import self_bleu  # noqa: F401
from .remote import Endpoint, post_json_with_retries
from .retrieval import RankEntry, RankedList

logger = logging.getLogger(__name__)

DIVERSITY_THRESHOLD = 0.4


class MarkerStubDetector:
    """Offline classifier: a document is generated iff it carries the
    synthetic style marker."""

    def __init__(self, marker: str = DEFAULT_STYLE_MARKER):
        self.marker = marker.lower()

    def classify(self, texts: list[str]) -> list[bool]:
        """True = generated, False = human."""
        return [self.marker in t.lower() for t in texts]


class RemoteDetectorClient:
    """Client for an AIGC-detection endpoint.

    POST {"texts": [...]} and expects {"results": [{"label": ...,
    "score": ...}, ...]}; a document counts as generated when the implied
    probability of machine origin reaches 0.5.
    """

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint

    def classify(self, texts: list[str]) -> list[bool]:
        payload: dict = {"texts": list(texts)}
        if self.endpoint.model:
            payload["model"] = self.endpoint.model
        reply = post_json_with_retries(self.endpoint, payload)
        if isinstance(reply, dict):
            reply = reply.get("results")
        if not isinstance(reply, list) or len(reply) != len(texts):
            raise RemoteServiceError(
                f"malformed detector reply from {self.endpoint.url}")
        labels: list[bool] = []
        for row in reply:
            label = str(row.get("label", "")).lower()
            score = float(row.get("score", 1.0))
            p_generated = score if label == "generated" else 1.0 - score
            labels.append(p_generated >= 0.5)
        return labels


@dataclass
class FilterResult:
    """Documents chosen as generation contexts, with outcome flags."""

    entries: list[RankEntry]
    shortfall: bool = False
    exhausted: bool = False
    fallback_unfiltered: bool = False
    removals: int = 0

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def flags(self) -> dict[str, bool]:
        return {"shortfall": self.shortfall, "exhausted": self.exhausted,
                "fallback_unfiltered": self.fallback_unfiltered}


def source_filter(candidates: RankedList, detector,
                  corpus: CorpusSnapshot) -> FilterResult:
    """Scan candidates in rank order and keep the first CONTEXT_SIZE
    documents the detector labels human.

    If the whole candidate list yields fewer, all found are returned with
    the shortfall flag. Detector failure falls back to the unfiltered top
    CONTEXT_SIZE with a logged flag.
    """
    entries = candidates.entries
    if not entries:
        return FilterResult(entries=[], shortfall=True)
    try:
        generated = detector.classify([corpus.get_text(e.doc_id) for e in entries])
    except RemoteServiceError as exc:
        logger.warning("detector failed for query %r (%s); falling back to "
                       "unfiltered top-%d", candidates.query_id, exc, CONTEXT_SIZE)
        return FilterResult(entries=list(entries[:CONTEXT_SIZE]),
                            fallback_unfiltered=True)
    kept: list[RankEntry] = []
    for entry, is_generated in zip(entries, generated):
        if is_generated:
            continue
        kept.append(entry)
        if len(kept) == CONTEXT_SIZE:
            break
    return FilterResult(entries=kept, shortfall=len(kept) < CONTEXT_SIZE)


class _WindowCounts:
    """Each 1..max_n-gram's count in every slot of the working window.

    `counts[slot, g]` is the count of n-gram g in the document in that
    slot. N-grams are numbered from 1 as first met in the call; number 0
    counts nothing. A joining document takes the slot of the one leaving,
    so a swap rewrites only those two documents' counts.

    `own[slot]` lists the slot document's distinct n-grams, order by
    order, each order after a column for n-gram 0: their numbers and their
    counts in the document. `starts[slot]` holds where each order's
    stretch begins, so every stretch is non-empty and one `reduceat`
    sums them all.
    """

    def __init__(self, profiles: list[NgramProfile]):
        self.size = len(profiles)
        self.max_n = len(profiles[0].counts)
        self.ids: dict = {}
        self.counts = np.zeros((self.size, 1), dtype=np.int32)
        self.lengths = [0] * self.size
        self.own = [np.zeros((2, 0), dtype=np.int64)] * self.size
        self.starts = [[]] * self.size
        for slot, profile in enumerate(profiles):
            self.place(slot, profile)

    def place(self, slot: int, profile: NgramProfile) -> None:
        """Put `profile`'s document in `slot`, in place of the one there."""
        self.counts[slot, self.own[slot][0]] = 0
        ids = self.ids
        numbers: list[int] = []
        hits: list[int] = []
        starts: list[int] = []
        for counter in profile.counts:
            starts.append(len(numbers))
            numbers.append(0)
            numbers += [ids.setdefault(g, len(ids) + 1) for g in counter]
            hits.append(0)
            hits += counter.values()
        width = self.counts.shape[1]
        if len(ids) >= width:
            grown = np.zeros((self.size, max(len(ids) + 1, 2 * width)),
                             dtype=np.int32)
            grown[:, :width] = self.counts
            self.counts = grown
        own = np.array([numbers, hits], dtype=np.int64)
        self.counts[slot, own[0]] = own[1]
        self.own[slot] = own
        self.starts[slot] = starts
        self.lengths[slot] = profile.length

    def clipped(self) -> list:
        """`clipped[i][j][n - 1]`: slot i's n-gram count clipped against
        the window without slots i and j (j == i: without i alone)."""
        numbers, hits = np.concatenate(self.own, axis=1)
        others = np.take(self.counts, numbers, axis=1)
        starts = []
        offset = 0
        for slot in range(self.size):
            starts += [offset + start for start in self.starts[slot]]
            width = self.own[slot].shape[1]
            others[slot, offset:offset + width] = 0
            offset += width
        # refs[j] is the largest count over every other slot but j
        before = others.copy()
        after = others.copy()
        for k in range(1, self.size - 1):
            np.maximum(before[k - 1], before[k], out=before[k])
            np.maximum(after[-k], after[-k - 1], out=after[-k - 1])
        refs = np.empty_like(others)
        refs[0] = after[1]
        refs[-1] = before[-2]
        np.maximum(before[:-2], after[2:], out=refs[1:-1])
        sums = np.add.reduceat(np.minimum(hits, refs), starts, axis=1)
        return sums.reshape(self.size, self.size, self.max_n).transpose(
            1, 0, 2).tolist()

    def score(self, members: list[int], clipped: list,
              left_out: int | None = None) -> float:
        """Self-BLEU of the documents in slots `members`, in that order,
        with slot `left_out` (if any) already out of the window."""
        lengths = self.lengths
        scores = [_bleu_from_clipped(
            clipped[i][i if left_out is None else left_out], lengths[i],
            [lengths[k] for k in members if k != i], self.max_n)
            for i in members]
        return sum(scores) / len(scores)


def diversity_filter(candidates: RankedList, corpus: CorpusSnapshot,
                     threshold: float = DIVERSITY_THRESHOLD) -> FilterResult:
    """Greedy self-similarity reduction over the top-CONTEXT_SIZE candidates.

    While the working set scores above the threshold and unused candidates
    remain: score every leave-one-out subset, drop the document whose
    removal helps most (ties drop the worst-ranked), and pull in the next
    candidate. Stops at the first conforming set, or flags exhaustion.

    The window's n-gram counts sit in one table per call, one column of
    counts per slot (`_WindowCounts`); a joining document takes the
    leaving one's slot, so a swap rewrites only those two documents'
    counts. Each round makes one pass over the window's n-grams that
    clips every document against the rest, and against the rest without
    each other document in turn: the set's score and all its leave-one-out
    scores. The clipped counts are the integers `self_bleu` would compute
    and are scored by the same `_bleu_from_clipped`, so every score is
    bit-equal to rescoring each subset from scratch.
    """
    entries = candidates.entries
    if len(entries) < CONTEXT_SIZE:
        return FilterResult(entries=list(entries), shortfall=True)
    working = list(entries[:CONTEXT_SIZE])
    window = _WindowCounts([ngram_profile(corpus.tokens(e.doc_id))
                            for e in working])
    slot_of = list(range(CONTEXT_SIZE))  # working[pos] sits in slot_of[pos]
    next_idx = CONTEXT_SIZE
    removals = 0
    clipped = window.clipped()
    while window.score(slot_of, clipped) > threshold:
        if next_idx >= len(entries):
            return FilterResult(entries=working, exhausted=True,
                                removals=removals)
        best_drop = None
        best_score = None
        for pos, slot in enumerate(slot_of):
            score = window.score(slot_of[:pos] + slot_of[pos + 1:], clipped,
                                 left_out=slot)
            # ties prefer dropping the worst original rank
            if (best_score is None or score < best_score
                    or (score == best_score
                        and working[pos].rank > working[best_drop].rank)):
                best_score = score
                best_drop = pos
        working.pop(best_drop)
        slot = slot_of.pop(best_drop)
        entry = entries[next_idx]
        working.append(entry)
        slot_of.append(slot)
        window.place(slot, ngram_profile(corpus.tokens(entry.doc_id)))
        clipped = window.clipped()
        next_idx += 1
        removals += 1
    return FilterResult(entries=working, removals=removals)
