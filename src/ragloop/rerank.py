"""Second-stage reordering of retrieval candidates.

Two backends: a remote cross-encoder scoring service, and a deterministic
lexical-overlap baseline so the rerank path is exercisable offline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusSnapshot
from .errors import RemoteServiceError
from .remote import Endpoint, finite_scores, post_json_with_retries
from .retrieval import RankedList, RankEntry, tokenize

logger = logging.getLogger(__name__)

FAILURE_ABORT = "abort-iteration"
FAILURE_PASS_THROUGH = "pass-through-unranked"


class LexicalOverlapBackend:
    """Scores a passage by the fraction of query terms it covers.

    A passage is a text or its tokens; `rerank` passes the corpus's cached
    tokens.
    """

    reads_tokens = True

    def score(self, query: str,
              passages: list[str] | list[Sequence[str]]) -> list[float]:
        query_terms = set(tokenize(query))
        if not query_terms:
            return [0.0 for _ in passages]
        scores = []
        for passage in passages:
            terms = tokenize(passage) if isinstance(passage, str) else passage
            scores.append(len(query_terms.intersection(terms)) / len(query_terms))
        return scores


class RemoteScorerBackend:
    """Client for a cross-encoder scoring endpoint.

    POST {"query": ..., "passages": [...]} and expects either a bare JSON
    array of floats or {"scores": [...]}. A score that is not a finite
    number raises RemoteServiceError, as a failed request does.
    """

    reads_tokens = False

    def __init__(self, endpoint: Endpoint, batch_size: int = 32):
        self.endpoint = endpoint
        self.batch_size = batch_size

    def score(self, query: str, passages: list[str]) -> list[float]:
        scores: list[float] = []
        for start in range(0, len(passages), self.batch_size):
            batch = passages[start:start + self.batch_size]
            payload = {"query": query, "passages": batch}
            if self.endpoint.model:
                payload["model"] = self.endpoint.model
            reply = post_json_with_retries(self.endpoint, payload)
            if isinstance(reply, dict):
                reply = reply.get("scores")
            if not isinstance(reply, list) or len(reply) != len(batch):
                raise RemoteServiceError(
                    f"malformed scorer reply from {self.endpoint.url}")
            scores.extend(finite_scores(reply, self.endpoint.url))
        return scores


@dataclass
class RerankOutcome:
    ranked: RankedList
    passed_through: bool = False


def rerank(backend, query: str, candidates: RankedList, depth: int,
           corpus: CorpusSnapshot, scores: dict[str, float],
           failure_policy: str = FAILURE_ABORT) -> RerankOutcome:
    """Reorder the first `depth` candidates by backend score, descending.

    Each passage is read from `corpus`: its cached tokens for a backend
    that `reads_tokens`, its text otherwise. `scores` maps doc_id to the
    backend's score for this query from earlier calls: only the head's
    documents it lacks are sent to the backend, in head order, and their
    scores are stored in it. Equal scores keep their original relative
    order; candidates beyond `depth` are appended untouched. Ranks are
    renumbered consecutively.
    On remote failure nothing is stored, and the configured policy either
    re-raises or passes the input through unchanged (flagged in the
    outcome).
    """
    if depth < 1:
        raise ValueError("rerank depth must be >= 1")
    head = candidates.entries[:depth]
    tail = candidates.entries[depth:]
    missing = [e.doc_id for e in head if e.doc_id not in scores]
    passage = corpus.tokens if backend.reads_tokens else corpus.get_text
    try:
        fresh = backend.score(query, [passage(d) for d in missing]) \
            if missing else []
    except RemoteServiceError:
        if failure_policy == FAILURE_PASS_THROUGH:
            logger.warning("rerank backend failed for query %r; passing "
                           "candidates through unranked", candidates.query_id)
            return RerankOutcome(ranked=candidates, passed_through=True)
        raise
    scores.update(zip(missing, fresh))
    head_scores = [scores[e.doc_id] for e in head]
    order = sorted(range(len(head)), key=lambda i: (-head_scores[i], i))
    reordered = [head[i] for i in order] + tail
    entries = [RankEntry(e.doc_id, (head_scores[order[pos]] if pos < len(head)
                                    else e.score), pos + 1)
               for pos, e in enumerate(reordered)]
    # scores for the untouched tail keep their retrieval values; the head
    # carries backend scores, so cross-section score comparison is not
    # meaningful and the list is ordered by construction.
    ranked = RankedList(query_id=candidates.query_id,
                        iteration=candidates.iteration, entries=entries)
    return RerankOutcome(ranked=ranked)
