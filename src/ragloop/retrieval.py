"""Retrieval backends: an incrementally updatable BM25 index and an exact
brute-force dense index.

Scoring constants are pinned (k1=1.2, b=0.75, log1p IDF) so that ranked
lists are exactly reproducible; incremental additions yield bit-identical
results to a full rebuild over the same documents.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import RemoteServiceError
from .remote import Endpoint, post_json_with_retries

if TYPE_CHECKING:
    from .corpus import Document

BM25_K1 = 1.2
BM25_B = 0.75

# Unicode word characters minus underscore; punctuation splits tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; punctuation dropped, no stemming or stopwords."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class RankEntry:
    doc_id: str
    score: float
    rank: int


@dataclass
class RankedList:
    """Ordered retrieval result for one query at one iteration."""

    query_id: str
    iteration: int
    entries: list[RankEntry] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def top(self, k: int) -> list[RankEntry]:
        return self.entries[:k]

    @classmethod
    def from_ordered(cls, query_id: str, iteration: int,
                     pairs: list[tuple[str, float]]) -> "RankedList":
        entries = [RankEntry(doc_id, float(score), rank)
                   for rank, (doc_id, score) in enumerate(pairs, start=1)]
        return cls(query_id=query_id, iteration=iteration, entries=entries)

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "iteration": self.iteration,
            "entries": [[e.doc_id, e.score, e.rank] for e in self.entries],
        }


def _id_rank(doc_ids: list[str]) -> np.ndarray:
    """Each position's rank in ascending doc_id order: the search tie-break."""
    order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    id_rank = np.empty(len(order), dtype=np.int64)
    for rank, idx in enumerate(order):
        id_rank[idx] = rank
    return id_rank


def _top_k(idxs: np.ndarray, scores: np.ndarray, id_rank: np.ndarray,
           k: int) -> np.ndarray:
    """The k best of `idxs` by descending score, ties by doc_id ascending.

    `scores` is aligned with `idxs`. Only candidates that score at least
    the k-th best are sorted; every tie at that cut survives, so the order
    is exactly that of a full sort.
    """
    neg = -scores
    if neg.size > k:
        cut = np.partition(neg, k - 1)[k - 1]
        # NaN sorts last in both sorts, so a NaN cut means fewer than k
        # numbers: keep them all
        if not np.isnan(cut):
            keep = neg <= cut
            idxs, neg = idxs[keep], neg[keep]
    order = np.lexsort((id_rank[idxs], neg))
    return idxs[order[:k]]


class InvertedIndex:
    """BM25 inverted index supporting single-writer incremental additions.

    Documents are indexed by insertion order; the public interface speaks
    doc_id strings. Searches may run concurrently between additions: the
    caches they fill lazily are derived from data no search changes, and
    each is published by a single assignment.

    `postings` maps each term to two parallel `array("i")`: the indexes of
    the documents that hold it, ascending, and its frequency in each; 8
    bytes a posting. Numpy reads them through a copy, never a view: a view
    exports the array's buffer, and while one lives `add` cannot append.
    """

    def __init__(self):
        self.postings: dict[str, tuple[array, array]] = {}
        self.doc_ids: list[str] = []
        self._idx_of: dict[str, int] = {}
        self.doc_lengths: list[int] = []
        self.total_length = 0
        # caches rebuilt lazily after each mutation
        self._postings_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._caches: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def avg_doc_length(self) -> float:
        return self.total_length / self.doc_count if self.doc_count else 0.0

    def add(self, docs: list[Document]) -> None:
        for doc in docs:
            if doc.doc_id in self._idx_of:
                raise ValueError(f"doc_id {doc.doc_id!r} already indexed")
        for doc in docs:
            idx = len(self.doc_ids)
            self._idx_of[doc.doc_id] = idx
            self.doc_ids.append(doc.doc_id)
            tokens = tokenize(doc.text)
            self.doc_lengths.append(len(tokens))
            self.total_length += len(tokens)
            tf: dict[str, int] = {}
            for t in tokens:
                tf[t] = tf.get(t, 0) + 1
            for term, count in tf.items():
                plist = self.postings.get(term)
                if plist is None:
                    plist = self.postings[term] = (array("i"), array("i"))
                plist[0].append(idx)
                plist[1].append(count)
        if docs:
            self._postings_arrays.clear()
            self._caches = None

    def _ensure_caches(self) -> tuple[np.ndarray, np.ndarray]:
        """(BM25 length normalisation, doc_id ranks), published together."""
        caches = self._caches
        if caches is None:
            lengths = np.asarray(self.doc_lengths, dtype=np.float64)
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / self.avg_doc_length)
            caches = (norm, _id_rank(self.doc_ids))
            self._caches = caches
        return caches

    def _term_arrays(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        cached = self._postings_arrays.get(term)
        if cached is not None:
            return cached
        plist = self.postings.get(term)
        if plist is None:
            return None
        # astype copies, so no view of the arrays' buffers outlives this line
        idxs = np.frombuffer(plist[0], dtype=np.intc).astype(np.int64)
        tfs = np.frombuffer(plist[1], dtype=np.intc).astype(np.float64)
        self._postings_arrays[term] = (idxs, tfs)
        return idxs, tfs

    def idf(self, term: str) -> float:
        plist = self.postings.get(term)
        df = len(plist[0]) if plist is not None else 0
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        """Top-k (doc_id, BM25 score), ties broken by doc_id ascending.

        Zero-scoring documents are never returned, so fewer than k results
        are possible.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        terms = tokenize(query)
        if not terms or not self.doc_count:
            return []
        norm, id_rank = self._ensure_caches()
        scores = np.zeros(self.doc_count, dtype=np.float64)
        matched = np.zeros(self.doc_count, dtype=bool)
        for term in terms:
            arrs = self._term_arrays(term)
            if arrs is None:
                continue
            idxs, tfs = arrs
            idf = self.idf(term)
            scores[idxs] += idf * tfs / (tfs + norm[idxs])
            matched[idxs] = True
        hit_idxs = np.nonzero(matched)[0]
        if hit_idxs.size == 0:
            return []
        top = _top_k(hit_idxs, scores[hit_idxs], id_rank, k)
        return [(self.doc_ids[i], float(scores[i])) for i in top]


def search_bm25(index: InvertedIndex, query: str, k: int,
                query_id: str = "", iteration: int = 0) -> RankedList:
    return RankedList.from_ordered(query_id, iteration, index.search(query, k))


class HashedEmbedder:
    """Offline embedding stub: hashed bag-of-words with seeded signs.

    Each token hashes to one of `dim` buckets with a +/-1 sign; the count
    vector is L2-normalized. Deterministic for a given seed, so dense
    pipelines run with no network.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        self.dim = dim
        self.seed = seed
        # token -> (bucket, sign), derived once per token from its digest;
        # threads that race on a new token store the same value
        self._slots: dict[str, tuple[int, float]] = {}

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        return [self._embed_one(t) for t in texts]

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(f"{self.seed}:{token}".encode("utf-8")).digest()
        slot = (int.from_bytes(digest[:8], "big") % self.dim,
                1.0 if digest[8] & 1 else -1.0)
        self._slots[token] = slot
        return slot

    def _embed_one(self, text: str) -> np.ndarray:
        # sums of +/-1.0 are exact, so a list accumulates the same values
        acc = [0.0] * self.dim
        slots = self._slots
        for token in tokenize(text):
            bucket, sign = slots.get(token) or self._slot(token)
            acc[bucket] += sign
        vec = np.array(acc, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class RemoteEmbeddingClient:
    """Client for an embeddings HTTP endpoint.

    POST {"model": ..., "input": [texts]} and expects the conventional
    {"data": [{"embedding": [...]}, ...]} reply.
    """

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        payload = {"model": self.endpoint.model, "input": list(texts)}
        reply = post_json_with_retries(self.endpoint, payload)
        try:
            rows = reply["data"]
            vectors = [np.asarray(row["embedding"], dtype=np.float64) for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteServiceError(
                f"malformed embeddings reply from {self.endpoint.url}: {exc}") from exc
        for vec in vectors:
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise RemoteServiceError(
                    f"malformed embeddings reply from {self.endpoint.url}: "
                    "every embedding must be a 1-d vector of finite numbers")
        if len(vectors) != len(texts):
            raise RemoteServiceError(
                f"embeddings reply has {len(vectors)} rows for {len(texts)} inputs")
        return vectors


class VectorIndex:
    """Exact brute-force cosine-similarity index.

    Searches may run concurrently between additions, as with
    InvertedIndex.
    """

    def __init__(self):
        self.dim: int | None = None
        self.doc_ids: list[str] = []
        self._idx_of: dict[str, int] = {}
        self._vectors: list[np.ndarray] = []
        # (matrix, row norms, doc_id ranks), rebuilt lazily after each mutation
        self._caches: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def add_vectors(self, items: list[tuple[str, np.ndarray]]) -> None:
        for doc_id, vec in items:
            if doc_id in self._idx_of:
                raise ValueError(f"doc_id {doc_id!r} already indexed")
            vec = np.asarray(vec, dtype=np.float64)
            if vec.ndim != 1:
                raise ValueError("embeddings must be 1-d vectors")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite embedding for {doc_id!r}")
            if self.dim is None:
                self.dim = int(vec.shape[0])
            elif vec.shape[0] != self.dim:
                raise ValueError(
                    f"dimension mismatch for {doc_id!r}: got {vec.shape[0]}, "
                    f"index dimension is {self.dim}")
            self._idx_of[doc_id] = len(self.doc_ids)
            self.doc_ids.append(doc_id)
            self._vectors.append(vec)
        if items:
            self._caches = None

    def add_documents(self, docs: list[Document], embedder) -> None:
        # an empty commit must not cost a (remote) embeddings request
        vectors = embedder.embed([d.text for d in docs]) if docs else []
        self.add_vectors(list(zip([d.doc_id for d in docs], vectors)))

    def _ensure_caches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(matrix, row norms, doc_id ranks), published together: a search
        that sees the matrix also sees its norms."""
        caches = self._caches
        if caches is None:
            matrix = np.vstack(self._vectors) if self._vectors else \
                np.zeros((0, self.dim or 0))
            caches = (matrix, np.linalg.norm(matrix, axis=1),
                      _id_rank(self.doc_ids))
            self._caches = caches
        return caches

    def search_vector(self, query_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.doc_count:
            return []
        query_vec = np.asarray(query_vec, dtype=np.float64)
        if query_vec.shape != (self.dim,):
            raise ValueError(
                f"query dimension {query_vec.shape} does not match index ({self.dim},)")
        if not np.all(np.isfinite(query_vec)):
            raise ValueError("non-finite query embedding")
        matrix, norms, id_rank = self._ensure_caches()
        # a zero query vector makes every denominator 0, so every score 0.0
        denom = norms * float(np.linalg.norm(query_vec))
        dots = matrix @ query_vec
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        top = _top_k(np.arange(self.doc_count), sims, id_rank, k)
        return [(self.doc_ids[i], float(sims[i])) for i in top]


def search_dense(vindex: VectorIndex, query: str, k: int, embedder,
                 query_id: str = "", iteration: int = 0) -> RankedList:
    """Top-k by exact cosine similarity using the given embedding client."""
    query_vec = embedder.embed([query])[0]
    return RankedList.from_ordered(query_id, iteration,
                                   vindex.search_vector(query_vec, k))
