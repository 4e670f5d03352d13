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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import RemoteServiceError
from .remote import Endpoint, post_json_with_retries

if TYPE_CHECKING:
    from .corpus import Document

BM25_K1 = 1.2
BM25_B = 0.75

# Unicode word characters minus underscore; punctuation splits tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII text `_TOKEN_RE` matches runs of [a-z0-9]: every other ASCII
# character separates tokens.
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not c.isalnum()})

# A BM25 block's dense term-weight rows hold at most this many floats (1 MB),
# whatever the number of questions searched at once.
_BLOCK_ELEMENTS = 1 << 17


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; punctuation dropped, no stemming or stopwords.

    Always `_TOKEN_RE.findall(text.lower())`. When the lowered text is
    ASCII, a translation of every separator to a space and a whitespace
    split find the same tokens faster; other text goes through the regex.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


class RankEntry(NamedTuple):
    doc_id: str
    score: float
    rank: int


# builds a RankEntry from a (doc_id, score, rank) tuple without the
# NamedTuple's Python-level __new__
_new_entry = tuple.__new__


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
        entries = [_new_entry(RankEntry, (doc_id, float(score), rank))
                   for rank, (doc_id, score) in enumerate(pairs, start=1)]
        return cls(query_id=query_id, iteration=iteration, entries=entries)


def _id_rank(doc_ids: list[str]) -> np.ndarray:
    """Each position's rank in ascending doc_id order: the search tie-break."""
    order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    id_rank = np.empty(len(order), dtype=np.int64)
    id_rank[order] = np.arange(len(order))
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


class _DocIds:
    """The doc_id bookkeeping both indexes share: ids in insertion order,
    the set that rejects a second add, and the ranks that break ties."""

    def __init__(self):
        self.doc_ids: list[str] = []
        self._ids: set[str] = set()
        self._id_rank = np.zeros(0, dtype=np.int64)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def _check_new(self, doc_ids: list[str]) -> None:
        fresh: set[str] = set()
        for doc_id in doc_ids:
            if doc_id in self._ids or doc_id in fresh:
                raise ValueError(f"doc_id {doc_id!r} is already indexed or repeated")
            fresh.add(doc_id)

    def _append_ids(self, doc_ids: list[str]) -> None:
        self.doc_ids.extend(doc_ids)
        self._ids.update(doc_ids)
        self._id_rank = _id_rank(self.doc_ids)


class InvertedIndex(_DocIds):
    """BM25 inverted index supporting single-writer incremental additions.

    Built by `add`, read by `search_all`: `add` sets everything a search
    reads (postings, length norms, doc_id ranks) and a search changes
    nothing, so searches may run concurrently with each other, never with
    an `add`.
    Documents are indexed by insertion order; the API speaks doc_id strings.

    `postings` maps each term to two parallel arrays: the int64 indexes of
    the documents that hold it, ascending, and its int32 frequency in each.
    """

    def __init__(self):
        super().__init__()
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.doc_lengths: list[int] = []
        self.total_length = 0
        self._norm = np.zeros(0)

    @property
    def avg_doc_length(self) -> float:
        return self.total_length / self.doc_count if self.doc_count else 0.0

    def add(self, docs: list[Document],
            tokens: Iterable[Sequence[str]] | None = None) -> None:
        """Index `docs`; a rejected batch changes nothing.

        `tokens` yields each document's `tokenize(text)`, in order, for a
        caller that holds them already; without it each text is tokenized
        here, one at a time, and its tokens are dropped once counted.
        """
        ids = [d.doc_id for d in docs]
        self._check_new(ids)
        if tokens is None:
            tokens = (tokenize(d.text) for d in docs)
        # the batch's postings stay compact until one concatenation per term
        batch = defaultdict(lambda: (array("q"), array("i")))
        lengths: list[int] = []
        for idx, doc_tokens in enumerate(tokens, start=self.doc_count):
            lengths.append(len(doc_tokens))
            for term, count in Counter(doc_tokens).items():
                idxs, tfs = batch[term]
                idxs.append(idx)
                tfs.append(count)
        if len(lengths) != len(ids):
            raise ValueError(f"{len(lengths)} token sequences for {len(ids)} documents")
        self.doc_lengths += lengths
        self.total_length += sum(lengths)
        self._append_ids(ids)
        for term, (idxs, tfs) in batch.items():
            new = (np.array(idxs, dtype=np.int64), np.array(tfs, dtype=np.int32))
            old = self.postings.get(term)
            self.postings[term] = new if old is None else (
                np.concatenate((old[0], new[0])), np.concatenate((old[1], new[1])))
        lengths = np.asarray(self.doc_lengths, dtype=np.float64)
        self._norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / self.avg_doc_length)

    def idf(self, term: str) -> float:
        df = len(self.postings[term][0]) if term in self.postings else 0
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def search_all(self, queries: Sequence[str],
                   k: int) -> list[list[tuple[str, float]]]:
        """Each query's top-k (doc_id, BM25 score), in query order, ties
        broken by doc_id ascending. Zero-scoring documents are never
        returned, so fewer than k results are possible.

        Queries are scored in blocks. A block computes each of its distinct
        terms' weights once, as a dense row over all documents, and forms
        each query's scores by adding those rows in the query's term order,
        a repeated term as often as it occurs. Adding 0.0 is exact, so every
        score equals the sum of that term's weights taken in that order. A
        block's rows hold at most `_BLOCK_ELEMENTS` floats, unless one query
        alone needs more.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        # a term that indexes nothing adds nothing
        terms = [[t for t in tokenize(q) if t in self.postings] for q in queries]
        found: list[list[tuple[str, float]]] = []
        rows: dict[str, int] = {}
        block: list[list[str]] = []
        for query_terms in terms:
            fresh = set(query_terms).difference(rows)
            if block and (len(rows) + len(fresh)) * self.doc_count > _BLOCK_ELEMENTS:
                found += self._score_block(block, rows, k)
                rows, block = {}, []
            for term in query_terms:
                rows.setdefault(term, len(rows))
            block.append(query_terms)
        if block:
            found += self._score_block(block, rows, k)
        return found

    def _score_block(self, block: list[list[str]], rows: dict[str, int],
                     k: int) -> list[list[tuple[str, float]]]:
        weights = np.zeros((len(rows), self.doc_count), dtype=np.float64)
        for term, row in rows.items():
            idxs, tfs = self.postings[term]
            weights[row, idxs] = self.idf(term) * tfs / (tfs + self._norm[idxs])
        found = []
        for query_terms in block:
            if not query_terms:
                found.append([])
                continue
            scores = np.zeros(self.doc_count, dtype=np.float64)
            for term in query_terms:
                scores += weights[rows[term]]
            hits = np.flatnonzero(scores)
            top = _top_k(hits, scores[hits], self._id_rank, k)
            found.append(list(zip(map(self.doc_ids.__getitem__, top.tolist()),
                                  scores[top].tolist())))
        return found


def search_bm25(index: InvertedIndex, questions: Mapping[str, str], k: int,
                iteration: int = 0) -> dict[str, RankedList]:
    """Each question's top-k BM25 list, keyed and ordered as `questions`."""
    return {query_id: RankedList.from_ordered(query_id, iteration, pairs)
            for query_id, pairs in zip(questions, index.search_all(
                list(questions.values()), k))}


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


class VectorIndex(_DocIds):
    """Exact brute-force cosine-similarity index.

    Built by `add_vectors`, read by `search_vector`: `add_vectors` writes
    each document's float64 row, in insertion order, into one buffer with
    rows to spare, appends those rows' norms and sets the doc_id ranks. A
    commit writes only its own rows and takes only their norms, so it
    copies no row already indexed. A search is still one `matrix @ query`
    over contiguous rows and each norm its own row's reduction, so every
    score equals that of an index built in one addition.

    `reserve` sizes the buffer, in rows, at the first addition. A commit
    that needs more rows than the buffer holds moves the rows to one half
    as large again, or as large as the commit needs. Size `reserve` to the
    rows the index will hold, not above: from 4 MB numpy asks for huge
    pages, so spare rows there can cost memory before they are written.
    `matrix` is a view of the filled rows: a later addition can leave a
    view taken before it stale. Searches may run concurrently with each
    other, never with an addition, as with InvertedIndex.
    """

    def __init__(self, reserve: int = 0):
        super().__init__()
        self.dim: int | None = None
        self.matrix = np.zeros((0, 0))
        self._norms = np.zeros(0)
        self._reserve = reserve
        self._rows = self.matrix

    def add_vectors(self, items: list[tuple[str, np.ndarray]]) -> None:
        """Index `items`; a rejected batch changes nothing."""
        ids = [doc_id for doc_id, _ in items]
        self._check_new(ids)
        rows = [np.asarray(vec, dtype=np.float64) for _, vec in items]
        # the first vector sets the dimension of an empty index
        dim = rows[0].size if self.dim is None and rows else self.dim
        for doc_id, vec in zip(ids, rows):
            if vec.ndim != 1:
                raise ValueError("embeddings must be 1-d vectors")
            if vec.shape[0] != dim:
                raise ValueError(
                    f"dimension mismatch for {doc_id!r}: got {vec.shape[0]}, "
                    f"index dimension is {dim}")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite embedding for {doc_id!r}")
        if not items:
            return
        self.dim = dim
        start, stop = self.doc_count, self.doc_count + len(rows)
        if stop > len(self._rows):
            grown = np.empty((max(stop, self._reserve, len(self._rows) * 3 // 2),
                              dim), dtype=np.float64)
            if start:
                grown[:start] = self.matrix
            self._rows = grown
        for row, vec in enumerate(rows, start=start):
            self._rows[row] = vec
        self.matrix = self._rows[:stop]
        self._append_ids(ids)
        self._norms = np.concatenate(
            (self._norms, np.linalg.norm(self.matrix[start:], axis=1)))

    def add_documents(self, docs: list[Document], embedder) -> None:
        # an empty commit must not cost a (remote) embeddings request
        vectors = embedder.embed([d.text for d in docs]) if docs else []
        self.add_vectors(list(zip([d.doc_id for d in docs], vectors)))

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
        # a zero query vector makes every denominator 0, so every score 0.0
        denom = self._norms * float(np.linalg.norm(query_vec))
        dots = self.matrix @ query_vec
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        top = _top_k(np.arange(self.doc_count), sims, self._id_rank, k)
        return [(self.doc_ids[i], float(sims[i])) for i in top]


def search_dense(vindex: VectorIndex, query_vecs: Mapping[str, np.ndarray],
                 k: int, iteration: int = 0) -> dict[str, RankedList]:
    """Each question's top-k by exact cosine similarity to its stored
    embedding, keyed and ordered as `query_vecs`. Each question is one
    matrix-vector product: a matrix product over all of them would round
    differently."""
    return {query_id: RankedList.from_ordered(
                query_id, iteration, vindex.search_vector(vec, k))
            for query_id, vec in query_vecs.items()}
