"""The run's corpus: one append-only document store with provenance.

The corpus grows once per simulation iteration, when that iteration's
generated documents are appended in place. A document never changes or
leaves once committed.
"""

from __future__ import annotations

import json
import logging
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import retrieval
from .errors import CorpusFormatError, DuplicateDocumentError

HUMAN = "human"
GENERATED = "generated"

TITLE_TEXT_SEPARATOR = "\n"

logger = logging.getLogger(__name__)

# `CorpusSnapshot.ngrams` numbers a document's 1- to NGRAM_ORDERS-grams
NGRAM_ORDERS = 3
# An n-gram's key packs its tokens' ids, each below this radix, so a 3-gram
# key stays below 2**63; ids count from 1, so keys of different orders
# never meet.
_TOKEN_ID_LIMIT = 1 << 21
# A document's (number, count) pairs; a count past int16 widens that
# document's counts to int32.
NGRAM_DTYPE = np.dtype([("number", np.int32), ("count", np.int16)])
_WIDE_NGRAM_DTYPE = np.dtype([("number", np.int32), ("count", np.int32)])


@dataclass(frozen=True)
class SourceTag:
    """Provenance of a document: human-authored or from a named generator."""

    kind: str
    generator_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (HUMAN, GENERATED):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == GENERATED and not self.generator_name:
            raise ValueError("generated source requires a generator_name")
        if self.kind == GENERATED and self.generator_name == HUMAN:
            raise ValueError("generator_name 'human' is reserved for human sources")
        if self.kind == HUMAN and self.generator_name is not None:
            raise ValueError("human source must not carry a generator_name")

    @property
    def label(self) -> str:
        """Display/aggregation key: 'human' or the generator name."""
        return self.generator_name if self.kind == GENERATED else HUMAN


HUMAN_SOURCE = SourceTag(kind=HUMAN)


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    source: SourceTag
    origin_query_id: str | None = None
    iteration_added: int = 0

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"document {self.doc_id!r} has empty text")
        if self.iteration_added < 0:
            raise ValueError("iteration_added must be >= 0")
        is_human = self.source.kind == HUMAN
        if is_human and (self.iteration_added != 0 or self.origin_query_id is not None):
            raise ValueError(
                f"human document {self.doc_id!r} must have iteration_added=0 "
                "and no origin_query_id"
            )
        if not is_human and (self.iteration_added == 0 or self.origin_query_id is None):
            raise ValueError(
                f"generated document {self.doc_id!r} needs origin_query_id "
                "and iteration_added >= 1"
            )


def generated_doc_id(generator_name: str, iteration: int, query_id: str) -> str:
    """Id scheme for generated documents; provenance is recoverable from it."""
    return f"{generator_name}-it{iteration}-{query_id}"


class CorpusSnapshot:
    """Append-only store of the run's documents, in commit order; `extend`
    is the one way in, for the seed corpus and for every commit.

    Documents never change after commit, so what is derived from their
    text is derived once. `_tokens` maps a document's id to
    `tokenize(text)` as a tuple of tokens interned through `_vocab`, so
    that equal tokens across documents are one str object. A commit that
    tokenized its documents already hands their tokens to `extend`; any
    other document's tokens are filled on first read. Rerank, the metrics,
    the diversity filter and the synthetic generator, which echoes the head
    of a request's first kept context, read them here.

    `_ngrams` maps a document's id to its distinct 1- to NGRAM_ORDERS-grams
    and their counts, numbered when the diversity filter first reads the
    document, so a run without that filter numbers nothing. One numbering
    serves the whole run: an n-gram's key packs its tokens' `_token_ids`
    into one int64, and `_gram_numbers[i]` is the number of key
    `_gram_keys[i]`, the keys kept sorted; numbers count from 1, and key 0
    keeps number 0 for no n-gram. Sorted arrays hold the numbering in 12
    bytes an n-gram, where a dict of ints takes about 90. Numbers depend on
    the order in which documents are first read, which threads and resumes
    change, and no output depends on them. Self-BLEU of the top-5 sets
    counts its n-grams per call instead (`metrics.self_bleu`).
    """

    __slots__ = ("_docs", "_index_of", "_tokens", "_vocab", "_ngrams",
                 "_gram_keys", "_gram_numbers", "_token_ids", "_numbering")

    def __init__(self, docs: Iterable[Document]):
        self._docs: list[Document] = []
        self._index_of: dict[str, int] = {}
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._vocab: dict[str, str] = {}
        self._ngrams: dict[str, np.ndarray] = {}
        # key 0 stands for no n-gram and keeps number 0
        self._gram_keys = np.zeros(1, dtype=np.int64)
        self._gram_numbers = np.zeros(1, dtype=np.int32)
        self._token_ids: dict[str, int] = {}
        self._numbering = threading.Lock()
        self.extend(docs)

    def extend(self, docs: Iterable[Document],
               tokens: Iterable[tuple[str, ...]] | None = None) -> None:
        """Append `docs` in order, with each one's `intern`ed tokens when
        `tokens` yields them. An id already present or repeated within
        `docs` is rejected before the first append, so a rejected batch
        changes nothing."""
        docs = list(docs)
        index_of: dict[str, int] = {}
        for pos, doc in enumerate(docs, start=len(self._docs)):
            if doc.doc_id in self._index_of or index_of.setdefault(doc.doc_id, pos) != pos:
                raise DuplicateDocumentError(doc.doc_id)
        if tokens is not None:
            tokens = list(tokens)
            if len(tokens) != len(docs):
                raise ValueError(f"{len(tokens)} token tuples for {len(docs)} documents")
            self._tokens.update(zip(index_of, tokens))
        self._index_of.update(index_of)
        self._docs += docs

    def intern(self, tokens: Iterable[str]) -> tuple[str, ...]:
        """`tokens` as a tuple of the store's one copy of each token. Safe
        with concurrent callers: `setdefault` interns each token once."""
        intern = self._vocab.setdefault
        return tuple([intern(t, t) for t in tokens])

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index_of

    def get(self, doc_id: str) -> Document:
        return self._docs[self._index_of[doc_id]]

    def tokens(self, doc_id: str) -> tuple[str, ...]:
        """`tokenize` of the document's text, computed once per store.
        Raises KeyError for an unknown id, as `get`. Safe with concurrent
        readers: threads that race on a document store equal tuples, and
        `setdefault` interns each token exactly once."""
        toks = self._tokens.get(doc_id)
        if toks is None:
            toks = self.intern(retrieval.tokenize(self.get(doc_id).text))
            self._tokens[doc_id] = toks
        return toks

    def ngrams(self, doc_id: str) -> np.ndarray:
        """The document's distinct 1- to NGRAM_ORDERS-grams as one
        NGRAM_DTYPE array of (number, count) pairs, order by order, each
        order after a (0, 0) pair; built once per store. Safe with
        concurrent readers: numbers are given out under a lock, so two
        n-grams never share one."""
        grams = self._ngrams.get(doc_id)
        if grams is None:
            tokens = self.tokens(doc_id)
            with self._numbering:
                grams = self._ngrams.get(doc_id)
                if grams is None:
                    grams = self._ngrams[doc_id] = self._number(tokens)
        return grams

    def ngram_bound(self) -> int:
        """One more than the largest n-gram number given out so far."""
        return self._gram_keys.size

    def _number(self, tokens: tuple[str, ...]) -> np.ndarray:
        """`ngrams` of a document of `tokens`, numbering its new n-grams.
        Called under the numbering lock."""
        token_ids = self._token_ids
        ids = [token_ids.setdefault(t, len(token_ids) + 1) for t in tokens]
        if len(token_ids) >= _TOKEN_ID_LIMIT:
            raise OverflowError(f"n-gram keys hold fewer than {_TOKEN_ID_LIMIT} "
                                "distinct tokens in the documents filtered")
        keys, counts = [], []
        order_keys = ids
        for n in range(NGRAM_ORDERS):
            if n:
                order_keys = [key * _TOKEN_ID_LIMIT + t
                              for key, t in zip(order_keys, ids[n:])]
            counter = Counter(order_keys)
            keys.append(0)
            keys += counter
            counts.append(0)
            counts += counter.values()
        keys = np.array(keys, dtype=np.int64)
        known = self._gram_keys
        new = keys[known.take(np.searchsorted(known, keys), mode="clip") != keys]
        if new.size:
            new.sort()
            at = np.searchsorted(known, new)
            self._gram_numbers = np.insert(self._gram_numbers, at, np.arange(
                known.size, known.size + new.size, dtype=np.int32))
            self._gram_keys = np.insert(known, at, new)
        dtype = NGRAM_DTYPE
        if max(counts) > np.iinfo(np.int16).max:
            logger.warning("an n-gram repeats more than %d times in one "
                           "document; its counts are kept as int32",
                           np.iinfo(np.int16).max)
            dtype = _WIDE_NGRAM_DTYPE
        grams = np.empty(keys.size, dtype=dtype)
        grams["number"] = self._gram_numbers[np.searchsorted(self._gram_keys, keys)]
        grams["count"] = counts
        return grams

    def get_text(self, doc_id: str) -> str:
        return self.get(doc_id).text

    def source_of(self, doc_id: str) -> SourceTag:
        return self.get(doc_id).source

    def iter_documents(self) -> Iterator[Document]:
        return iter(self._docs)


def record_id(value) -> str | None:
    """An id or answer read from a JSON record as text: a string as it is,
    an integer in decimal; None for any other type, bools included."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        return None
    return str(value)


def read_records(path: Path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) of each non-blank line of a JSON-lines
    file. A line that is not JSON raises CorpusFormatError at its number."""
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON record: {exc.msg}",
                                        path=str(path), line_no=line_no) from exc
            yield line_no, value


def ingest_seed_corpus(path: str | Path) -> CorpusSnapshot:
    """Load the seed corpus from a line-delimited record file.

    Each line is a JSON object with doc_id, text, and an optional title;
    the title is prepended to the text. All seed documents are human.
    """
    path = Path(path)
    docs: list[Document] = []
    lines: list[int] = []
    for line_no, rec in read_records(path):
        if not isinstance(rec, dict) or "doc_id" not in rec or "text" not in rec:
            raise CorpusFormatError("record must carry doc_id and text",
                                    path=str(path), line_no=line_no)
        doc_id, text, title = record_id(rec["doc_id"]), rec["text"], rec.get("title")
        if doc_id is None or not isinstance(text, str) or \
                not isinstance(title, (str, type(None))):
            raise CorpusFormatError("text must be a string, and title a string or "
                                    "absent; doc_id a string or an integer",
                                    path=str(path), line_no=line_no)
        if title:
            text = f"{title}{TITLE_TEXT_SEPARATOR}{text}"
        try:
            docs.append(Document(doc_id=doc_id, text=text, source=HUMAN_SOURCE))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), path=str(path), line_no=line_no) from exc
        lines.append(line_no)
    if not docs:
        raise CorpusFormatError("empty seed corpus", path=str(path))
    try:
        return CorpusSnapshot(docs)
    except DuplicateDocumentError as exc:
        # the store rejects the id at its second occurrence: name that line
        ids = [d.doc_id for d in docs]
        second = ids.index(exc.doc_id, ids.index(exc.doc_id) + 1)
        raise DuplicateDocumentError(exc.doc_id, line_no=lines[second]) from None


def add_documents(corpus: CorpusSnapshot, docs: list[Document],
                  tokens: Iterable[tuple[str, ...]] | None = None) -> CorpusSnapshot:
    """Append one commit's `docs` to the corpus in place, with their tokens
    when the caller holds them, and return it. Mixed iteration_added is
    rejected before the first append, as `CorpusSnapshot.extend` rejects
    an id already present or repeated."""
    iterations = {d.iteration_added for d in docs}
    if len(iterations) > 1:
        raise ValueError(f"documents in one commit must share iteration_added, got {sorted(iterations)}")
    corpus.extend(docs, tokens)
    return corpus
