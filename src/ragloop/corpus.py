"""Versioned document store with provenance tracking.

The corpus grows once per simulation iteration. Snapshots are immutable
views over a shared append-only document list, so taking a new snapshot
after adding N documents costs O(N), not a full copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import retrieval
from .errors import CorpusFormatError, DuplicateDocumentError

HUMAN = "human"
GENERATED = "generated"

TITLE_TEXT_SEPARATOR = "\n"


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
        if self.kind == HUMAN and self.generator_name is not None:
            raise ValueError("human source must not carry a generator_name")

    @property
    def label(self) -> str:
        """Display/aggregation key: 'human' or the generator name."""
        return self.generator_name if self.kind == GENERATED else HUMAN

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.generator_name is not None:
            d["generator_name"] = self.generator_name
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SourceTag":
        return cls(kind=d["kind"], generator_name=d.get("generator_name"))


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

    def to_dict(self) -> dict:
        d: dict = {
            "doc_id": self.doc_id,
            "text": self.text,
            "source": self.source.to_dict(),
            "iteration_added": self.iteration_added,
        }
        if self.origin_query_id is not None:
            d["origin_query_id"] = self.origin_query_id
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Document":
        return cls(
            doc_id=d["doc_id"],
            text=d["text"],
            source=SourceTag.from_dict(d["source"]),
            origin_query_id=d.get("origin_query_id"),
            iteration_added=int(d.get("iteration_added", 0)),
        )


def generated_doc_id(generator_name: str, iteration: int, query_id: str) -> str:
    """Id scheme for generated documents; provenance is recoverable from it."""
    return f"{generator_name}-it{iteration}-{query_id}"


class _DocStore:
    """Shared append-only storage behind a chain of snapshots.

    Documents never change after commit, so their tokens are derived once
    per store: `tokens` maps a document's position to `tokenize(text)` as a
    tuple, filled on first read. Each token is interned through `vocab`, so
    equal tokens across documents are one str object. Nothing else derived
    from the text is kept: n-gram Counters are built per Self-BLEU or filter
    call and dropped afterwards, because keeping them for every document
    that reaches a top-5 list costs more memory than the tokens themselves.
    """

    __slots__ = ("docs", "index_of", "head_version", "tokens", "vocab")

    def __init__(self) -> None:
        self.docs: list[Document] = []
        self.index_of: dict[str, int] = {}
        self.head_version = 0
        self.tokens: dict[int, tuple[str, ...]] = {}
        self.vocab: dict[str, str] = {}


class CorpusSnapshot:
    """Immutable view of the corpus at one version.

    Snapshots created by add_documents share document storage with their
    parent; only the newly added suffix is new memory.
    """

    def __init__(self, store: _DocStore, size: int, version: int,
                 counts: dict[str, int]):
        self._store = store
        self._size = size
        self.version = version
        self._counts = counts

    def __len__(self) -> int:
        return self._size

    def __contains__(self, doc_id: str) -> bool:
        idx = self._store.index_of.get(doc_id)
        return idx is not None and idx < self._size

    def _position(self, doc_id: str) -> int:
        idx = self._store.index_of.get(doc_id)
        if idx is None or idx >= self._size:
            raise KeyError(f"doc_id {doc_id!r} not in corpus version {self.version}")
        return idx

    def get(self, doc_id: str) -> Document:
        return self._store.docs[self._position(doc_id)]

    def tokens(self, doc_id: str) -> tuple[str, ...]:
        """`tokenize` of the document's text, computed once per store.
        Raises KeyError for a document this version cannot see, as `get`.
        Safe with concurrent readers: threads that race on a document store
        equal tuples, and `setdefault` interns each token exactly once."""
        idx = self._position(doc_id)
        store = self._store
        toks = store.tokens.get(idx)
        if toks is None:
            intern = store.vocab.setdefault
            toks = tuple([intern(t, t)
                          for t in retrieval.tokenize(store.docs[idx].text)])
            store.tokens[idx] = toks
        return toks

    def get_text(self, doc_id: str) -> str:
        return self.get(doc_id).text

    def source_of(self, doc_id: str) -> SourceTag:
        return self.get(doc_id).source

    def iter_documents(self) -> Iterator[Document]:
        for i in range(self._size):
            yield self._store.docs[i]

    def counts_by_source(self) -> dict[str, int]:
        return dict(self._counts)

    def is_head(self) -> bool:
        return self.version == self._store.head_version


def _snapshot_from_documents(docs: Iterable[Document]) -> CorpusSnapshot:
    store = _DocStore()
    counts: dict[str, int] = {}
    for doc in docs:
        if doc.doc_id in store.index_of:
            raise DuplicateDocumentError(doc.doc_id)
        store.index_of[doc.doc_id] = len(store.docs)
        store.docs.append(doc)
        counts[doc.source.label] = counts.get(doc.source.label, 0) + 1
    return CorpusSnapshot(store, size=len(store.docs), version=0, counts=counts)


def ingest_seed_corpus(path: str | Path) -> CorpusSnapshot:
    """Load the version-0 corpus from a line-delimited record file.

    Each line is a JSON object with doc_id, text, and an optional title;
    the title is prepended to the text. All seed documents are human.
    """
    path = Path(path)
    docs: list[Document] = []
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON record: {exc.msg}",
                                        path=str(path), line_no=line_no) from exc
            if not isinstance(rec, dict) or "doc_id" not in rec or "text" not in rec:
                raise CorpusFormatError("record must carry doc_id and text",
                                        path=str(path), line_no=line_no)
            doc_id = str(rec["doc_id"])
            if doc_id in seen:
                raise DuplicateDocumentError(doc_id, line_no=line_no)
            seen[doc_id] = line_no
            text, title = rec["text"], rec.get("title")
            if not isinstance(text, str) or not isinstance(title, (str, type(None))):
                raise CorpusFormatError("text must be a string, and title a string "
                                        "or absent", path=str(path), line_no=line_no)
            if title:
                text = f"{title}{TITLE_TEXT_SEPARATOR}{text}"
            try:
                docs.append(Document(doc_id=doc_id, text=text, source=HUMAN_SOURCE))
            except ValueError as exc:
                raise CorpusFormatError(str(exc), path=str(path),
                                        line_no=line_no) from exc
    if not docs:
        raise CorpusFormatError("empty seed corpus", path=str(path))
    return _snapshot_from_documents(docs)


def add_documents(snapshot: CorpusSnapshot, docs: list[Document]) -> CorpusSnapshot:
    """Commit new documents, returning the next snapshot version.

    The input snapshot is unchanged. Adding an empty list is a no-op and
    returns the same snapshot. Only the newest snapshot of a corpus may be
    extended (single writer at the iteration barrier).
    """
    if not docs:
        return snapshot
    if not snapshot.is_head():
        raise ValueError(
            f"cannot add documents to superseded snapshot version {snapshot.version}"
        )
    store = snapshot._store
    for doc in docs:
        if doc.doc_id in snapshot:
            raise DuplicateDocumentError(doc.doc_id)
    fresh_ids = {d.doc_id for d in docs}
    if len(fresh_ids) != len(docs):
        dupes = [d.doc_id for d in docs if sum(x.doc_id == d.doc_id for x in docs) > 1]
        raise DuplicateDocumentError(dupes[0])
    iterations = {d.iteration_added for d in docs}
    if len(iterations) != 1:
        raise ValueError(f"documents in one commit must share iteration_added, got {sorted(iterations)}")
    counts = snapshot.counts_by_source()
    for doc in docs:
        store.index_of[doc.doc_id] = len(store.docs)
        store.docs.append(doc)
        counts[doc.source.label] = counts.get(doc.source.label, 0) + 1
    store.head_version += 1
    return CorpusSnapshot(store, size=len(store.docs),
                          version=store.head_version, counts=counts)
