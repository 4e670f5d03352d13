"""Exception types shared across the package."""

from __future__ import annotations


class RagLoopError(Exception):
    """Base class for all package-specific errors."""


class CorpusFormatError(RagLoopError):
    """A corpus or query file failed to parse; carries the offending line."""

    def __init__(self, message: str, path: str | None = None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line_no is not None:
                prefix += f"{line_no}:"
            prefix += " "
        super().__init__(prefix + message)


class DuplicateDocumentError(RagLoopError):
    """A document id was added twice."""

    def __init__(self, doc_id: str, line_no: int | None = None):
        self.doc_id = doc_id
        self.line_no = line_no
        msg = f"duplicate doc_id {doc_id!r}"
        if line_no is not None:
            msg += f" at line {line_no}"
        super().__init__(msg)


class ConfigValidationError(RagLoopError):
    """One or more configuration problems, all reported at once."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems)
        )


class RemoteServiceError(RagLoopError):
    """A remote backend call failed after exhausting its retry budget."""


class RemoteRequestRejected(RemoteServiceError):
    """The service refused the request itself (a 4xx other than 408/429);
    repeating it cannot succeed, so it is never retried."""


class GenerationFailure(RagLoopError):
    """A single query's generation failed; the query is skipped and logged."""
