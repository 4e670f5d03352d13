"""Rule-based cleaning of generator output.

Strips phrases that reveal the text was machine-written before it enters
the corpus. The phrase list ships as a plain-text resource and can be
replaced or extended without touching code.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from pathlib import Path

_WS_RE = re.compile(r"\s+")
# leftover clause separators at the start of the text once a leading
# phrase plus its comma has been removed
_DANGLING_HEAD_RE = re.compile(r"^[\s,;:]+")


class PhraseList:
    """Ordered list of literal phrases; matching is case-insensitive.

    Longer phrases are applied first so that removing a short phrase never
    leaves fragments of a longer one behind.
    """

    def __init__(self, phrases: list[str]):
        cleaned = [p.strip() for p in phrases]
        if any(not p for p in cleaned):
            raise ValueError("phrase list must not contain empty phrases")
        self.phrases = cleaned
        ordered = sorted(cleaned, key=len, reverse=True)
        self._patterns = [
            re.compile(re.escape(p) + r"[,\s]*", re.IGNORECASE) for p in ordered
        ]

    def __len__(self) -> int:
        return len(self.phrases)

    def contains_any(self, text: str) -> bool:
        lowered = text.lower()
        return any(p.lower() in lowered for p in self.phrases)

    @classmethod
    def from_file(cls, path: str | Path) -> "PhraseList":
        return cls(_phrase_lines(Path(path).read_text(encoding="utf-8")))


def _phrase_lines(text: str) -> list[str]:
    """One phrase per line; blank lines and `#` comments are skipped."""
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


@functools.cache
def default_phrase_list() -> PhraseList:
    """The packaged phrase list, loaded once and shared by every caller."""
    ref = resources.files("ragloop").joinpath("data/phrases.txt")
    return PhraseList(_phrase_lines(ref.read_text(encoding="utf-8")))


def clean(text: str, phrases: PhraseList | None = None) -> str:
    """Remove every phrase occurrence.

    Each match is deleted together with any directly following commas and
    whitespace, then whitespace is normalized. Text with no match comes
    back unchanged. Cleaning that would empty the text keeps the original
    instead, so a document is never destroyed outright.
    """
    plist = phrases if phrases is not None else default_phrase_list()
    out = text
    removed = 0
    # repeat until fixed point: a removal can expose a new match at the seam,
    # and collapsing whitespace can reassemble a phrase split by an earlier
    # removal, so rescan after every normalization
    for _ in range(100):
        changed = False
        for pattern in plist._patterns:
            out, n = pattern.subn(" ", out)
            if n:
                removed += n
                changed = True
        if not changed:
            break
        out = _WS_RE.sub(" ", out)
    out = _DANGLING_HEAD_RE.sub("", out)
    out = _WS_RE.sub(" ", out).strip()
    if removed == 0 or (text.strip() and not out):
        return text
    return out
