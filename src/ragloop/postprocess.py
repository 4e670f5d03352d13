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
        # (needle, pattern), longest phrase first; the needle is the lowered
        # phrase, or None when the phrase is not ASCII and so always scanned
        self._patterns = [
            (p.lower() if p.isascii() else None,
             re.compile(re.escape(p) + r"[,\s]*", re.IGNORECASE))
            for p in ordered
        ]

    def __len__(self) -> int:
        return len(self.phrases)

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


def _ascii_lowered(text: str) -> str | None:
    """The lowered text to test needles against, or None for non-ASCII text.

    Under re.IGNORECASE a few non-ASCII code points match ASCII letters
    ('ſ' matches 's', the Kelvin sign 'k', 'ı' and 'İ' match 'i') that
    str.lower leaves alone, so only ASCII text can rule a phrase out.
    """
    return text.lower() if text.isascii() else None


def _exact(needle: str | None, lowered: str | None) -> bool:
    """Whether `needle in lowered` decides a match: ASCII on both sides."""
    return needle is not None and lowered is not None


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
        lowered = _ascii_lowered(out)
        for needle, pattern in plist._patterns:
            # a phrase absent from the lowered text cannot match: skip its scan
            if _exact(needle, lowered) and needle not in lowered:
                continue
            out, n = pattern.subn(" ", out)
            if n:
                removed += n
                changed = True
                lowered = _ascii_lowered(out)
        if not changed:
            break
        out = _WS_RE.sub(" ", out)
    if removed == 0:
        return text
    out = _DANGLING_HEAD_RE.sub("", out)
    out = _WS_RE.sub(" ", out).strip()
    if text.strip() and not out:
        return text
    return out
