"""Text normalization shared by every pipeline stage.

Raw book pages and transcripts are reduced to a canonical lowercase token
stream: NFKC normalization, end-of-line hyphen joining, removal of
punctuation/symbol/control characters, case folding, and filtering against a
per-language orthography. Digits survive normalization on purpose; they are
resolved later by alignment against the pseudo-label.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

# characters that participate in end-of-line hyphenation
EOL_HYPHEN_CHARS = "-‐­"

_EOL_HYPHEN_RE = re.compile(r"[%s][ \t]*\r?\n[ \t]*" % EOL_HYPHEN_CHARS)

_RANGE_RE = re.compile(
    r"^U\+([0-9A-Fa-f]{1,6})(?:\.\.U\+([0-9A-Fa-f]{1,6}))?(?:\s+(apostrophe|hyphen))?$"
)


class OrthographyError(ValueError):
    """Raised for malformed orthography files or invalid character sets."""


@dataclass(frozen=True)
class Orthography:
    """Allowed character inventory for one language.

    ``valid_chars`` are ordinary word characters; ``apostrophe_chars`` and
    ``hyphen_chars`` are kept inside words but dropped when they do not touch
    a valid character.
    """

    language_id: str
    valid_chars: frozenset[str]
    apostrophe_chars: frozenset[str] = frozenset()
    hyphen_chars: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.valid_chars:
            raise OrthographyError("orthography has no valid characters")
        for ch in self.apostrophe_chars | self.hyphen_chars:
            if ch.isspace():
                raise OrthographyError(
                    "apostrophe/hyphen classes may not contain whitespace"
                )

    @classmethod
    def from_file(cls, path: str | Path, language_id: str | None = None) -> "Orthography":
        """Parse an orthography file.

        One line per code point or inclusive range (``U+0061..U+007A``),
        optionally tagged ``apostrophe`` or ``hyphen``; ``#`` starts a
        comment.
        """
        path = Path(path)
        valid: set[str] = set()
        apostrophes: set[str] = set()
        hyphens: set[str] = set()
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            m = _RANGE_RE.match(line)
            if m is None:
                raise OrthographyError(f"{path}:{lineno}: cannot parse {line!r}")
            lo = int(m.group(1), 16)
            hi = int(m.group(2), 16) if m.group(2) else lo
            if hi < lo:
                raise OrthographyError(f"{path}:{lineno}: inverted range")
            chars = {chr(c) for c in range(lo, hi + 1)}
            if m.group(3) == "apostrophe":
                apostrophes |= chars
            elif m.group(3) == "hyphen":
                hyphens |= chars
            else:
                valid |= chars
        return cls(
            language_id=language_id or path.stem,
            valid_chars=frozenset(valid),
            apostrophe_chars=frozenset(apostrophes),
            hyphen_chars=frozenset(hyphens),
        )


@dataclass(frozen=True)
class NormalizedText:
    """Canonical token sequence of one text or line."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        for t in self.tokens:
            if not t or any(c.isspace() for c in t):
                raise ValueError(f"malformed token {t!r}")

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


def join_eol_hyphens(raw: str) -> str:
    """Remove end-of-line hyphenation, joining the two word fragments.

    A hyphen character followed (apart from trailing spaces) by a line break
    is deleted together with the break and any leading spaces on the next
    line; all other hyphens are untouched.
    """
    return _EOL_HYPHEN_RE.sub("", raw)


def _reject_invalid(raw: str) -> None:
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:  # lone surrogates
        raise ValueError(f"input is not valid Unicode text: {exc}") from exc


def normalize(raw: str, orth: Orthography) -> NormalizedText:
    """Normalize raw text into the canonical token sequence.

    Applied in order: NFKC; end-of-line hyphen joining; separator handling
    for punctuation, symbols (emoji), controls and escape characters (format
    characters such as soft hyphens vanish in place); case folding;
    orthography filtering (out-of-orthography characters are dropped without
    splitting the word); whitespace tokenization. Deterministic.
    """
    if not isinstance(raw, str):
        raise TypeError("normalize expects str input")
    _reject_invalid(raw)
    text = unicodedata.normalize("NFKC", raw)
    text = join_eol_hyphens(text)

    valid = orth.valid_chars
    classed = orth.apostrophe_chars | orth.hyphen_chars
    tokens: list[str] = []
    current: list[str] = []

    def flush() -> None:
        if not current:
            return
        word = "".join(current)
        current.clear()
        kept = []
        for i, c in enumerate(word):
            if c in valid:
                kept.append(c)
            elif (i > 0 and word[i - 1] in valid) or (
                i + 1 < len(word) and word[i + 1] in valid
            ):
                kept.append(c)
        if kept:
            tokens.append("".join(kept))

    for ch in text:
        if ch.isspace():
            flush()
            continue
        if ch in classed:
            current.append(ch)
            continue
        cat = unicodedata.category(ch)
        if cat == "Cf":
            continue  # soft hyphens, zero-width characters: vanish in place
        if cat[0] in "PSCZ":
            flush()
            continue
        for folded in ch.casefold():
            if folded in valid or folded in classed:
                current.append(folded)
            # characters outside the orthography are filtered, not separators
    flush()
    return NormalizedText(tokens=tuple(tokens))


def normalize_lines(raw: str, orth: Orthography) -> list[NormalizedText]:
    """Normalize keeping line structure (one entry per non-empty line).

    End-of-line hyphenation is resolved first, so a hyphen-split word pair
    collapses onto the earlier line. Used wherever sentence-ish units are
    needed (language-model training data).
    """
    if not isinstance(raw, str):
        raise TypeError("normalize_lines expects str input")
    _reject_invalid(raw)
    joined = join_eol_hyphens(unicodedata.normalize("NFKC", raw))
    out = []
    for line in joined.splitlines():
        nt = normalize(line, orth)
        if nt.tokens:
            out.append(nt)
    return out


def default_orthography(language_id: str = "en") -> Orthography:
    """Load a bundled orthography data file."""
    path = Path(__file__).parent / "data" / "orthographies" / f"{language_id}.orth"
    if not path.exists():
        raise OrthographyError(f"no bundled orthography for {language_id!r}")
    return Orthography.from_file(path, language_id=language_id)


def load_orthography(path: str | Path, language_id: str = "en") -> Orthography:
    """The orthography file at ``path``, or the bundled one when it is empty."""
    if path:
        return Orthography.from_file(path, language_id=language_id)
    return default_orthography(language_id)
