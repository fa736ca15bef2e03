"""Text normalization shared by every pipeline stage.

Raw book pages and transcripts are reduced to a canonical lowercase token
stream. Each text is checked, NFKC-normalized and hyphen-joined once. Then a
``str.translate`` table per orthography decides each code point on first
sight: whitespace and apostrophe/hyphen characters stay, format characters
vanish, other punctuation/symbol/control/separator characters become a
space, and anything else is casefolded and keeps only the folded characters
the orthography lists. One pattern drops the apostrophe/hyphen characters
that touch no valid character, and whitespace splits the tokens. Digits
survive on purpose; alignment against the pseudo-label resolves them.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .manifest import numbered_lines

# characters that participate in end-of-line hyphenation
EOL_HYPHEN_CHARS = "-‐­"

_EOL_HYPHEN_RE = re.compile(r"[%s][ \t]*(?:\r\n?|\n)[ \t]*" % EOL_HYPHEN_CHARS)

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
        for lineno, line in numbered_lines(path):
            m = _RANGE_RE.match(line)
            if m is None:
                raise OrthographyError(f"{path}:{lineno}: cannot parse {line!r}")
            lo = int(m.group(1), 16)
            hi = int(m.group(2), 16) if m.group(2) else lo
            if not lo <= hi <= 0x10FFFF:
                raise OrthographyError(f"{path}:{lineno}: inverted range or not a code point")
            chars = {chr(c) for c in range(lo, hi + 1)}
            if m.group(3) == "apostrophe":
                apostrophes |= chars
            elif m.group(3) == "hyphen":
                hyphens |= chars
            else:
                valid |= chars
        try:
            return cls(language_id=language_id or path.stem, valid_chars=frozenset(valid),
                       apostrophe_chars=frozenset(apostrophes), hyphen_chars=frozenset(hyphens))
        except OrthographyError as exc:  # no valid character, or a whitespace class
            raise OrthographyError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class NormalizedText:
    """Canonical token sequence of one text or line."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        # no token is empty or holds whitespace iff re-splitting is lossless
        if " ".join(self.tokens).split() != list(self.tokens):
            bad = next(t for t in self.tokens if t.split() != [t])
            raise ValueError(f"malformed token {bad!r}")

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


def join_eol_hyphens(raw: str) -> str:
    """Remove end-of-line hyphenation, joining the two word fragments.

    A hyphen character followed (apart from trailing spaces) by a line break
    (CR LF, LF or a lone CR) is deleted together with the break and any
    leading spaces on the next line; all other hyphens are untouched.
    """
    return _EOL_HYPHEN_RE.sub("", raw)


def _canonical(raw: str) -> str:
    """The checked, NFKC-normalized and hyphen-joined form of a text."""
    if not isinstance(raw, str):
        raise TypeError(f"normalization expects str input, got {type(raw).__name__}")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:  # lone surrogates
        raise ValueError(f"input is not valid Unicode text: {exc}") from exc
    return join_eol_hyphens(unicodedata.normalize("NFKC", raw))


class _CharTable(dict):
    """``str.translate`` table deciding each code point on first sight."""

    def __init__(self, orth: Orthography):
        super().__init__()
        self.keep = orth.valid_chars | orth.apostrophe_chars | orth.hyphen_chars
        self.classed = orth.apostrophe_chars | orth.hyphen_chars

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        cat = unicodedata.category(ch)
        if ch.isspace() or ch in self.classed:
            out = ch
        elif cat == "Cf":
            out = ""  # soft hyphens, zero-width characters: vanish in place
        elif cat[0] in "PSCZ":
            out = " "
        else:  # characters outside the orthography are filtered, not separators
            out = "".join(f for f in ch.casefold() if f in self.keep)
        self[cp] = out
        return out


def _char_class(chars) -> str:
    """A regex character class of ``chars``; one that never matches if empty."""
    body = "".join(map(re.escape, sorted(chars)))
    return f"[{body}]" if body else "(?!)"


@functools.cache
def _tokenizer(orth: Orthography) -> Callable[[str], list[str]]:
    """The per-line step for ``orth``: table, edge pattern, whitespace split.

    Memoized by orthography value, which is all the table depends on.
    Whitespace ends a word, so the edge pattern never counts it as valid.
    """
    valid = _char_class(c for c in orth.valid_chars if not c.isspace())
    edge = _char_class((orth.apostrophe_chars | orth.hyphen_chars) - orth.valid_chars)
    pattern = re.compile(f"(?<!{valid}){edge}(?!{valid})")
    table = _CharTable(orth)
    return lambda text: pattern.sub("", text.translate(table)).split()


def normalize_lines(raw: str, orth: Orthography) -> list[NormalizedText]:
    """Normalize keeping line structure (one entry per non-empty line).

    End-of-line hyphenation is resolved first, so a hyphen-split word pair
    collapses onto the earlier line. Used wherever sentence-ish units are
    needed (language-model training data).
    """
    words = _tokenizer(orth)
    lines = _canonical(raw).splitlines()
    return [NormalizedText(tokens=tuple(w)) for line in lines if (w := words(line))]


def load_orthography(path: str | Path, language_id: str = "en") -> Orthography:
    """The orthography file at ``path``, or the bundled one for the language
    when it is empty."""
    if not path:
        path = Path(__file__).parent / "data" / "orthographies" / f"{language_id}.orth"
        if not path.exists():
            raise OrthographyError(f"{path}: no bundled orthography for {language_id!r}")
    return Orthography.from_file(path, language_id=language_id)
