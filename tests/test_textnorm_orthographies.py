"""Normalization under an orthography other than the bundled English one."""

import random
import unicodedata

import pytest

from corpus_forge.textnorm import (
    Orthography,
    join_eol_hyphens,
    normalize_lines,
)

from oracles import reference_normalize
from test_textnorm import normalize

# valid: a-f, i, s, a space, a full stop, and three characters whose casefold
# is several characters (sharp s -> "ss", fi ligature -> "fi", dotted capital
# I -> "i" + combining dot above); no format character is tagged
ODD_ORTHOGRAPHY = """\
U+0061..U+0066   # a-f
U+0069           # i
U+0073           # s
U+0020           # space
U+002E           # full stop
U+00DF           # sharp s
U+FB01           # fi ligature
U+0130           # capital I with dot above
U+0027 apostrophe
U+2019 apostrophe
U+002D hyphen
U+2010 hyphen
"""

# drawn one character at a time; the line ends include a lone "\r"
POOL = (
    "abcdefghisABCDEFIS \u00df\u1e9e\ufb01\u0130\u0131\u212a fish \u00c9\u00c0 12 "
    ". , ; ! ? \u2014 ' \u2019 - \u2010 -- a-b c'd e-\n f\u2010 \n \u00ad \u200b "
    "\n \r e-\r g\u2010\r\n \t \xa0 \u2003 \U0001f600 \u2460 \u00bd \u2163 \u00b2"
)


@pytest.fixture(scope="module")
def orth(tmp_path_factory):
    path = tmp_path_factory.mktemp("orth") / "odd.orth"
    path.write_text(ODD_ORTHOGRAPHY, encoding="utf-8")
    orth = Orthography.from_file(path)
    assert {" ", ".", "ß", "ﬁ", "İ"} <= orth.valid_chars
    return orth


def _oracle(raw, orth):
    return reference_normalize(raw, orth.valid_chars, orth.apostrophe_chars, orth.hyphen_chars)


def _random_texts(seed, n=400):
    rng = random.Random(seed)
    for _ in range(n):
        yield "".join(rng.choice(POOL) for _ in range(rng.randint(0, 60)))


def test_normalize_matches_oracle(orth):
    for raw in _random_texts(11):
        assert list(normalize(raw, orth).tokens) == _oracle(raw, orth), raw


def test_normalize_lines_matches_oracle(orth):
    for raw in _random_texts(12):
        lines = [list(l.tokens) for l in normalize_lines(raw, orth)]
        joined = join_eol_hyphens(unicodedata.normalize("NFKC", raw))
        expected = [t for t in (_oracle(line, orth) for line in joined.splitlines()) if t]
        assert lines == expected, raw
        assert [t for line in lines for t in line] == _oracle(raw, orth), raw


def test_multi_character_casefolds(orth):
    # folded characters outside the orthography are dropped, the rest kept;
    # the listed space and full stop still separate words
    assert normalize("İs ẞ ﬁsh. Kai’s", orth).tokens == ("is", "ss", "fis", "ai’s")


def test_lines_agree_with_whole_text_when_a_join_meets_a_combining_mark(orth):
    # NFKC runs once per text, before the hyphen join: the combining dot that
    # the join brings next to "b" is filtered, not composed into "ḃ"
    raw = "b-\n\u0307c d"
    assert normalize(raw, orth).tokens == ("bc", "d")
    assert [l.tokens for l in normalize_lines(raw, orth)] == [("bc", "d")]
    assert _oracle(raw, orth) == ["bc", "d"]
