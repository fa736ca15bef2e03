import random
import unicodedata

import pytest

from corpus_forge import textnorm
from corpus_forge.textnorm import (
    NormalizedText,
    Orthography,
    OrthographyError,
    join_eol_hyphens,
    load_orthography,
    normalize_lines,
)

from oracles import reference_normalize


def normalize(raw, orth):
    """The tokens of a whole text: those of its lines, in order."""
    return NormalizedText(tuple(t for line in normalize_lines(raw, orth) for t in line))


@pytest.fixture(scope="module")
def orth():
    return load_orthography("", "en")


@pytest.fixture(scope="module")
def orth_no_pound():
    # Latin orthography that simply never listed the pound sign
    return load_orthography("", "en")


def test_hello_world(orth):
    assert normalize("Hello, World!", orth).tokens == ("hello", "world")


def test_out_of_orthography_char_dropped(orth_no_pound):
    assert normalize("naïve £5 fish", orth_no_pound).tokens == ("naïve", "5", "fish")


GUTENBERG_PAGE = """The old light-house¹ keeper rose at dawn; his lamp—trimmed and bright—
threw a thin beam across the har-
bour wall.  «Quarante» ships, or so the vil-
lage said, had passed that night.²

    “Is it TRUE?” asked the boy, who was naïve enough to believe
the fisher-men's tales of the sea-serpent³ and its £300 treasure.
He read the fading no-
tice twice: RE-USE the old ropes… and co-
operate with the watch.

[Footnote 1: the light-house burned coal-oil.]
[Footnote 2: perhaps only four­teen ships.]
[Footnote 3: sea—shine, some wrote.]"""

# frozen from the character-class walker in oracles.py (written first)
GUTENBERG_TOKENS = [
    "the", "old", "light-house1", "keeper", "rose", "at", "dawn", "his",
    "lamp", "trimmed", "and", "bright", "threw", "a", "thin", "beam",
    "across", "the", "harbour", "wall", "quarante", "ships", "or", "so",
    "the", "village", "said", "had", "passed", "that", "night", "2", "is",
    "it", "true", "asked", "the", "boy", "who", "was", "naïve", "enough",
    "to", "believe", "the", "fisher-men's", "tales", "of", "the",
    "sea-serpent3", "and", "its", "300", "treasure", "he", "read", "the",
    "fading", "notice", "twice", "re-use", "the", "old", "ropes", "and",
    "cooperate", "with", "the", "watch", "footnote", "1", "the",
    "light-house", "burned", "coal-oil", "footnote", "2", "perhaps", "only",
    "fourteen", "ships", "footnote", "3", "sea", "shine", "some", "wrote",
]


def test_gutenberg_page_matches_frozen_oracle_output(orth):
    got = list(normalize(GUTENBERG_PAGE, orth).tokens)
    assert got == GUTENBERG_TOKENS
    # and the oracle still reproduces the frozen values
    oracle = reference_normalize(
        GUTENBERG_PAGE, orth.valid_chars, orth.apostrophe_chars, orth.hyphen_chars
    )
    assert oracle == GUTENBERG_TOKENS


def test_join_eol_hyphens_basic():
    assert join_eol_hyphens("exam-\nple text") == "example text"


def test_join_eol_hyphens_line_internal_untouched():
    assert join_eol_hyphens("well-known\nfact") == "well-known\nfact"


def test_join_eol_hyphens_twice_with_spaces():
    assert join_eol_hyphens("co-\n  operate and re-\nuse") == "cooperate and reuse"


def test_join_eol_hyphens_preserves_internal_hyphen_count():
    rng = random.Random(5)
    words = ["red-blue", "x", "top-hat", "a-b-c", "plain"]
    for _ in range(100):
        text = ""
        for _ in range(rng.randint(3, 12)):
            text += rng.choice(words)
            text += rng.choice([" ", " ", "\n", "-\n", "- \n  "])
        joined = join_eol_hyphens(text)
        # each end-of-line occurrence consumes exactly one hyphen; every
        # line-internal hyphen survives
        eol_matches = len(textnorm._EOL_HYPHEN_RE.findall(text))
        assert joined.count("-") == text.count("-") - eol_matches


def test_empty_result_is_not_an_error(orth):
    assert normalize("?!— …", orth).tokens == ()
    assert normalize("", orth).tokens == ()


def test_invalid_unicode_rejected(orth):
    with pytest.raises(ValueError):
        normalize("bad \udc80 surrogate", orth)
    with pytest.raises(TypeError):
        normalize(b"bytes", orth)


def test_determinism(orth):
    text = GUTENBERG_PAGE
    assert normalize(text, orth) == normalize(text, orth)


def test_idempotence_on_random_unicode(orth):
    rng = random.Random(1234)
    pool = (
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "éüßœÀÇ 肥灰 ,.;:!?—–-'’­​«»()[]{}$£€%&*@#\n\t\r"
        "😀🎉①²³½   "
    )
    for _ in range(200):
        raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 80)))
        once = normalize(raw, orth)
        again = normalize(" ".join(once.tokens), orth)
        assert again.tokens == once.tokens


def test_character_closure_on_random_unicode(orth):
    rng = random.Random(99)
    allowed = orth.valid_chars | orth.apostrophe_chars | orth.hyphen_chars
    for _ in range(200):
        raw = "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(0, 60)))
        try:
            result = normalize(raw, orth)
        except ValueError:
            continue  # surrogate soup
        for token in result.tokens:
            assert token, "no empty tokens"
            for ch in token:
                assert ch in allowed
                assert not ch.isspace()


def test_matches_oracle_on_random_text(orth):
    rng = random.Random(7)
    pool = "abc ABC ,.;— d-e f'g ­\n ¹²³ £ naïve ’tis"
    for _ in range(300):
        raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 50)))
        expected = reference_normalize(
            raw, orth.valid_chars, orth.apostrophe_chars, orth.hyphen_chars
        )
        assert list(normalize(raw, orth).tokens) == expected


def test_normalized_text_invariants():
    with pytest.raises(ValueError):
        NormalizedText(tokens=("ok", ""))
    with pytest.raises(ValueError):
        NormalizedText(tokens=("has space",))


def test_normalize_lines_keeps_line_structure(orth):
    lines = normalize_lines("One two.\n\nThree four-\nteen five.\n", orth)
    assert [l.tokens for l in lines] == [
        ("one", "two"),
        ("three", "fourteen", "five"),
    ]


def test_orthography_file_parsing(tmp_path):
    path = tmp_path / "toy.orth"
    path.write_text(
        "# toy orthography\n"
        "U+0061..U+0063\n"
        "U+0027 apostrophe\n"
        "U+002D hyphen\n",
        encoding="utf-8",
    )
    orth = Orthography.from_file(path)
    assert orth.language_id == "toy"
    assert orth.valid_chars == frozenset("abc")
    assert orth.apostrophe_chars == frozenset("'")
    assert orth.hyphen_chars == frozenset("-")
    assert normalize("A b'c cab-a zz", orth).tokens == ("a", "b'c", "cab-a",)


def test_orthography_file_errors(tmp_path):
    bad = tmp_path / "bad.orth"
    bad.write_text("U+0061..whoops\n", encoding="utf-8")
    with pytest.raises(OrthographyError):
        Orthography.from_file(bad)
    empty = tmp_path / "empty.orth"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(OrthographyError):
        Orthography.from_file(empty)


def test_orthography_rejects_whitespace_class():
    with pytest.raises(OrthographyError):
        Orthography("x", frozenset("a"), apostrophe_chars=frozenset(" "))


def test_standalone_apostrophe_dropped_elision_kept(orth):
    assert normalize("' lone", orth).tokens == ("lone",)
    assert normalize("co' doppi 'tis", orth).tokens == ("co'", "doppi", "'tis")
