import random

import pytest

from corpus_forge.decontam import (
    FiveGramIndex,
    build_heldout_index,
    contamination_rate,
    filter_corpus,
    load_stopwords,
    title_match,
)

from oracles import full_matrix_edit_distance, sliding_window_fivegrams

STOPWORDS = frozenset({"the", "a", "of", "and", "to"})
VOCAB = [c + v + c2 for c in "bdfgklm" for v in "aeiou" for c2 in "nrst"]


def words(rng, n):
    return [rng.choice(VOCAB) for _ in range(n)]


# -- title filter --------------------------------------------------------------


def test_title_distance_one_matches():
    assert title_match(
        "the great adventure".split(), ["the great adventures".split()]
    )


def test_title_distance_two_does_not_match():
    assert not title_match(
        "war and peace".split(), ["pride and prejudice".split()]
    )


def test_title_exact_match():
    assert title_match("moby dick".split(), ["moby dick".split()])


def test_title_decision_equals_dp_oracle_1000_pairs():
    rng = random.Random(8)
    title_vocab = ["the", "sea", "old", "night", "red", "house", "tales", "war"]
    for _ in range(1000):
        a = [rng.choice(title_vocab) for _ in range(rng.randint(1, 5))]
        b = [rng.choice(title_vocab) for _ in range(rng.randint(1, 5))]
        expected = full_matrix_edit_distance(a, b) < 2
        assert title_match(a, [b]) == expected


def test_title_distance_symmetric():
    rng = random.Random(9)
    title_vocab = ["one", "two", "three", "four"]
    for _ in range(200):
        a = [rng.choice(title_vocab) for _ in range(rng.randint(1, 4))]
        b = [rng.choice(title_vocab) for _ in range(rng.randint(1, 4))]
        assert title_match(a, [b]) == title_match(b, [a])


# -- 5-gram index ---------------------------------------------------------------


def test_five_nonstop_words_give_one_gram():
    index = build_heldout_index(["v w x y z".split()], STOPWORDS)
    assert len(index) == 1


def test_four_words_give_nothing():
    index = build_heldout_index(["v w x y".split()], STOPWORDS)
    assert len(index) == 0


def test_stopwords_removed_before_windowing():
    index = build_heldout_index([["v", "the", "w", "x", "a", "y", "z"]], STOPWORDS)
    assert ("v", "w", "x", "y", "z") in index
    for gram in index.grams:
        assert not (set(gram) & STOPWORDS)


def test_index_matches_sliding_window_oracle():
    rng = random.Random(44)
    texts = []
    for _ in range(20):
        t = words(rng, rng.randint(0, 50))
        for i in range(len(t)):
            if rng.random() < 0.25:
                t[i] = rng.choice(sorted(STOPWORDS))
        texts.append(t)
    index = build_heldout_index(texts, STOPWORDS)
    expected = set()
    for t in texts:
        expected |= sliding_window_fivegrams(t, STOPWORDS)
    assert index.grams == expected


# -- contamination rate -----------------------------------------------------------


def test_disjoint_book_rates_zero():
    rng = random.Random(1)
    index = build_heldout_index([words(rng, 100)], STOPWORDS)
    other = [w + "x" for w in words(rng, 200)]  # disjoint vocabulary
    assert contamination_rate(other, index) == 0.0


def test_verbatim_copy_rates_one():
    rng = random.Random(2)
    chapter = words(rng, 300)
    index = build_heldout_index([chapter], STOPWORDS)
    assert contamination_rate(chapter, index) == 1.0


def test_short_book_rates_zero():
    index = build_heldout_index([["v", "w", "x", "y", "z"]], STOPWORDS)
    assert contamination_rate(["v", "w"], index) == 0.0


def test_planted_paragraph_rate_near_planted_fraction():
    rng = random.Random(3)
    heldout = words(rng, 2000)
    index = build_heldout_index([heldout], STOPWORDS)
    body = words(rng, 5000)
    plant = heldout[100:200]  # ~2% of the book's distinct grams
    book = body[:2500] + plant + body[2500:]
    rate = contamination_rate(book, index)
    distinct = len(sliding_window_fivegrams(book, STOPWORDS))
    planted = len(
        sliding_window_fivegrams(plant, STOPWORDS)
        & sliding_window_fivegrams(heldout, STOPWORDS)
    )
    expected = planted / distinct
    assert rate == pytest.approx(expected, abs=0.002)


def test_monotone_in_heldout_text():
    rng = random.Random(5)
    book = words(rng, 800)
    heldout_a = [book[50:120]]
    heldout_b = heldout_a + [book[300:400]]
    rate_a = contamination_rate(book, build_heldout_index(heldout_a, STOPWORDS))
    rate_b = contamination_rate(book, build_heldout_index(heldout_b, STOPWORDS))
    assert rate_b >= rate_a > 0.0


def test_tokens_denominator_flag():
    rng = random.Random(6)
    chapter = words(rng, 60)
    index = build_heldout_index([chapter], STOPWORDS)
    book = chapter + chapter  # repetition changes the token-based rate only
    distinct_rate = contamination_rate(book, index)
    token_rate = contamination_rate(book, index, count_tokens=True)
    assert distinct_rate < 1.0  # boundary windows between the copies miss
    assert token_rate != distinct_rate


# -- corpus filter -----------------------------------------------------------------


def corpus_books(rng):
    heldout_text = words(rng, 3000)
    index = build_heldout_index([heldout_text], STOPWORDS)
    clean = ("clean", ("green", "meadow"), words(rng, 4000))
    # plant enough held-out text to cross 1% of distinct 5-grams
    body = words(rng, 4000)
    dirty = ("dirty", ("dark", "forest"), body[:2000] + heldout_text[:80] + body[2000:])
    titled = ("titled", ("quiet", "river"), words(rng, 1000))
    return index, clean, dirty, titled


def test_filter_keeps_low_rate_and_removes_high_rate():
    rng = random.Random(7)
    index, clean, dirty, titled = corpus_books(rng)
    report = filter_corpus([clean, dirty, titled], [("quiet", "rivers")], index)
    actions = {r["book_id"]: r for r in report}
    assert actions["dirty"]["action"] == "removed"
    assert actions["dirty"]["reason"] == "ngram-overlap"
    assert actions["dirty"]["rate"] > 0.01
    assert actions["clean"]["action"] == "kept"
    assert actions["clean"]["rate"] < 0.01
    # "quiet river" sits at word distance 1 from the held-out "quiet rivers"
    assert actions["titled"]["action"] == "removed"
    assert actions["titled"]["reason"] == "title"
    assert [r["book_id"] for r in report] == ["clean", "dirty", "titled"]


def test_filter_title_distance_two_kept():
    rng = random.Random(10)
    book = ("b", ("war", "and", "peace"), words(rng, 400))
    index = build_heldout_index([words(rng, 500)], STOPWORDS)
    [row] = filter_corpus([book], [("pride", "and", "prejudice")], index)
    assert (row["book_id"], row["action"]) == ("b", "kept")


def test_soundness_verbatim_heldout_always_removed():
    rng = random.Random(11)
    for _ in range(10):
        heldout = words(rng, rng.randint(500, 1500))
        index = build_heldout_index([heldout], STOPWORDS)
        body = words(rng, rng.randint(1000, 3000))
        plant_len = max(60, int(0.05 * len(body)))
        tokens = body[:500] + heldout[:plant_len] + body[500:]
        rate = contamination_rate(tokens, index)
        assert rate > 0.01
        [row] = filter_corpus([("x", ("unrelated", "title"), tokens)], [], index)
        assert (row["book_id"], row["action"]) == ("x", "removed")


def test_stopword_file_loading(tmp_path):
    path = tmp_path / "x.stop"
    path.write_text("# comment\nthe\nand # trailing\n\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and"})
    assert "the" in load_stopwords("", "en")
    # lines end at LF alone: a form feed inside one is part of its word
    path.write_bytes(b"the\x0can\n")
    assert load_stopwords(path) == frozenset({"the\x0can"})
