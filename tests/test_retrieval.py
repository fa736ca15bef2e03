import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from corpus_forge import retrieval
from corpus_forge.config import PipelineConfig
from corpus_forge.manifest import ManifestRow, read_manifest
from corpus_forge.pipeline import run_pipeline
from corpus_forge.retrieval import (
    ABSENT_ID,
    AlignmentResult,
    TfIdfIndex,
    accept_candidate,
    book_candidates,
    build_book_frequencies,
    edit_distance,
    fix_rare_wordforms,
    labels_by_book,
    replace_numbers,
    shard_spans,
    wer,
)
from corpus_forge.synth import SynthParams, synth_corpus

from oracles import (
    count_bigram_vectors,
    edit_script_minimum,
    enumerate_local_alignment_score,
    exhaustive_cosine_scores,
    full_matrix_edit_distance,
    full_window_smith_waterman,
    per_segment_candidates,
    ranked_shards,
    replay_wordform_rules,
    scan_replace_numbers,
)

# letter-only fabricated words: digit-bearing vocabulary would trip the
# number-replacement path by design
VOCAB = [c + v for c in "bcdfglmnprst" for v in "aeiou"]
WIDE_VOCAB = [a + b for a in VOCAB for b in "raselitonume"][:500]


def retrieve_candidates(books, segments, shard_size=1250, shard_stride=1000, threshold=0.4):
    """(candidates, misses) of ``book_candidates`` over every segment
    manifest row, in sorted book order, then input order, as the retrieve
    stage writes them."""
    labels = labels_by_book(segments)
    found = [cand for book_id in sorted(labels) for cand in book_candidates(
        book_id, books.get(book_id), labels[book_id], shard_size, shard_stride, threshold)]
    candidates = [cand for cand in found if cand is not None]
    return candidates, len(found) - len(candidates)


def random_words(rng, n, vocab=None):
    vocab = vocab or VOCAB
    return [rng.choice(vocab) for _ in range(n)]


def rank(index, words):
    """``retrieval._rank`` of one label: (shard index, score) of its best
    shard, None when it shares no indexed bigram."""
    (shard,), (score,) = retrieval._rank(index, [index.encode(words)])
    return (int(shard), float(score)) if shard >= 0 else None


def align(query, reference):
    """``retrieval._align`` of one pair of word lists, interned here into
    one vocabulary as an index interns a book."""
    ids = {}
    both = np.array([ids.setdefault(w, len(ids)) for w in [*query, *reference]], dtype=np.int32)
    return next(retrieval._align([both[: len(query)]], both, [(len(query), len(both))], len(ids)))


def align_ids(query_ids, ref_ids, n_ids):
    """``retrieval._align`` of encoded query ids against all of ``ref_ids``."""
    return next(retrieval._align([query_ids], ref_ids, [(0, len(ref_ids))], n_ids))


def transcript(index, pseudo_words):
    """``retrieval._transcripts`` of one label: (words, book word span), or
    None when nothing matches."""
    return next(retrieval._transcripts(index, [list(pseudo_words)]))


def book_index(words, shard_size=1250, stride=1000):
    """The index of one book, sharded as retrieval shards it."""
    return TfIdfIndex(words, shard_spans(len(words), shard_size, stride))


def texts_index(texts):
    """An index whose shards are ``texts`` laid end to end, one span each."""
    ends = np.cumsum([len(t) for t in texts]).tolist()
    return TfIdfIndex([w for t in texts for w in t], list(zip([0, *ends[:-1]], ends)))


# -- sharding ----------------------------------------------------------------


def test_shard_arithmetic_3000_words():
    assert shard_spans(3000) == [(0, 1250), (1000, 2250), (2000, 3000)]


def test_shard_short_book():
    assert shard_spans(800) == [(0, 800)]


def test_shard_empty_book():
    assert shard_spans(0) == []


def test_shard_rejects_bad_stride():
    with pytest.raises(ValueError):
        shard_spans(1, shard_size=100, shard_stride=200)
    with pytest.raises(ValueError):
        shard_spans(1, shard_size=100, shard_stride=0)


def test_shard_coverage_oracle():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 6000)
        spans = shard_spans(n)
        covered = set()
        for start, end in spans:
            assert 0 < end - start <= 1250
            covered |= set(range(start, end))
        assert covered == set(range(n))
        # consecutive shards start exactly one stride apart
        assert [start for start, _ in spans] == [i * 1000 for i in range(len(spans))]


# -- tf-idf index ------------------------------------------------------------


def stored_bigrams(index):
    """The index's stored arrays decoded by bigram words: {gram: df},
    {gram: idf} and {gram: [(shard, weight), ...]} of the grams of nonzero
    idf, whose weights are all the nonzero ones."""
    words = list(index.vocab)
    left, right = np.divmod(index.grams, len(words))
    grams = [(words[a], words[b]) for a, b in zip(left.tolist(), right.tolist())]
    ptr, shard, weight = index.ptr.tolist(), index.post_shard.tolist(), index.post_weight.tolist()
    postings = {
        gram: list(zip(shard[a:b], weight[a:b]))
        for gram, a, b, idf in zip(grams, ptr, ptr[1:], index.gram_idf.tolist())
        if idf != 0.0
    }
    return (dict(zip(grams, index.gram_df.tolist())), dict(zip(grams, index.gram_idf.tolist())),
            postings)


def test_single_shard_degenerates_to_tf_mode():
    index = book_index(["a", "b", "a", "b", "c"])
    assert not stored_bigrams(index)[2]  # all idf zero, every weighted entry pruned
    hit = rank(index, ["a", "b"])
    assert hit  # a match, not "no match"
    assert hit[0] == 0


def test_everywhere_bigram_query_falls_back_to_tf():
    # two shards sharing the query's every bigram: weighted weights all
    # vanish (idf = ln(2/2) = 0) but the query must still land
    common = "x y x y x y".split()
    index = texts_index([common + ["p", "q"], common * 3])
    hit = rank(index, ["x", "y", "x"])
    assert hit
    assert hit[0] == 1  # more raw occurrences


def test_bigram_in_every_shard_has_zero_idf():
    texts = [["x", "y"] + [f"u{i}", f"v{i}"] for i in range(3)]
    _df, idf, postings = stored_bigrams(texts_index(texts))
    assert idf[("x", "y")] == 0.0
    assert ("x", "y") not in postings  # zero entries pruned


def test_vectors_match_counting_oracle():
    shard_texts = [
        "the cat sat on the mat".split(),
        "the cat ran off the mat and the cat".split(),
        "dogs only dogs here no cat sat".split(),
    ]
    index = texts_index(shard_texts)
    vectors, df = count_bigram_vectors(shard_texts)
    got_df, _idf, postings = stored_bigrams(index)
    assert got_df == df
    for i, vec in enumerate(vectors):
        got = {
            g: w
            for g, posting in postings.items()
            for s, w in posting
            if s == i
            for w in [w]
        }
        assert set(got) == set(vec)
        for g in vec:
            assert got[g] == pytest.approx(vec[g], abs=1e-12)
        assert index.norms[i] == pytest.approx(
            math.sqrt(sum(w * w for w in vec.values())), abs=1e-12
        )


def make_indexed_book(rng, n_words=4000, shard_size=200, stride=160):
    words = random_words(rng, n_words)
    return words, book_index(words, shard_size, stride)


def test_verbatim_query_ranks_source_shard_first():
    rng = random.Random(2)
    words, index = make_indexed_book(rng)
    start, _end = index.spans[7]
    query = words[start + 40 : start + 90]
    assert rank(index, query)[0] == 7


def test_no_shared_bigram_returns_no_match_status():
    rng = random.Random(3)
    _, index = make_indexed_book(rng)
    assert rank(index, ["zzz", "qqq", "xxx"]) is None
    # one-word query cannot form a bigram either
    assert rank(index, ["zzz"]) is None


def test_noisy_query_matches_exhaustive_cosine_oracle():
    rng = random.Random(7)
    shard_texts = [random_words(rng, 120) for _ in range(20)]
    index = texts_index(shard_texts)
    query = list(shard_texts[13])
    for i in range(len(query)):
        if rng.random() < 0.10:
            query[i] = rng.choice(VOCAB)
    shard, score = rank(index, query)
    assert shard == 13
    oracle_scores = exhaustive_cosine_scores(shard_texts, query)
    expected_top = max(range(20), key=lambda i: (oracle_scores[i], -i))
    assert shard == expected_top
    assert score == pytest.approx(oracle_scores[13], abs=1e-9)


def near_tie_shards(seed):
    """Two rotations of one cyclic word sequence hold the same bigram counts,
    so their cosines against a query differ only by the order in which
    their norms add up; six more shards vary the document frequencies."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(10)]
    cycle = [rng.choice(words) for _ in range(60)]
    r = rng.randrange(1, 60)
    texts = [cycle + cycle[:1], cycle[r:] + cycle[:r] + cycle[r : r + 1]]
    texts += [[rng.choice(words) for _ in range(rng.randint(5, 40))] for _ in range(6)]
    return texts, cycle[rng.randrange(0, 20) :][:35]


def test_near_tie_cosines_follow_the_sequential_sum():
    texts, query = near_tie_shards(2)
    oracle = exhaustive_cosine_scores(texts, query)
    assert oracle[0] != oracle[1] and abs(oracle[0] - oracle[1]) <= 4 * math.ulp(oracle[0])
    assert max(oracle[2:]) < min(oracle[:2])
    sequential = ranked_shards(texts, query)  # one bigram at a time, in query order
    winner = max(range(len(texts)), key=lambda i: (oracle[i], -i))
    assert sequential[0] == (winner, oracle[winner])
    index = texts_index(texts)
    batch = [query[5:], query, list(reversed(query)), texts[4]]
    shards, scores = retrieval._rank(index, [index.encode(q) for q in batch])
    ranked = list(zip(shards.tolist(), scores.tolist()))
    assert ranked == [ranked_shards(texts, q)[0] for q in batch]
    assert ranked[1] == (winner, oracle[winner])  # same shard, bit-equal score
    assert rank(index, query) == ranked[1]  # a batch of one ranks the same


# -- smith-waterman ----------------------------------------------------------


def ops_kinds(result):
    return list(result.path)


def test_identical_five_words():
    words = "a b c d e".split()
    result = align(words, words)
    assert result.score == 10
    assert result.ref_span == (0, 5)
    assert result.query_span == (0, 5)
    assert ops_kinds(result) == ["m"] * 5


def test_abc_against_xabdcy_frozen_from_enumeration():
    # enumeration oracle value: align "a b c" onto "a b d c" (one deletion)
    result = align("a b c".split(), "x a b d c y".split())
    assert result.score == 5
    assert result.score == enumerate_local_alignment_score(
        "a b c".split(), "x a b d c y".split()
    )
    assert result.ref_span == (1, 5)
    assert ops_kinds(result) == ["m", "m", "d", "m"]


def test_empty_sequences_rejected():
    """An empty pseudo label or an empty book never reaches the aligner:
    its segment is a miss of ``retrieve_candidates``."""
    rows = [ManifestRow(sid, book, "ch", "spk", "F", 0, 1, text) for sid, book, text in (
        ("s0", "b", ""), ("s1", "empty", "a b c"), ("s2", "b", "a b c"))]
    candidates, misses = retrieve_candidates({"b": "x a b c y".split(), "empty": []}, rows)
    assert misses == 2
    assert [(c.segment_id, c.words) for c in candidates] == [("s2", ("a", "b", "c"))]


def test_nothing_in_common_scores_zero():
    result = align(["a", "b"], ["x", "y", "z"])
    assert result.score == 0
    assert result.path == ""


def replay_ops(result, query, reference):
    """The path, walked from the spans' starts, must replay to exactly the
    aligned query span and ref span."""
    q_out, r_out = [], []
    i, j = result.query_span[0], result.ref_span[0]
    for step in result.path:
        if step in "ms":
            q_out.append(query[i])
            r_out.append(reference[j])
            if step == "m":
                assert query[i] == reference[j]
            else:
                assert query[i] != reference[j]
            i, j = i + 1, j + 1
        elif step == "i":
            q_out.append(query[i])
            i += 1
        else:
            assert step == "d"
            r_out.append(reference[j])
            j += 1
    assert q_out == list(query[result.query_span[0] : result.query_span[1]])
    assert r_out == list(reference[result.ref_span[0] : result.ref_span[1]])


def test_score_identity_and_replay_over_seeds():
    rng = random.Random(101)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(100):
        q = random_words(rng, rng.randint(1, 12), alphabet)
        r = random_words(rng, rng.randint(1, 40), alphabet)
        result = align(q, r)
        kinds = ops_kinds(result)
        assert result.score == (
            2 * kinds.count("m")
            - kinds.count("s")
            - kinds.count("i")
            - kinds.count("d")
        )
        replay_ops(result, q, r)


def test_dp_score_equals_enumeration_oracle_100_seeds():
    alphabet = ["a", "b", "c", "d"]
    for seed in range(100):
        rng = random.Random(seed)
        q = random_words(rng, rng.randint(1, 12), alphabet)
        r = random_words(rng, rng.randint(1, 40), alphabet)
        expected = enumerate_local_alignment_score(q, r)
        assert align(q, r).score == expected, (q, r)
        assert full_window_smith_waterman(q, r)[0] == expected, (q, r)


def test_score_symmetric_under_swap():
    rng = random.Random(55)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(50):
        q = random_words(rng, rng.randint(1, 10), alphabet)
        r = random_words(rng, rng.randint(1, 20), alphabet)
        assert align(q, r).score == align(r, q).score


def test_tie_break_prefers_earliest_then_shortest_span():
    # "a b" occurs twice; earliest occurrence wins
    result = align(["a", "b"], ["x", "a", "b", "y", "a", "b"])
    assert result.ref_span == (1, 3)


def test_id_kernel_equals_string_alignment():
    """The retrieval path aligns the book's interned ids against the pseudo
    label encoded in the book's vocabulary; it must give exactly the string
    alignment, including tie-broken spans and query words the book lacks."""
    rng = random.Random(303)
    for _ in range(200):
        ref = random_words(rng, rng.randint(1, 120), ["a", "b", "c", "d"])
        q = random_words(rng, rng.randint(1, 15), ["a", "b", "c", "d", "x", "y"])
        index = book_index(ref, shard_size=50, stride=40)
        assert index.book_ids.tolist() == index.encode(ref).tolist()
        by_ids = align_ids(index.encode(q), index.book_ids, len(index.vocab))
        assert by_ids == align(q, ref), (q, ref)


def test_id_kernel_tie_break_over_equal_score_cells():
    ref = ["a", "b", "x", "a", "b", "y", "a", "b"]
    q = ["zz", "a", "b", "zz"]
    index = book_index(ref)
    assert index.encode(q).tolist() == [-1, 0, 1, -1]  # "zz" is absent from the book
    by_ids = align_ids(index.encode(q), index.book_ids, len(index.vocab))
    assert by_ids == align(q, ref)
    assert (by_ids.score, by_ids.ref_span, by_ids.query_span) == (4, (0, 2), (1, 3))
    # equal-score end cells in different query rows: the later row's
    # alignment starts earlier in the reference and wins
    crossed = align(["b", "a"], ["a", "z", "b"])
    assert (crossed.score, crossed.ref_span, crossed.query_span) == (2, (0, 1), (1, 2))


def as_oracle(result):
    """An AlignmentResult in the reference kernel's tuple form."""
    return result.score, result.ref_span, result.query_span, result.path


def column_runs(query, reference, match=2, other=-1):
    """(start, end, bound) of each maximal run of reference columns whose
    alignment bound is positive: the best suffix sum of ``match`` (column
    word in the query) or ``other``, capped at match * len(query)."""
    words, runs, best = set(query), [], 0
    for j, word in enumerate(reference):
        best = max(0, best + (match if word in words else other))
        bound = min(best, match * len(query))
        if bound <= 0:
            continue
        if runs and runs[-1][1] == j:
            runs[-1][1:] = [j + 1, max(runs[-1][2], bound)]
        else:
            runs.append([j, j + 1, bound])
    return [tuple(run) for run in runs]


def filler(n, tag="f"):
    return [f"{tag}{k}" for k in range(n)]


def test_kernel_matches_full_window_across_several_runs():
    q = "a b c d e f".split()
    ref = filler(20) + ["a", "b", "x", "c"] + filler(30) + ["d", "e", "f"] + filler(25) + ["b"]
    assert len(column_runs(q, ref)) == 3
    assert as_oracle(align(q, ref)) == full_window_smith_waterman(q, ref)


def test_equal_scores_in_far_apart_runs_keep_the_earliest_start():
    q = "a b c d".split()
    # the later run has the higher bound ("c a b c"), so it is aligned
    # first; the earlier run's equal-score alignment must still win
    ref = filler(10) + ["a", "b", "c"] + filler(200) + ["c", "a", "b", "c"] + filler(10)
    runs = column_runs(q, ref)
    assert [bound for _, _, bound in runs] == [6, 8]
    result = align(q, ref)
    assert as_oracle(result) == full_window_smith_waterman(q, ref)
    assert (result.score, result.ref_span, result.query_span) == (6, (10, 13), (0, 3))


def test_zero_score_when_no_column_can_score():
    for q, ref in ((["a", "b"], filler(50)), (["a"], ["b"])):
        expected = full_window_smith_waterman(q, ref)
        assert as_oracle(align(q, ref)) == expected
    assert column_runs(["a", "b"], filler(50)) == []
    ids = np.array([ABSENT_ID, ABSENT_ID], dtype=np.int32)
    assert align_ids(ids, np.arange(40, dtype=np.int32), 40).score == 0


def test_single_run_covering_the_whole_window():
    rng = random.Random(7)
    q = random_words(rng, 8, ["a", "b", "c"])
    ref = random_words(rng, 300, ["a", "b", "c"])
    assert [run[:2] for run in column_runs(q, ref)] == [(0, 300)]
    assert as_oracle(align(q, ref)) == full_window_smith_waterman(q, ref)


def test_kernel_matches_full_window_on_seeded_windows():
    """Book-like windows: rare query words in long stretches of filler,
    copied query fragments with substitutions, insertions and deletions,
    query words the book lacks (ABSENT_ID), on the id and string paths."""
    absent = several_runs = 0
    for seed in range(300):
        rng = random.Random(seed)
        vocab = [f"w{k}" for k in range(rng.choice([5, 40, 400]))]
        ref = random_words(rng, rng.randint(1, 600), vocab)
        q = random_words(rng, rng.randint(1, 30), vocab + ["absent1", "absent2"])
        for _ in range(rng.randint(0, 3)):  # plant noisy copies of query fragments
            lo = rng.randrange(len(q))
            piece = [
                rng.choice(vocab) if w.startswith("absent") or rng.random() < 0.2 else w
                for w in q[lo:]
            ]
            if rng.random() < 0.5:
                del piece[rng.randrange(len(piece))]
            at = rng.randint(0, len(ref))
            ref[at:at] = piece
        index = book_index(ref, shard_size=200, stride=150)
        q_ids = index.encode(q)
        expected = full_window_smith_waterman(q_ids, index.book_ids)
        assert as_oracle(align_ids(q_ids, index.book_ids, len(index.vocab))) == expected, seed
        assert as_oracle(align(q, ref)) == expected, seed
        absent += ABSENT_ID in q_ids.tolist()
        several_runs += len(column_runs(q, ref)) > 1
    assert absent >= 100 and several_runs >= 100


def test_batched_aligner_matches_full_window_per_entry(monkeypatch):
    """One batch of windows over one book: varied query and window lengths,
    a query no column can score, a best score in a run of lower bound,
    equal scores in far-apart runs, several table and bound chunks, and
    queries over a stretch of two words, where many cells of several rows
    of one padded table tie for the best score."""
    monkeypatch.setattr(retrieval, "CHUNK", 1 << 12)
    rng = random.Random(12)
    vocab = [f"w{k}" for k in range(60)]
    book = random_words(rng, 4000, vocab)
    two_rng, two_words = random.Random(13), ["t0", "t1"]
    book[3600:3900] = random_words(two_rng, 300, two_words)
    second_run = "p0 p1 p2 p3 p4 p5 p6 p7".split()
    book[500:508] = reversed(second_run)  # the higher bound, a low score
    book[800:805] = second_run[:5]
    far_tie = "q0 q1 q2 q3".split()
    book[1500:1503] = far_tie[:3]
    book[2700:2704] = ["q2", "q0", "q1", "q2"]
    index = book_index(book, shard_size=500, stride=400)
    entries = [(second_run, (400, 1000)), (far_tie, (1400, 2800)), (["zz", "yy"], (0, 300))]
    for _ in range(60):
        start = rng.randrange(0, 3500)
        window = (start, min(len(book), start + rng.choice([20, 150, 600])))
        q = random_words(rng, rng.randint(1, 40), vocab + ["absent"])
        if rng.random() < 0.7:  # a noisy copy of the window's text
            at = rng.randrange(*window)
            q = [w if rng.random() < 0.8 else rng.choice(vocab) for w in book[at : at + len(q)]] or q
        entries.append((q, window))
    entries.append((entries[5][0][::-1], entries[5][1]))  # a second query on a shared window
    for n_words in (3, 8, 16, 24, 40):  # mostly longer than their windows
        start = two_rng.randrange(3600, 3850)
        entries.append((random_words(two_rng, n_words, two_words),
                        (start, start + two_rng.choice([4, 6, 9, 50]))))
    entries.append((["t0"] * 12, (3700, 3720)))  # every row from its longest t0 run's length on
    queries = [index.encode(q) for q, _ in entries]
    windows = [w for _, w in entries]
    got = list(retrieval._align(queries, index.book_ids, windows, len(index.vocab)))
    for (q, (a, b)), result in zip(entries, got):
        assert as_oracle(result) == full_window_smith_waterman(index.encode(q), index.book_ids[a:b])
    runs = column_runs(second_run, book[400:1000])
    assert max(runs, key=lambda r: r[2])[0] == 100 and got[0].ref_span == (400, 405)
    assert got[1].ref_span == (100, 103) and got[1].score == 6
    assert got[2].score == 0


# -- number replacement ------------------------------------------------------


def test_replace_numbers_multiword_reading():
    # minimal alignment relating the two texts (on a span this short, a
    # local aligner would legitimately keep only one matched word)
    matched = "chapter 401 begins".split()
    pseudo = "chapter four o one begins".split()
    aligned = AlignmentResult(score=1, ref_span=(0, 3), query_span=(0, 5), path="msiim")
    assert replace_numbers(aligned, matched, pseudo) == (
        "chapter four o one begins".split()
    )


def test_replace_numbers_multiword_reading_from_real_alignment():
    matched = "when the chapter 401 begins we read on".split()
    pseudo = "when the chapter four o one begins we read on".split()
    aligned = align(pseudo, matched)
    assert replace_numbers(aligned, matched, pseudo) == pseudo


def test_replace_numbers_identity_without_digits():
    matched = "plain words only here".split()
    pseudo = "plain words only here".split()
    aligned = align(pseudo, matched)
    assert replace_numbers(aligned, matched, pseudo) == matched


def test_replace_numbers_drops_unread_page_number():
    matched = "the story ends 142 the next begins".split()
    pseudo = "the story ends the next begins".split()
    aligned = align(pseudo, matched)
    assert replace_numbers(aligned, matched, pseudo) == pseudo


def test_replace_numbers_output_has_no_digits_when_aligned():
    rng = random.Random(17)
    for _ in range(30):
        base = random_words(rng, 20, ["alpha", "beta", "gamma", "delta"])
        matched = list(base)
        pseudo = list(base)
        spot = rng.randrange(2, 18)
        matched[spot] = str(rng.randint(1, 999))
        pseudo[spot] = "spoken"
        aligned = align(pseudo, matched)
        out = replace_numbers(aligned, matched, pseudo)
        assert not any(c.isdigit() for w in out for c in w)


BOOK_WORDS = ["the", "story", "ends", "401", "7th", "1999", "p12"]
SPOKEN_WORDS = ["four", "o", "one", "seventh", "the", "story", "uh"]


def random_alignment(rng):
    """A well-formed local alignment of random book and spoken words: a
    path whose spans start after a few unaligned words on either side."""
    ref = [rng.choice(BOOK_WORDS) for _ in range(rng.randint(0, 2))]
    query = [rng.choice(SPOKEN_WORDS) for _ in range(rng.randint(0, 2))]
    ref_start, query_start = len(ref), len(query)
    path = ""
    for _ in range(rng.randint(0, 16)):
        step = rng.choice("msid")
        if step != "i":
            ref.append(rng.choice(BOOK_WORDS))
        if step != "d":
            query.append(ref[-1] if step == "m" else rng.choice(SPOKEN_WORDS))
        path += step
    ref_span, query_span = (ref_start, len(ref)), (query_start, len(query))
    ref += [rng.choice(BOOK_WORDS) for _ in range(rng.randint(0, 2))]
    query += [rng.choice(SPOKEN_WORDS) for _ in range(rng.randint(0, 2))]
    aligned = AlignmentResult(score=0, ref_span=ref_span, query_span=query_span, path=path)
    return aligned, ref, query


def digit_blocks(aligned, ref):
    """The maximal blocks of insertions and steps on digit-bearing book
    words, each as its path letters."""
    blocks, block, j = [], "", aligned.ref_span[0]
    for step in aligned.path:
        if step == "i" or any(c.isdigit() for c in ref[j]):
            block += step
        elif block:
            blocks.append(block)
            block = ""
        j += step != "i"
    return blocks + [block] if block else blocks


def test_replace_numbers_matches_scanning_oracle():
    rng = random.Random(2024)
    seen = dict(digit=0, insertions_only=0, deletions_only=0, several_digit_words=0)
    for _ in range(3000):
        aligned, ref, query = random_alignment(rng)
        expected = scan_replace_numbers(as_oracle(aligned), ref, query)
        assert replace_numbers(aligned, ref, query) == expected
        for block in digit_blocks(aligned, ref):
            on_book = [step for step in block if step != "i"]
            seen["digit"] += bool(on_book)
            seen["insertions_only"] += not on_book
            seen["deletions_only"] += all(step == "d" for step in block)
            seen["several_digit_words"] += len(on_book) > 1
    assert min(seen.values()) >= 200, seen


# -- rare wordform fixes -----------------------------------------------------


def test_frequent_hyphen_form_kept():
    assert fix_rare_wordforms(["well-known"], {"well-known": 500}, 5) == ["well-known"]


def test_rare_double_hyphen_split():
    assert fix_rare_wordforms(["sea--shine"], {"sea--shine": 1}, 5) == ["sea", "shine"]


def test_rare_apostrophe_stripped_when_stripped_form_frequent():
    freq = {"to't": 1, "tot": 50}
    assert fix_rare_wordforms(["to't"], freq, 5) == ["tot"]


def test_rare_apostrophe_kept_when_stripped_form_also_rare():
    freq = {"co'": 1, "co": 1}
    assert fix_rare_wordforms(["co'"], freq, 5) == ["co'"]


def test_wordforms_match_rule_replay_on_synthetic_books():
    rng = random.Random(23)
    plain = [f"word{i}" for i in range(40)]
    special = ["well-known", "sea--shine", "to't", "gen'rous", "re-use", "o'er"]
    books = {}
    for b in range(50):
        n = rng.randint(30, 120)
        words = [rng.choice(plain + special[: rng.randint(0, len(special))]) for _ in range(n)]
        books[f"book{b}"] = words
    freq = build_book_frequencies(books.values())
    text = [rng.choice(plain + special) for _ in range(400)]
    assert fix_rare_wordforms(text, freq, 3) == replay_wordform_rules(text, freq, 3)


# each form with its output when it is rare and its apostrophe-stripped form frequent
WORDFORM_CASES = {
    "sea": ["sea"],
    "sea-shine": ["sea", "shine"],
    "sea‐shine": ["sea", "shine"],
    "sea--shine": ["sea", "shine"],
    "o'er-the": ["o'er", "the"],
    "sea‐o’er": ["sea", "o’er"],
    "to't": ["tot"],
    "o’er": ["oer"],
    "'": ["'"],
}


@pytest.mark.parametrize("word, rare_form_output", WORDFORM_CASES.items(), ids=list(WORDFORM_CASES))
def test_wordform_cases_match_rule_replay(word, rare_form_output):
    """Each form against an absent, rare and frequent count of itself and
    of its stripped form (for a lone apostrophe, the empty word)."""
    stripped = word.replace("'", "").replace("’", "")
    for own, bare in itertools.product((None, 1, 3), repeat=2):
        freq = {form: n for form, n in ((stripped, bare), (word, own)) if n is not None}
        expected = replay_wordform_rules([word], freq, 3)
        assert fix_rare_wordforms([word], freq, 3) == expected, (own, bare)
        if (own, bare) == (1, 3):
            assert expected == rare_form_output


def test_build_book_frequencies_counts_distinct_books():
    books = {"a": ["x", "x", "y"], "b": ["x"], "c": ["y"]}
    assert build_book_frequencies(books.values()) == {"x": 2, "y": 2}


# -- wer ----------------------------------------------------------------------


def test_wer_identical():
    assert wer("a b c".split(), "a b c".split()) == 0.0


def test_wer_one_substitution():
    assert wer("a x c".split(), "a b c".split()) == pytest.approx(1 / 3)


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError):
        wer(["a"], [])


def test_wer_matches_brute_force_edit_search_200_pairs():
    alphabet = ["a", "b", "c", "d"]
    for seed in range(200):
        rng = random.Random(seed)
        hyp = random_words(rng, rng.randint(0, 12), alphabet)
        ref = random_words(rng, rng.randint(1, 12), alphabet)
        assert edit_distance(hyp, ref) == edit_script_minimum(hyp, ref), (hyp, ref)


def _edited(rng, words, vocab, n_edits):
    out = list(words)
    for _ in range(n_edits):
        pos = rng.randint(0, len(out))
        kind = rng.choice(("sub", "ins", "del")) if out else "ins"
        if kind == "ins":
            out.insert(pos, rng.choice(vocab))
        elif kind == "del":
            del out[min(pos, len(out) - 1)]
        else:
            out[min(pos, len(out) - 1)] = rng.choice(vocab)
    return out


def test_bit_parallel_edit_distance_matches_oracles_across_word_widths():
    """Lengths around 64 and beyond exercise bit vectors wider than one
    machine word; a two-word vocabulary repeats words heavily."""
    rng = random.Random(404)
    lengths = (0, 1, 63, 64, 65, 200)
    for vocab in (["a", "b"], VOCAB):
        for n in lengths:
            a = random_words(rng, n, vocab)
            for m in lengths:
                b = random_words(rng, m, vocab)
                assert edit_distance(a, b) == full_matrix_edit_distance(a, b), (n, m)
                if m:
                    assert wer(a, b) == full_matrix_edit_distance(a, b) / m
            near = _edited(rng, a, vocab, 3)
            assert edit_distance(a, near) == edit_script_minimum(a, near), (a, near)
            if near:
                assert wer(a, near) == edit_script_minimum(a, near) / len(near)
            # equal sequences, one a prefix or suffix of the other, and a
            # shared prefix and suffix around one edit: what the stripping
            # of the common ends meets
            head, tail = a[: n // 2], a[n // 2 :]
            cases = [(a, list(a)), (a, head), (head, a), (a, tail), (tail, a)]
            if a:
                i = rng.randrange(n)
                cases += [(a, a[:i] + ["zz"] + a[i + 1 :]), (a, a[:i] + a[i + 1 :]),
                          (a, a[:i] + ["zz"] + a[i:])]
            for x, y in cases:
                assert edit_distance(x, y) == full_matrix_edit_distance(x, y), (x, y)


def test_bit_parallel_edit_distance_disjoint_vocabularies():
    rng = random.Random(405)
    for n in (0, 1, 63, 64, 65, 200):
        for m in (0, 1, 63, 64, 65, 200):
            a = random_words(rng, n, VOCAB)
            b = [rng.randint(0, 9) for _ in range(m)]  # any hashable token
            assert edit_distance(a, b) == max(n, m) == full_matrix_edit_distance(a, b)


def test_edit_distance_triangle_inequality():
    rng = random.Random(77)
    alphabet = ["a", "b", "c"]
    for _ in range(100):
        x = random_words(rng, rng.randint(0, 10), alphabet)
        y = random_words(rng, rng.randint(0, 10), alphabet)
        z = random_words(rng, rng.randint(0, 10), alphabet)
        assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)
        assert edit_distance(x, x) == 0
        assert edit_distance(x, y) == edit_distance(y, x)


# -- acceptance ----------------------------------------------------------------


def test_accept_identical():
    cand = accept_candidate("a b c".split(), "a b c".split())
    assert cand.accepted and cand.pseudo_wer == 0.0


def test_reject_three_of_five_different():
    cand = accept_candidate("a b c d e".split(), "a x y z e".split())
    assert cand.pseudo_wer == pytest.approx(0.6)
    assert not cand.accepted


def test_exact_threshold_is_accepted():
    # 2 substitutions over 5 reference words: wer exactly 0.40
    cand = accept_candidate("a b c d e".split(), "a b c x y".split())
    assert cand.pseudo_wer == pytest.approx(0.40)
    assert cand.accepted
    # one more error crosses the strictly-greater line
    worse = accept_candidate("a b c d e".split(), "a b x y z".split())
    assert worse.pseudo_wer > 0.40
    assert not worse.accepted


def test_accept_rejects_empty():
    with pytest.raises(ValueError):
        accept_candidate([], ["a"])


# -- end-to-end recovery -------------------------------------------------------


def test_verbatim_query_recovers_exact_span():
    rng = random.Random(4)
    for _ in range(10):
        words = random_words(rng, rng.randint(1500, 4000))
        index = book_index(words, shard_size=400, stride=320)
        start = rng.randint(0, len(words) - 60)
        query = words[start : start + 40]
        found = transcript(index, query)
        assert found is not None
        cand, span = found
        assert span == (start, start + 40)
        assert cand == query
        assert wer(cand, query) == 0.0


def test_noisy_query_span_wer_bounded_by_noise():
    for seed in range(15):
        rng = random.Random(1000 + seed)
        noise = rng.choice([0.05, 0.1, 0.15, 0.2])
        words = random_words(rng, 3000, WIDE_VOCAB)
        index = book_index(words, shard_size=400, stride=320)
        start = rng.randint(0, len(words) - 80)
        truth = words[start : start + 50]
        query = list(truth)
        for pos in rng.sample(range(50), int(noise * 50)):
            query[pos] = rng.choice(WIDE_VOCAB)
        found = transcript(index, query)
        assert found is not None
        cand, span = found
        assert wer(cand, truth) <= noise


def read_books(directory) -> dict[str, list[str]]:
    """book_id -> words of every normalized ``<book_id>.txt`` in a directory."""
    return {path.stem: path.read_text(encoding="utf-8").split()
            for path in sorted(Path(directory).glob("*.txt"))}


@pytest.mark.parametrize("noise", [0.15, 0.6])
def test_retrieve_candidates_equals_per_segment_oracle(tmp_path, noise):
    synth_corpus(tmp_path / "input", seed=23, params=SynthParams(
        n_books=4, words_per_book=2400, speakers_per_gender=2, noise=noise))
    cfg = PipelineConfig(input_dir=str(tmp_path / "input"), output_dir=str(tmp_path / "out"))
    run_pipeline(cfg, until_stage="segment")
    work = tmp_path / "out" / "work"
    books = read_books(work / "normalize")
    segments = read_manifest(work / "segment" / "segments.tsv")
    for shape in ((1250, 1000), (400, 320)):
        got = retrieve_candidates(books, segments, *shape, 0.4)
        expected = per_segment_candidates(books, segments, *shape, 0.4)
        assert got[1] == expected[1]
        assert len(got[0]) == len(expected[0])
        for cand, want in zip(got[0], expected[0]):
            assert cand == want
    assert any(c.pseudo_wer > 0 for c in got[0])


DIGIT_CASES = ("word", "reading", "page")


def digit_edited_books(books, rng, per_case=10):
    """``books`` with digit words written in at seeded positions, as a
    printed book holds them and a reader does not: one word becomes a digit
    word ("word"), three consecutive words become one digit word, read as
    those three ("reading"), and a page number is inserted between two
    words, never read ("page"). Returns the edited books and, per book,
    {position of each written-in digit word: its case}."""
    edited, marks = {}, {}
    for book_id, words in books.items():
        kinds = list(DIGIT_CASES) * per_case
        rng.shuffle(kinds)
        at = sorted(rng.sample(range(8, len(words) - 8, 8), len(kinds)))  # edits never meet
        out, marks[book_id], prev = [], {}, 0
        for pos, kind in zip(at, kinds):
            out += words[prev:pos]
            marks[book_id][len(out)] = kind
            out.append(f"{rng.randint(1, 999)}{rng.choice(['', 'th'])}")
            prev = pos + {"word": 1, "reading": 3, "page": 0}[kind]
        edited[book_id] = out + words[prev:]
    return edited, marks


def test_retrieve_candidates_resolves_digit_words_as_the_oracle(tmp_path):
    synth_corpus(tmp_path / "input", seed=29, params=SynthParams(
        n_books=2, words_per_book=1500, speakers_per_gender=1, noise=0.15))
    cfg = PipelineConfig(input_dir=str(tmp_path / "input"), output_dir=str(tmp_path / "out"))
    run_pipeline(cfg, until_stage="segment")
    work = tmp_path / "out" / "work"
    books, marks = digit_edited_books(read_books(work / "normalize"), random.Random(5))
    segments = read_manifest(work / "segment" / "segments.tsv")
    for shape in ((1250, 1000), (400, 320)):
        got = retrieve_candidates(books, segments, *shape, 0.4)
        assert got == per_segment_candidates(books, segments, *shape, 0.4)
        resolved = dict.fromkeys(DIGIT_CASES, 0)  # candidates whose digit word was resolved away
        for cand in got[0]:
            book_id, (a, b) = cand.source
            for pos, kind in marks[book_id].items():
                resolved[kind] += a <= pos < b and books[book_id][pos] not in cand.words
        assert min(resolved.values()) >= 5, (shape, resolved)
