import math
import random

import numpy as np
import pytest

from corpus_forge import retrieval
from corpus_forge.config import PipelineConfig
from corpus_forge.manifest import read_manifest
from corpus_forge.pipeline import read_books, run_pipeline
from corpus_forge.retrieval import (
    ABSENT_ID,
    AlignmentOp,
    AlignmentResult,
    DocumentShard,
    accept_candidate,
    build_book_frequencies,
    build_index,
    edit_distance,
    fix_rare_wordforms,
    replace_numbers,
    retrieve,
    retrieve_candidates,
    retrieve_transcript,
    shard_book,
    smith_waterman,
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


def random_words(rng, n, vocab=None):
    vocab = vocab or VOCAB
    return [rng.choice(vocab) for _ in range(n)]


# -- sharding ----------------------------------------------------------------


def test_shard_arithmetic_3000_words():
    words = [f"t{i}" for i in range(3000)]
    shards = shard_book(words, "b")
    assert [(s.word_offset, len(s.words)) for s in shards] == [
        (0, 1250),
        (1000, 1250),
        (2000, 1000),
    ]


def test_shard_short_book():
    shards = shard_book([f"t{i}" for i in range(800)], "b")
    assert len(shards) == 1
    assert len(shards[0].words) == 800


def test_shard_empty_book():
    assert shard_book([], "b") == []


def test_shard_rejects_bad_stride():
    with pytest.raises(ValueError):
        shard_book(["a"], "b", shard_size=100, shard_stride=200)


def test_shard_coverage_oracle():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 6000)
        words = [f"t{i}" for i in range(n)]
        shards = shard_book(words, "b")
        covered = set()
        for s in shards:
            covered |= set(range(s.word_offset, s.word_offset + len(s.words)))
        assert covered == set(range(n))
        # consecutive shards start exactly one stride apart
        offsets = [s.word_offset for s in shards]
        assert offsets == [i * 1000 for i in range(len(shards))]


# -- tf-idf index ------------------------------------------------------------


def test_single_shard_degenerates_to_tf_mode():
    shards = shard_book(["a", "b", "a", "b", "c"], "b")
    index = build_index(shards)
    assert not index.postings  # all idf zero, every weighted entry pruned
    result = retrieve(index, ["a", "b"])
    assert result.status == "ok"
    assert result.hits[0].shard.shard_id == 0


def test_everywhere_bigram_query_falls_back_to_tf():
    # two shards sharing the query's every bigram: weighted weights all
    # vanish (idf = ln(2/2) = 0) but the query must still land
    common = "x y x y x y".split()
    shards = [
        shard_book(common + ["p", "q"], "b", 50, 50)[0].__class__(
            shard_id=0, book_id="b", word_offset=0, words=tuple(common + ["p", "q"])
        ),
        shard_book(common, "b", 50, 50)[0].__class__(
            shard_id=1, book_id="b", word_offset=0, words=tuple(common * 3)
        ),
    ]
    index = build_index(shards)
    result = retrieve(index, ["x", "y", "x"])
    assert result.status == "ok"
    assert result.hits[0].shard.shard_id == 1  # more raw occurrences


def test_bigram_in_every_shard_has_zero_idf():
    texts = [["x", "y"] + [f"u{i}", f"v{i}"] for i in range(3)]
    shards = [
        shard_book(t, "b", shard_size=10, shard_stride=10)[0] for t in texts
    ]
    shards = [
        type(s)(shard_id=i, book_id="b", word_offset=0, words=s.words)
        for i, s in enumerate(shards)
    ]
    index = build_index(shards)
    assert index.idf[("x", "y")] == 0.0
    assert ("x", "y") not in index.postings  # zero entries pruned


def test_vectors_match_counting_oracle():
    shard_texts = [
        "the cat sat on the mat".split(),
        "the cat ran off the mat and the cat".split(),
        "dogs only dogs here no cat sat".split(),
    ]
    shards = []
    for i, words in enumerate(shard_texts):
        shards.append(
            shard_book(words, "b", shard_size=50, shard_stride=50)[0].__class__(
                shard_id=i, book_id="b", word_offset=0, words=tuple(words)
            )
        )
    index = build_index(shards)
    vectors, df = count_bigram_vectors(shard_texts)
    assert index.df == df
    for i, vec in enumerate(vectors):
        got = {
            g: w
            for g, posting in index.postings.items()
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
    shards = shard_book(words, "b", shard_size=shard_size, shard_stride=stride)
    return words, shards, build_index(shards)


def test_verbatim_query_ranks_source_shard_first():
    rng = random.Random(2)
    words, shards, index = make_indexed_book(rng)
    shard = shards[7]
    query = list(shard.words[40:90])
    result = retrieve(index, query)
    assert result.status == "ok"
    assert result.hits[0].shard.shard_id == 7


def test_no_shared_bigram_returns_no_match_status():
    rng = random.Random(3)
    _, _, index = make_indexed_book(rng)
    result = retrieve(index, ["zzz", "qqq", "xxx"])
    assert result.status == "no_match"
    assert result.hits == []
    # one-word query cannot form a bigram either
    assert retrieve(index, ["zzz"]).status == "no_match"


def test_noisy_query_matches_exhaustive_cosine_oracle():
    rng = random.Random(7)
    shard_texts = [random_words(rng, 120) for _ in range(20)]
    shards = []
    for i, words in enumerate(shard_texts):
        shards.append(
            shard_book(words, "b", shard_size=200, shard_stride=200)[0].__class__(
                shard_id=i, book_id="b", word_offset=0, words=tuple(words)
            )
        )
    index = build_index(shards)
    query = list(shard_texts[13])
    for i in range(len(query)):
        if rng.random() < 0.10:
            query[i] = rng.choice(VOCAB)
    result = retrieve(index, query, top_k=3)
    assert result.status == "ok"
    assert result.hits[0].shard.shard_id == 13
    oracle_scores = exhaustive_cosine_scores(shard_texts, query)
    expected_top = max(range(20), key=lambda i: (oracle_scores[i], -i))
    assert result.hits[0].shard.shard_id == expected_top
    assert result.hits[0].score == pytest.approx(oracle_scores[13], abs=1e-9)


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
    index = build_index([DocumentShard(i, "b", 0, tuple(t)) for i, t in enumerate(texts)])
    batch = [query[5:], query, list(reversed(query)), texts[4]]
    ranked = retrieval._rank(index, [index.encode(q) for q in batch], 2)
    assert ranked == [ranked_shards(texts, q)[:2] for q in batch]
    assert ranked[1][0] == (winner, oracle[winner])  # same shard, bit-equal score
    assert [(h.shard.shard_id, h.score) for h in retrieve(index, query, top_k=2).hits] == ranked[1]


# -- smith-waterman ----------------------------------------------------------


def ops_kinds(result):
    return [op.kind for op in result.ops]


def test_identical_five_words():
    words = "a b c d e".split()
    result = smith_waterman(words, words)
    assert result.score == 10
    assert result.ref_span == (0, 5)
    assert result.query_span == (0, 5)
    assert ops_kinds(result) == ["match"] * 5


def test_abc_against_xabdcy_frozen_from_enumeration():
    # enumeration oracle value: align "a b c" onto "a b d c" (one deletion)
    result = smith_waterman("a b c".split(), "x a b d c y".split())
    assert result.score == 5
    assert result.score == enumerate_local_alignment_score(
        "a b c".split(), "x a b d c y".split()
    )
    assert result.ref_span == (1, 5)
    assert ops_kinds(result) == ["match", "match", "delete", "match"]


def test_empty_sequences_rejected():
    with pytest.raises(ValueError):
        smith_waterman([], ["a"])
    with pytest.raises(ValueError):
        smith_waterman(["a"], [])
    with pytest.raises(ValueError):  # scores that would overflow the int32 table
        smith_waterman(["a"], ["a"], gap=-(2**30))


def test_nothing_in_common_scores_zero():
    result = smith_waterman(["a", "b"], ["x", "y", "z"])
    assert result.score == 0
    assert result.ops == ()


def replay_ops(result, query, reference):
    """Ops must replay to exactly the aligned query span and ref span."""
    q_out, r_out = [], []
    for op in result.ops:
        if op.kind in ("match", "substitute"):
            q_out.append(query[op.query_index])
            r_out.append(reference[op.ref_index])
            if op.kind == "match":
                assert query[op.query_index] == reference[op.ref_index]
            else:
                assert query[op.query_index] != reference[op.ref_index]
        elif op.kind == "insert":
            q_out.append(query[op.query_index])
        else:
            r_out.append(reference[op.ref_index])
    assert q_out == list(query[result.query_span[0] : result.query_span[1]])
    assert r_out == list(reference[result.ref_span[0] : result.ref_span[1]])


def test_score_identity_and_replay_over_seeds():
    rng = random.Random(101)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(100):
        q = random_words(rng, rng.randint(1, 12), alphabet)
        r = random_words(rng, rng.randint(1, 40), alphabet)
        result = smith_waterman(q, r)
        kinds = ops_kinds(result)
        assert result.score == (
            2 * kinds.count("match")
            - kinds.count("substitute")
            - kinds.count("insert")
            - kinds.count("delete")
        )
        replay_ops(result, q, r)


def test_dp_score_equals_enumeration_oracle_100_seeds():
    alphabet = ["a", "b", "c", "d"]
    for seed in range(100):
        rng = random.Random(seed)
        q = random_words(rng, rng.randint(1, 12), alphabet)
        r = random_words(rng, rng.randint(1, 40), alphabet)
        expected = enumerate_local_alignment_score(q, r)
        assert smith_waterman(q, r).score == expected, (q, r)
        assert full_window_smith_waterman(q, r)[0] == expected, (q, r)


def test_score_symmetric_under_swap():
    rng = random.Random(55)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(50):
        q = random_words(rng, rng.randint(1, 10), alphabet)
        r = random_words(rng, rng.randint(1, 20), alphabet)
        assert smith_waterman(q, r).score == smith_waterman(r, q).score


def test_tie_break_prefers_earliest_then_shortest_span():
    # "a b" occurs twice; earliest occurrence wins
    result = smith_waterman(["a", "b"], ["x", "a", "b", "y", "a", "b"])
    assert result.ref_span == (1, 3)


def test_id_kernel_equals_string_alignment():
    """The retrieval path aligns the book's interned ids against the pseudo
    label encoded in the book's vocabulary; it must give exactly the string
    alignment, including tie-broken spans and query words the book lacks."""
    rng = random.Random(303)
    for _ in range(200):
        ref = random_words(rng, rng.randint(1, 120), ["a", "b", "c", "d"])
        q = random_words(rng, rng.randint(1, 15), ["a", "b", "c", "d", "x", "y"])
        index = build_index(shard_book(ref, "b", shard_size=50, shard_stride=40))
        assert index.book_ids.tolist() == index.encode(ref).tolist()
        assert smith_waterman(index.encode(q), index.book_ids) == smith_waterman(q, ref), (q, ref)


def test_id_kernel_tie_break_over_equal_score_cells():
    ref = ["a", "b", "x", "a", "b", "y", "a", "b"]
    q = ["zz", "a", "b", "zz"]
    index = build_index(shard_book(ref, "b"))
    assert index.encode(q).tolist() == [-1, 0, 1, -1]  # "zz" is absent from the book
    by_ids = smith_waterman(index.encode(q), index.book_ids)
    assert by_ids == smith_waterman(q, ref)
    assert (by_ids.score, by_ids.ref_span, by_ids.query_span) == (4, (0, 2), (1, 3))
    # equal-score end cells in different query rows: the later row's
    # alignment starts earlier in the reference and wins
    crossed = smith_waterman(["b", "a"], ["a", "z", "b"])
    assert (crossed.score, crossed.ref_span, crossed.query_span) == (2, (0, 1), (1, 2))


def as_oracle(result):
    """An AlignmentResult in the reference kernel's tuple form."""
    ops = tuple((op.kind, op.query_index, op.ref_index) for op in result.ops)
    return result.score, result.ref_span, result.query_span, ops


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
    assert as_oracle(smith_waterman(q, ref)) == full_window_smith_waterman(q, ref)


def test_equal_scores_in_far_apart_runs_keep_the_earliest_start():
    q = "a b c d".split()
    # the later run has the higher bound ("c a b c"), so it is aligned
    # first; the earlier run's equal-score alignment must still win
    ref = filler(10) + ["a", "b", "c"] + filler(200) + ["c", "a", "b", "c"] + filler(10)
    runs = column_runs(q, ref)
    assert [bound for _, _, bound in runs] == [6, 8]
    result = smith_waterman(q, ref)
    assert as_oracle(result) == full_window_smith_waterman(q, ref)
    assert (result.score, result.ref_span, result.query_span) == (6, (10, 13), (0, 3))


def test_zero_score_when_no_column_can_score():
    for q, ref in ((["a", "b"], filler(50)), (["a"], ["b"])):
        expected = full_window_smith_waterman(q, ref)
        assert as_oracle(smith_waterman(q, ref)) == expected
    assert column_runs(["a", "b"], filler(50)) == []
    ids = np.array([ABSENT_ID, ABSENT_ID], dtype=np.int32)
    assert smith_waterman(ids, np.arange(40, dtype=np.int32)).score == 0


def test_single_run_covering_the_whole_window():
    rng = random.Random(7)
    q = random_words(rng, 8, ["a", "b", "c"])
    ref = random_words(rng, 300, ["a", "b", "c"])
    assert [run[:2] for run in column_runs(q, ref)] == [(0, 300)]
    assert as_oracle(smith_waterman(q, ref)) == full_window_smith_waterman(q, ref)


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
        index = build_index(shard_book(ref, "b", shard_size=200, shard_stride=150))
        q_ids = index.encode(q)
        expected = full_window_smith_waterman(q_ids, index.book_ids)
        assert as_oracle(smith_waterman(q_ids, index.book_ids)) == expected, seed
        assert as_oracle(smith_waterman(q, ref)) == expected, seed
        absent += ABSENT_ID in q_ids.tolist()
        several_runs += len(column_runs(q, ref)) > 1
    assert absent >= 100 and several_runs >= 100


def test_batched_aligner_matches_full_window_per_entry(monkeypatch):
    """One batch of windows over one book: varied query and window lengths,
    a query no column can score, a best score in a run of lower bound,
    equal scores in far-apart runs, and several table and bound chunks."""
    monkeypatch.setattr(retrieval, "CHUNK", 1 << 12)
    rng = random.Random(12)
    vocab = [f"w{k}" for k in range(60)]
    book = random_words(rng, 4000, vocab)
    second_run = "p0 p1 p2 p3 p4 p5 p6 p7".split()
    book[500:508] = reversed(second_run)  # the higher bound, a low score
    book[800:805] = second_run[:5]
    far_tie = "q0 q1 q2 q3".split()
    book[1500:1503] = far_tie[:3]
    book[2700:2704] = ["q2", "q0", "q1", "q2"]
    index = build_index(shard_book(book, "b", shard_size=500, shard_stride=400))
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
    queries = [index.encode(q) for q, _ in entries]
    windows = [w for _, w in entries]
    got = list(retrieval._align(queries, index.book_ids, windows, len(index.vocab), 2, -1, -1))
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
    from corpus_forge.retrieval import AlignmentResult

    aligned = AlignmentResult(
        score=1,
        ref_span=(0, 3),
        query_span=(0, 5),
        ops=(
            AlignmentOp("match", 0, 0),
            AlignmentOp("substitute", 1, 1),
            AlignmentOp("insert", 2, None),
            AlignmentOp("insert", 3, None),
            AlignmentOp("match", 4, 2),
        ),
    )
    assert replace_numbers(aligned, matched, pseudo) == (
        "chapter four o one begins".split()
    )


def test_replace_numbers_multiword_reading_from_real_alignment():
    matched = "when the chapter 401 begins we read on".split()
    pseudo = "when the chapter four o one begins we read on".split()
    aligned = smith_waterman(pseudo, matched)
    assert replace_numbers(aligned, matched, pseudo) == pseudo


def test_replace_numbers_identity_without_digits():
    matched = "plain words only here".split()
    pseudo = "plain words only here".split()
    aligned = smith_waterman(pseudo, matched)
    assert replace_numbers(aligned, matched, pseudo) == matched


def test_replace_numbers_drops_unread_page_number():
    matched = "the story ends 142 the next begins".split()
    pseudo = "the story ends the next begins".split()
    aligned = smith_waterman(pseudo, matched)
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
        aligned = smith_waterman(pseudo, matched)
        out = replace_numbers(aligned, matched, pseudo)
        assert not any(c.isdigit() for w in out for c in w)


BOOK_WORDS = ["the", "story", "ends", "401", "7th", "1999", "p12"]
SPOKEN_WORDS = ["four", "o", "one", "seventh", "the", "story", "uh"]


def random_alignment(rng):
    """A well-formed local alignment of random book and spoken words: ops
    with consecutive indices, after a few unaligned words on either side."""
    ref = [rng.choice(BOOK_WORDS) for _ in range(rng.randint(0, 2))]
    query = [rng.choice(SPOKEN_WORDS) for _ in range(rng.randint(0, 2))]
    ops = []
    for _ in range(rng.randint(0, 16)):
        kind = rng.choice(("match", "substitute", "insert", "delete"))
        ref_index = query_index = None
        if kind != "insert":
            ref_index = len(ref)
            ref.append(rng.choice(BOOK_WORDS))
        if kind != "delete":
            query_index = len(query)
            query.append(ref[-1] if kind == "match" else rng.choice(SPOKEN_WORDS))
        ops.append(AlignmentOp(kind, query_index, ref_index))
    ref += [rng.choice(BOOK_WORDS) for _ in range(rng.randint(0, 2))]
    query += [rng.choice(SPOKEN_WORDS) for _ in range(rng.randint(0, 2))]
    aligned = AlignmentResult(score=0, ref_span=(0, 0), query_span=(0, 0), ops=tuple(ops))
    return aligned, ref, query


def digit_blocks(aligned, ref):
    """The maximal blocks of insertions and ops on digit-bearing book words."""
    blocks, block = [], []
    for op in aligned.ops:
        if op.kind == "insert" or any(c.isdigit() for c in ref[op.ref_index]):
            block.append(op)
        elif block:
            blocks.append(block)
            block = []
    return blocks + [block] if block else blocks


def test_replace_numbers_matches_scanning_oracle():
    rng = random.Random(2024)
    seen = dict(digit=0, insertions_only=0, deletions_only=0, several_digit_words=0)
    for _ in range(3000):
        aligned, ref, query = random_alignment(rng)
        assert replace_numbers(aligned, ref, query) == scan_replace_numbers(aligned, ref, query)
        for block in digit_blocks(aligned, ref):
            on_book = [op for op in block if op.kind != "insert"]
            seen["digit"] += bool(on_book)
            seen["insertions_only"] += not on_book
            seen["deletions_only"] += all(op.kind == "delete" for op in block)
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
    freq = build_book_frequencies(books)
    text = [rng.choice(plain + special) for _ in range(400)]
    assert fix_rare_wordforms(text, freq, 3) == replay_wordform_rules(text, freq, 3)


def test_build_book_frequencies_counts_distinct_books():
    books = {"a": ["x", "x", "y"], "b": ["x"], "c": ["y"]}
    assert build_book_frequencies(books) == {"x": 2, "y": 2}


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
        shards = shard_book(words, "b", shard_size=400, shard_stride=320)
        index = build_index(shards)
        start = rng.randint(0, len(words) - 60)
        query = words[start : start + 40]
        found = retrieve_transcript(words, shards, index, query)
        assert found is not None
        cand, span, aligned = found
        assert span == (start, start + 40)
        assert cand == query
        assert wer(cand, query) == 0.0


def test_noisy_query_span_wer_bounded_by_noise():
    for seed in range(15):
        rng = random.Random(1000 + seed)
        noise = rng.choice([0.05, 0.1, 0.15, 0.2])
        words = random_words(rng, 3000, WIDE_VOCAB)
        shards = shard_book(words, "b", shard_size=400, shard_stride=320)
        index = build_index(shards)
        start = rng.randint(0, len(words) - 80)
        truth = words[start : start + 50]
        query = list(truth)
        for pos in rng.sample(range(50), int(noise * 50)):
            query[pos] = rng.choice(WIDE_VOCAB)
        found = retrieve_transcript(words, shards, index, query)
        assert found is not None
        cand, span, _ = found
        assert wer(cand, truth) <= noise


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
