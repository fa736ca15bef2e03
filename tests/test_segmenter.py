import random

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.segmenter import (
    FORCED_CUT_SLACK_MS,
    Segment,
    TimedToken,
    read_token_stream,
    segment_stream,
    silence_gaps,
    write_token_stream,
)

from oracles import brute_force_segment_bounds, pairwise_gap_scan


def make_tokens(pairs, word="w"):
    return [TimedToken(word=f"{word}{i}", start=s, end=e) for i, (s, e) in enumerate(pairs)]


def random_stream(seed, n_tokens=100, word_ms=(200, 500), gap_ms=(20, 300), pause_every=(8, 20), pause_ms=(600, 1400)):
    rng = random.Random(seed)
    tokens = []
    t = rng.randint(0, 50)
    until_pause = rng.randint(*pause_every)
    for i in range(n_tokens):
        dur = rng.randint(*word_ms)
        tokens.append(TimedToken(word=f"w{i}", start=t, end=t + dur))
        until_pause -= 1
        if until_pause == 0:
            t += dur + rng.randint(*pause_ms)
            until_pause = rng.randint(*pause_every)
        else:
            t += dur + rng.randint(*gap_ms)
    return tokens


# -- silence_gaps ------------------------------------------------------------


def test_gaps_contiguous_tokens():
    assert silence_gaps(make_tokens([(0, 500), (500, 900)])) == []


def test_gaps_single():
    assert silence_gaps(make_tokens([(0, 500), (800, 1200)])) == [(500, 800)]


def test_gaps_match_pairwise_scan_oracle():
    tokens = random_stream(11, n_tokens=1000)
    expected = pairwise_gap_scan([(t.start, t.end) for t in tokens])
    assert silence_gaps(tokens) == expected


# -- segment_stream ----------------------------------------------------------


def test_below_minimum_yields_residual_only():
    tokens = random_stream(3, n_tokens=18)  # ~8 s of material
    assert tokens[-1].end - tokens[0].start < 10_000
    result = segment_stream(tokens)
    assert result.segments == []
    assert result.residual is not None
    assert result.residual.tokens == tuple(tokens)


def test_keep_residual_flag_emits_tail():
    tokens = random_stream(3, n_tokens=18)
    result = segment_stream(tokens, keep_residual=True)
    assert len(result.segments) == 1
    assert result.segments[0].tokens == tuple(tokens)


def test_cut_at_midpoint_of_longest_in_window_gap():
    # gaps at 11.0-11.4 s and 15.0-16.0 s from start 0: cut at 15 500 ms
    tokens = make_tokens(
        [(0, 11_000), (11_400, 15_000), (16_000, 26_000), (26_100, 30_000)]
    )
    result = segment_stream(tokens)
    assert result.segments[0].end == 15_500


def test_earliest_gap_wins_ties():
    tokens = make_tokens(
        [(0, 11_000), (12_000, 15_000), (16_000, 26_000), (26_001, 40_000)]
    )
    # both gaps are 1000 ms long with in-window midpoints; earliest wins
    result = segment_stream(tokens)
    assert result.segments[0].end == 11_500


def test_forced_cut_at_max_len_in_gap():
    # no silence midpoint inside [10 s, 20 s]: cut exactly at 20 s
    tokens = make_tokens([(0, 9_000), (9_100, 20_000), (20_000, 25_000), (25_500, 31_000)])
    result = segment_stream(tokens)
    assert result.segments[0].end == 20_000


def test_forced_cut_inside_token_with_slack():
    # token spans the 20 s mark and ends within the slack: kept whole
    tokens = make_tokens([(0, 19_900), (19_900, 20_150), (20_200, 32_000)])
    result = segment_stream(tokens)
    assert result.segments[0].end == 20_150
    assert result.segments[0].duration <= 20_000 + FORCED_CUT_SLACK_MS
    assert [t.word for t in result.segments[0].tokens] == ["w0", "w1"]
    assert result.dropped_tokens == []


def test_forced_cut_inside_long_token_drops_it():
    tokens = make_tokens([(0, 19_900), (19_900, 21_000), (21_200, 33_000)])
    result = segment_stream(tokens)
    assert [t.word for t in result.dropped_tokens] == ["w1"]
    assert result.segments[0].end == 19_900
    # the stream resumes after the dropped token
    assert result.segments[1].start == 21_000


def test_validation_errors():
    with pytest.raises(ValueError):
        segment_stream(make_tokens([(0, 100)]), min_len=5000, max_len=5000)
    unsorted = [TimedToken("a", 500, 900), TimedToken("b", 0, 400)]
    with pytest.raises(ValueError):
        segment_stream(unsorted)
    overlapping = [TimedToken("a", 0, 500), TimedToken("b", 400, 900)]
    with pytest.raises(ValueError):
        segment_stream(overlapping)
    with pytest.raises(ValueError):
        TimedToken("a", -1, 5)
    with pytest.raises(ValueError):
        TimedToken("a", 10, 5)


def test_boundaries_match_brute_force_oracle_seed_42():
    tokens = random_stream(42, n_tokens=100)
    result = segment_stream(tokens)
    spans, residual, dropped = brute_force_segment_bounds(
        [(t.start, t.end) for t in tokens], 10_000, 20_000
    )
    assert [(s.start, s.end) for s in result.segments] == spans
    got_residual = (
        None if result.residual is None else (result.residual.start, result.residual.end)
    )
    assert got_residual == residual
    assert dropped == []


@pytest.mark.parametrize("seed", range(20))
def test_properties_over_seeded_streams(seed):
    tokens = random_stream(seed, n_tokens=150)
    result = segment_stream(tokens)
    segments = result.segments
    # determinism
    again = segment_stream(tokens)
    assert [(s.start, s.end) for s in again.segments] == [
        (s.start, s.end) for s in segments
    ]
    # duration bounds on all emitted segments
    for seg in segments:
        assert 10_000 <= seg.duration <= 20_000
    # strictly increasing starts, tiling without overlap
    pieces = [(s.start, s.end) for s in segments]
    if result.residual is not None:
        pieces.append((result.residual.start, result.residual.end))
    assert pieces == sorted(pieces)
    for (a_start, a_end), (b_start, b_end) in zip(pieces, pieces[1:]):
        assert a_end == b_start
        assert a_start < b_start
    assert pieces[0][0] == tokens[0].start
    assert pieces[-1][1] == tokens[-1].end
    # every token lands in exactly one segment (or the residual)
    assigned = [t for s in segments for t in s.tokens]
    if result.residual is not None:
        assigned += list(result.residual.tokens)
    assert assigned == tokens
    for seg in segments:
        for t in seg.tokens:
            assert seg.start <= t.start and t.end <= seg.end


@pytest.mark.parametrize("seed", range(10))
def test_forced_cut_streams_match_oracle(seed):
    # contiguous tokens (no silence at all): every cut is forced, exercising
    # the slack and drop rules against the brute-force reference
    rng = random.Random(seed)
    tokens = []
    t = 0
    for i in range(400):
        dur = rng.randint(150, 900) if rng.random() > 0.02 else rng.randint(900, 2000)
        tokens.append(TimedToken(word=f"w{i}", start=t, end=t + dur))
        t += dur
    result = segment_stream(tokens)
    spans, residual, dropped = brute_force_segment_bounds(
        [(tok.start, tok.end) for tok in tokens], 10_000, 20_000
    )
    assert [(s.start, s.end) for s in result.segments] == spans
    assert [(tok.start, tok.end) for tok in result.dropped_tokens] == dropped
    got_res = (
        None if result.residual is None else (result.residual.start, result.residual.end)
    )
    assert got_res == residual
    for seg in result.segments:
        assert seg.duration <= 20_000 + FORCED_CUT_SLACK_MS
    # tiling with dropped-token holes accounted for
    pieces = [(s.start, s.end) for s in result.segments]
    pieces += dropped
    if got_res:
        pieces.append(got_res)
    pieces.sort()
    assert pieces[0][0] == tokens[0].start
    assert pieces[-1][1] == tokens[-1].end
    for (_, a_end), (b_start, _) in zip(pieces, pieces[1:]):
        assert a_end == b_start


def oracle_result(tokens, min_len=10_000, max_len=20_000):
    """segment_stream's spans, residual and dropped spans, and the oracle's.
    Every token must land in exactly one segment, the residual or the
    dropped list."""
    result = segment_stream(tokens, min_len=min_len, max_len=max_len)
    residual = result.residual and (result.residual.start, result.residual.end)
    placed = [t for s in result.segments for t in s.tokens] + result.dropped_tokens
    placed += result.residual.tokens if result.residual else ()
    assert sorted(map(id, placed)) == sorted(map(id, tokens))
    got = ([(s.start, s.end) for s in result.segments], residual,
           [(t.start, t.end) for t in result.dropped_tokens])
    expected = brute_force_segment_bounds([(t.start, t.end) for t in tokens], min_len, max_len)
    return got, expected


def test_long_silence_free_stretches_match_oracle():
    """Paused speech with 40-90 s stretches of contiguous tokens, some long
    enough to straddle a forced cut: many forced cuts, tokens kept within
    the slack and tokens dropped."""
    kept = dropped = 0
    for seed in range(12):
        rng = random.Random(seed)
        tokens, t = [], 0
        for stretch in range(20):
            contiguous = stretch % 2 == 1
            until = t + (rng.randint(40_000, 90_000) if contiguous else rng.randint(5_000, 30_000))
            while t < until:
                dur = rng.randint(150, 700) if rng.random() > 0.05 else rng.randint(700, 2_500)
                tokens.append(TimedToken(f"w{len(tokens)}", t, t + dur))
                t += dur + (0 if contiguous else rng.choice([20, 80, 300, 900]))
        got, expected = oracle_result(tokens)
        assert got == expected, seed
        spans, _residual, drops = got
        dropped += len(drops)
        kept += sum(20_000 < end - start <= 20_000 + FORCED_CUT_SLACK_MS for start, end in spans)
    assert kept >= 10 and dropped >= 10


def test_dense_equal_gaps_pick_the_earliest():
    # 400 ms words and 100 ms gaps: every window holds about 20 equal
    # gaps, so every cut is at the earliest midpoint past min_len
    tokens = make_tokens([(k * 500, k * 500 + 400) for k in range(400)])
    got, expected = oracle_result(tokens)
    assert got == expected
    assert [end for _, end in got[0][:3]] == [10_450, 20_450, 30_450]


def test_gap_midpoints_exactly_at_window_edges():
    # a long gap whose midpoint is exactly start+min_len or start+max_len is
    # in the window and beats a short one; one just outside is not
    at_lo = make_tokens([(0, 9_900), (10_100, 15_000), (15_050, 45_000)])
    at_hi = make_tokens([(0, 12_000), (12_100, 19_400), (20_600, 45_000)])
    outside = make_tokens([(0, 9_000), (10_998, 15_000), (15_050, 19_000), (21_004, 45_000)])
    for tokens, first_cut in ((at_lo, 10_000), (at_hi, 20_000), (outside, 15_025)):
        got, expected = oracle_result(tokens)
        assert got == expected
        assert got[0][0] == (0, first_cut)


def test_token_stream_round_trip(tmp_path):
    tokens = random_stream(8, n_tokens=40)
    path = tmp_path / "rec.jsonl"
    write_token_stream(path, tokens)
    assert read_token_stream(path) == tokens


def test_token_stream_bad_line(tmp_path):
    path = tmp_path / "rec.jsonl"
    path.write_text('{"w": "a", "s": 0}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        read_token_stream(path)


def _write_lines(path, triples):
    path.write_text(
        "".join(f'{{"w": "{w}", "s": {s}, "e": {e}}}\n' for w, s, e in triples),
        encoding="utf-8",
    )


def test_token_stream_unsorted_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "streams" / "rec.jsonl"
    path.parent.mkdir()
    _write_lines(path, [("a", 500, 900), ("b", 0, 400), ("c", 1000, 1200)])
    with pytest.raises(ValueError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:2: token stream is not sorted by start time"
    out = tmp_path / "segments.tsv"
    assert cli_main(["segment", "--in", str(path.parent), "--out", str(out)]) == 2
    assert f"{path}:2: token stream is not sorted" in capsys.readouterr().err


def test_token_stream_overlap_names_file_and_line(tmp_path):
    path = tmp_path / "rec.jsonl"
    _write_lines(path, [("a", 0, 300), ("b", 400, 900), ("c", 800, 1200)])
    with pytest.raises(ValueError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:3: token stream has overlapping tokens"
