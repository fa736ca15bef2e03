import random

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.segmenter import (
    FORCED_CUT_SLACK_MS,
    TokenStream,
    TokenStreamError,
    read_token_stream,
    segment_stream,
    silence_gaps,
    write_token_stream,
)

from oracles import brute_force_segment_bounds, pairwise_gap_scan
from test_pipeline import small_config, tiny_input


def stream_of(triples):
    """A TokenStream of (word, start, end) triples."""
    return TokenStream([w for w, _, _ in triples], [s for _, s, _ in triples],
                       [e for _, _, e in triples])


def make_tokens(pairs, word="w"):
    return stream_of([(f"{word}{i}", s, e) for i, (s, e) in enumerate(pairs)])


def spans(tokens):
    return list(zip(tokens.starts, tokens.ends))


def random_stream(seed, n_tokens=100, word_ms=(200, 500), gap_ms=(20, 300), pause_every=(8, 20), pause_ms=(600, 1400)):
    rng = random.Random(seed)
    tokens = []
    t = rng.randint(0, 50)
    until_pause = rng.randint(*pause_every)
    for i in range(n_tokens):
        dur = rng.randint(*word_ms)
        tokens.append((f"w{i}", t, t + dur))
        until_pause -= 1
        if until_pause == 0:
            t += dur + rng.randint(*pause_ms)
            until_pause = rng.randint(*pause_every)
        else:
            t += dur + rng.randint(*gap_ms)
    return stream_of(tokens)


# -- silence_gaps ------------------------------------------------------------


def test_gaps_contiguous_tokens():
    assert silence_gaps(make_tokens([(0, 500), (500, 900)])) == []


def test_gaps_single():
    assert silence_gaps(make_tokens([(0, 500), (800, 1200)])) == [(500, 800)]


def test_gaps_match_pairwise_scan_oracle():
    tokens = random_stream(11, n_tokens=1000)
    expected = pairwise_gap_scan(spans(tokens))
    assert silence_gaps(tokens) == expected


# -- segment_stream ----------------------------------------------------------


def test_below_minimum_yields_residual_only():
    tokens = random_stream(3, n_tokens=18)  # ~8 s of material
    assert tokens.ends[-1] - tokens.starts[0] < 10_000
    result = segment_stream(tokens)
    assert result.segments == []
    assert result.residual is not None
    assert result.residual.tokens == range(len(tokens))
    assert result.residual.words == tokens.words


def test_keep_residual_flag_emits_tail():
    tokens = random_stream(3, n_tokens=18)
    result = segment_stream(tokens, keep_residual=True)
    assert len(result.segments) == 1
    assert result.segments[0].tokens == range(len(tokens))
    assert result.segments[0].words == tokens.words


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
    assert result.segments[0].words == ["w0", "w1"]
    assert result.dropped_tokens == []


def test_forced_cut_inside_long_token_drops_it():
    tokens = make_tokens([(0, 19_900), (19_900, 21_000), (21_200, 33_000)])
    result = segment_stream(tokens)
    assert [tokens.words[i] for i in result.dropped_tokens] == ["w1"]
    assert result.segments[0].end == 19_900
    # the stream resumes after the dropped token
    assert result.segments[1].start == 21_000


def test_validation_errors():
    with pytest.raises(ValueError):
        segment_stream(make_tokens([(0, 100)]), min_len=5000, max_len=5000)
    # building a stream is its one check; the error names the first bad token
    with pytest.raises(ValueError) as err:
        segment_stream(stream_of([("a", 500, 900), ("b", 0, 400)]))
    assert err.value.index == 1
    with pytest.raises(ValueError) as err:
        segment_stream(stream_of([("a", 0, 500), ("b", 400, 900)]))
    assert err.value.index == 1
    with pytest.raises(ValueError) as err:
        stream_of([("a", -1, 5)])
    assert err.value.index == 0
    with pytest.raises(ValueError) as err:
        stream_of([("a", 0, 5), ("b", 10, 5)])
    assert err.value.index == 1
    assert str(err.value) == "bad token times (10, 5)"
    with pytest.raises(ValueError):
        TokenStream(["a"], [0, 5], [1, 6])


def test_boundaries_match_brute_force_oracle_seed_42():
    tokens = random_stream(42, n_tokens=100)
    result = segment_stream(tokens)
    expected, residual, dropped = brute_force_segment_bounds(spans(tokens), 10_000, 20_000)
    assert [(s.start, s.end) for s in result.segments] == expected
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
    assert pieces[0][0] == tokens.starts[0]
    assert pieces[-1][1] == tokens.ends[-1]
    # the segments' ranges and the residual cover 0..n-1 once, in order
    assigned = [i for s in segments for i in s.tokens]
    if result.residual is not None:
        assigned += list(result.residual.tokens)
    assert assigned == list(range(len(tokens)))
    for seg in segments:
        assert seg.words == [tokens.words[i] for i in seg.tokens]
        for i in seg.tokens:
            assert seg.start <= tokens.starts[i] and tokens.ends[i] <= seg.end


@pytest.mark.parametrize("seed", range(10))
def test_forced_cut_streams_match_oracle(seed):
    # contiguous tokens (no silence at all): every cut is forced, exercising
    # the slack and drop rules against the brute-force reference
    rng = random.Random(seed)
    tokens = []
    t = 0
    for i in range(400):
        dur = rng.randint(150, 900) if rng.random() > 0.02 else rng.randint(900, 2000)
        tokens.append((f"w{i}", t, t + dur))
        t += dur
    tokens = stream_of(tokens)
    result = segment_stream(tokens)
    expected, residual, dropped = brute_force_segment_bounds(spans(tokens), 10_000, 20_000)
    assert [(s.start, s.end) for s in result.segments] == expected
    assert [(tokens.starts[i], tokens.ends[i]) for i in result.dropped_tokens] == dropped
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
    assert pieces[0][0] == tokens.starts[0]
    assert pieces[-1][1] == tokens.ends[-1]
    for (_, a_end), (b_start, _) in zip(pieces, pieces[1:]):
        assert a_end == b_start


def oracle_result(tokens, min_len=10_000, max_len=20_000):
    """segment_stream's spans, residual and dropped spans, and the oracle's.
    The segments' ranges, the residual and the dropped indices must cover
    0..n-1 once."""
    result = segment_stream(tokens, min_len=min_len, max_len=max_len)
    residual = result.residual and (result.residual.start, result.residual.end)
    placed = [i for s in result.segments for i in s.tokens] + result.dropped_tokens
    placed += result.residual.tokens if result.residual else ()
    assert sorted(placed) == list(range(len(tokens)))
    got = ([(s.start, s.end) for s in result.segments], residual,
           [(tokens.starts[i], tokens.ends[i]) for i in result.dropped_tokens])
    expected = brute_force_segment_bounds(spans(tokens), min_len, max_len)
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
                tokens.append((f"w{len(tokens)}", t, t + dur))
                t += dur + (0 if contiguous else rng.choice([20, 80, 300, 900]))
        got, expected = oracle_result(stream_of(tokens))
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


# a token line that the reader refuses, put on line 2 after a good line 1
HOSTILE_LINES = {
    "int-word": '{"w": 5, "s": 100, "e": 300}',
    "empty-word": '{"w": "", "s": 100, "e": 300}',
    "spaced-word": '{"w": "tab\\there", "s": 100, "e": 300}',
    "float-start": '{"w": "b", "s": 1.9, "e": 300}',
    "string-end": '{"w": "b", "s": 100, "e": "300"}',
    "bool-start": '{"w": "b", "s": true, "e": 300}',
}


@pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES)
def test_hostile_token_line_fails_at_the_reader(tmp_path, capsys, line):
    path = tmp_path / "streams" / "rec.jsonl"
    path.parent.mkdir()
    path.write_text('{"w": "a", "s": 0, "e": 1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value).startswith(f"{path}:2: bad token line: ")
    out = tmp_path / "segments.tsv"
    assert cli_main(["segment", "--in", str(path.parent), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: bad token line: ")
    assert not out.exists()


def test_first_fault_in_file_order_is_named(tmp_path):
    # an order fault on line 2 and a malformed line 5
    path = tmp_path / "rec.jsonl"
    path.write_text(
        '{"w": "a", "s": 500, "e": 900}\n{"w": "b", "s": 0, "e": 400}\n\n'
        '{"w": "c", "s": 1000, "e": 1200}\n{"w": "d", "s": 1300}\n',
        encoding="utf-8",
    )
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:2: token stream is not sorted by start time"
    # with the order fault mended, the malformed line is the first fault
    path.write_text(path.read_text(encoding="utf-8").replace('"s": 0, "e": 400', '"s": 950, "e": 990'),
                    encoding="utf-8")
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value).startswith(f"{path}:5: bad token line: ")


def test_blank_lines_keep_line_numbers(tmp_path):
    path = tmp_path / "rec.jsonl"
    _write_lines(path, [("a", 0, 300), ("b", 400, 900)])
    path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n"
                    + '{"w": "c", "s": -5, "e": 10}\n', encoding="utf-8")
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:5: bad token times (-5, 10)"


def test_zero_length_token_after_a_dropped_token_is_kept():
    tokens = make_tokens([(0, 19_900), (19_900, 21_000), (21_000, 21_000), (21_200, 33_000)])
    got, expected = oracle_result(tokens)
    assert got == expected
    result = segment_stream(tokens)
    assert result.dropped_tokens == [1]
    assert result.segments[1].tokens == range(2, 4)


@pytest.mark.parametrize("line", [
    '{"w": "b", "s": 0, "e": 1}',
    '{"w": "b", "s": 1, "e": 3}',
    *HOSTILE_LINES.values(),
], ids=["unsorted", "overlapping", *HOSTILE_LINES])
def test_token_file_fault_exits_2_from_run(tmp_path, capsys, line):
    path = tiny_input(tmp_path / "input", ['{"w": "a", "s": 1, "e": 2}', line])
    cfg_path = tmp_path / "run.cfg"
    cfg = small_config(tmp_path)
    cfg_path.write_text(f"input_dir = {cfg.input_dir}\noutput_dir = {cfg.output_dir}\n",
                        encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
