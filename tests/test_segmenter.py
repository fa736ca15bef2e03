import json
import random
import re
import time
from bisect import bisect_left

import pytest

from corpus_forge import pipeline, segmenter
from corpus_forge.cli import main as cli_main
from corpus_forge.pipeline import StageError, run_stage
from corpus_forge.synth import synth_corpus
from corpus_forge.segmenter import (
    FORCED_CUT_SLACK_MS,
    TokenStream,
    TokenStreamError,
    read_token_stream,
    segment_stream,
    silence_gaps,
    write_token_stream,
)

from oracles import brute_force_segment_bounds, cut_by_cut_segments, pairwise_gap_scan
from test_pipeline import SMALL, config_file, small_config, tiny_input


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


def zero_length_cut_stream(seed):
    """Speech without silence, so every cut is forced, with zero-length
    tokens on token boundaries and some tokens too long to keep: zero-length
    tokens land on forced cuts, also right before a dropped token."""
    rng = random.Random(seed)
    pairs, t = [], 0
    for _ in range(rng.randint(20, 120)):
        pairs += [(t, t)] * rng.choice((0, 0, 1, 2))
        dur = rng.choices([rng.randint(150, 900), rng.randint(900, 2_500), rng.randint(20_300, 24_000)],
                          weights=(80, 10, 10))[0]
        pairs.append((t, t + dur))
        t += dur
    return make_tokens(pairs)


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
    assert result.segments[0].end - result.segments[0].start <= 20_000 + FORCED_CUT_SLACK_MS
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
    """One paused stream per seed, where no cut is forced, and 40
    ``zero_length_cut_stream``s per seed, 800 in all."""
    streams = [random_stream(seed, n_tokens=150)]
    streams += [zero_length_cut_stream(seed * 40 + k) for k in range(40)]
    zero_dropped = 0
    for paused, tokens in zip([True] + [False] * 40, streams):
        result = segment_stream(tokens)
        segments, dropped = result.segments, result.dropped_tokens
        # determinism
        again = segment_stream(tokens)
        assert [(s.start, s.end) for s in again.segments] == [
            (s.start, s.end) for s in segments
        ]
        assert again.dropped_tokens == dropped
        # duration bounds on all emitted segments
        for seg in segments:
            if paused:
                assert 10_000 <= seg.end - seg.start <= 20_000
            else:
                assert 0 < seg.end - seg.start <= 20_000 + FORCED_CUT_SLACK_MS
        assert not (paused and dropped)
        # strictly increasing starts, tiling without overlap once the
        # dropped tokens' spans fill their holes
        assert all(a.start < b.start for a, b in zip(segments, segments[1:]))
        pieces = [(s.start, s.end) for s in segments]
        if result.residual is not None:
            pieces.append((result.residual.start, result.residual.end))
        assert pieces == sorted(pieces)
        pieces = sorted(pieces + [(tokens.starts[i], tokens.ends[i]) for i in dropped])
        for (a_start, a_end), (b_start, b_end) in zip(pieces, pieces[1:]):
            assert a_end == b_start
        assert pieces[0][0] == tokens.starts[0]
        assert pieces[-1][1] == tokens.ends[-1]
        # the segments' ranges and the residual, in order, and the ascending
        # dropped indices cover 0..n-1 once
        assigned = [i for s in segments for i in s.tokens]
        if result.residual is not None:
            assigned += list(result.residual.tokens)
        assert assigned == sorted(assigned) and dropped == sorted(dropped)
        assert sorted(assigned + dropped) == list(range(len(tokens)))
        for seg in segments:
            assert seg.words == [tokens.words[i] for i in seg.tokens]
            for i in seg.tokens:
                assert seg.start <= tokens.starts[i] and tokens.ends[i] <= seg.end
        zero_dropped += sum(tokens.starts[i] == tokens.ends[i] for i in dropped)
    assert zero_dropped >= 1  # a zero-width cut before a dropped token was met


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
        assert seg.end - seg.start <= 20_000 + FORCED_CUT_SLACK_MS
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
    """segment_stream's spans, residual and dropped spans, and the oracle's,
    whose spans are those that hold a token: each kept token goes to the
    first span that ends at or after it. The segments' ranges, the residual
    and the dropped indices must cover 0..n-1 once, and each segment's
    number is its index among all the oracle's spans of nonzero width,
    empty ones too."""
    result = segment_stream(tokens, min_len=min_len, max_len=max_len)
    residual = result.residual and (result.residual.start, result.residual.end)
    placed = [i for s in result.segments for i in s.tokens] + result.dropped_tokens
    placed += result.residual.tokens if result.residual else ()
    assert sorted(placed) == list(range(len(tokens)))
    got = ([(s.start, s.end) for s in result.segments], residual,
           [(tokens.starts[i], tokens.ends[i]) for i in result.dropped_tokens])
    all_spans, oracle_residual, oracle_dropped = brute_force_segment_bounds(
        spans(tokens), min_len, max_len)
    all_spans = [(start, end) for start, end in all_spans if start < end]  # zero width: no cut
    span_ends = [end for _, end in all_spans]
    held = sorted({bisect_left(span_ends, end) for start, end in spans(tokens)
                   if (start, end) not in oracle_dropped} - {len(all_spans)})
    assert [int(s.segment_id.rsplit("_", 1)[1]) for s in result.segments] == held
    return got, ([all_spans[i] for i in held], oracle_residual, oracle_dropped)


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


def long_silence_stream(seed):
    """Paused speech broken by silences of up to 200 s, some of them right
    after a token that straddles a forced cut: runs of empty forced cuts,
    and midpoints of long gaps that fall between two cuts' windows."""
    rng = random.Random(seed)
    pairs, t = [], rng.randint(0, 3_000)
    for _ in range(rng.randint(1, 40)):
        dur = rng.choice((rng.randint(100, 900), rng.randint(100, 900), rng.randint(20_000, 24_000)))
        pairs.append((t, t + dur))
        t += dur + rng.choice((0, rng.randint(10, 900), rng.randint(1_000, 200_000)))
    return make_tokens(pairs)


def test_long_silences_match_oracle():
    """The forced cuts of a long silence are skipped in one step, yet each
    segment, its number, the residual and the dropped tokens are the
    oracle's, which cuts every 20 s of the silence."""
    skipped = 0
    for seed in range(300):
        tokens = long_silence_stream(seed)
        got, expected = oracle_result(tokens)
        assert got == expected, seed
        numbers = [int(seg.segment_id[-4:]) for seg in segment_stream(tokens).segments]
        skipped += sum(b - a > 1 for a, b in zip(numbers, numbers[1:]))
    assert skipped >= 100


def grid_stream(seed):
    """Tokens and silences on a 250 ms grid, so that forced cuts, gap
    midpoints and zero-length tokens meet exactly: a skip that stopped one
    cut late would move a zero-length token to the next segment."""
    rng = random.Random(seed)
    pairs, t = [], rng.choice((0, 250))
    for _ in range(rng.randint(1, 10)):
        pairs += [(t, t)] * rng.choice((0, 1))
        dur = rng.choice((0, 500, 1_000, 2_000, 20_000, 21_000))
        pairs.append((t, t + dur))
        t += dur + rng.choice((0, 500, 1_000, 10_000, 20_000, 30_000, 39_000, 40_000, 41_000, 80_000))
    return make_tokens(pairs)


def test_skipped_cuts_match_the_cut_by_cut_loop():
    """Every segment, number, residual and dropped token is the one the loop
    that makes every forced cut gives."""
    for seed in range(2_000):
        tokens = grid_stream(seed)
        result = segment_stream(tokens)
        segments, residual, dropped = cut_by_cut_segments(spans(tokens), 10_000, 20_000)
        assert [(int(seg.segment_id[-4:]), seg.start, seg.end, list(seg.tokens))
                for seg in result.segments] == segments, seed
        assert (result.residual and (result.residual.start, result.residual.end,
                                     list(result.residual.tokens))) == residual, seed
        assert result.dropped_tokens == dropped, seed


def silence_stream(ms):
    return make_tokens([(0, 500), (ms, ms + 12_000), (ms + 12_100, ms + 12_600)])


def test_a_silence_of_a_trillion_ms_costs_no_cuts():
    got, expected = oracle_result(silence_stream(10**8))  # 5 000 cuts for the oracle
    assert got == expected
    begin = time.perf_counter()
    result = segment_stream(silence_stream(10**12))
    assert time.perf_counter() - begin < 0.1
    assert [seg.tokens for seg in result.segments] == [range(0, 1), range(1, 3)]
    # the silence's midpoint falls between two cuts' windows, so every cut is
    # forced, at each multiple of 20 s up to the token at 10^12 ms
    assert [seg.segment_id for seg in result.segments] == ["seg_0000", f"seg_{10**12 // 20_000}"]


def test_token_times_must_fit_int64():
    assert len(stream_of([("a", 2**63 - 2, 2**63 - 1)])) == 1
    with pytest.raises(TokenStreamError) as err:
        stream_of([("a", 0, 5), ("b", 10, 2**63)])
    assert err.value.index == 1


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
    path = tiny_input(tmp_path / "input", [])
    _write_lines(path, [("a", 500, 900), ("b", 0, 400), ("c", 1000, 1200)])
    with pytest.raises(ValueError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:2: token stream is not sorted by start time"
    cfg_path = config_file(tmp_path / "run.cfg", small_config(tmp_path))
    assert cli_main(["segment", "--config", cfg_path]) == 2
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
    "non-utf8": '{"w": "b\udcff", "s": 100, "e": 300}',  # written as the byte 0xff
}


@pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES)
def test_hostile_token_line_fails_at_the_reader(tmp_path, capsys, line):
    path = tiny_input(tmp_path / "input", ['{"w": "a", "s": 0, "e": 1}', line])
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value).startswith(f"{path}:2: bad token line: ")
    cfg_path = config_file(tmp_path / "run.cfg", small_config(tmp_path))
    assert cli_main(["segment", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: bad token line: ")
    assert not (tmp_path / "out" / "work" / "segment" / "segments.tsv").exists()


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
    # an order fault on line 2 beats bad bytes on line 4
    path.write_bytes(b'{"w": "a", "s": 500, "e": 900}\n{"w": "b", "s": 0, "e": 400}\n\n'
                     b'{"w": "\xff", "s": 1000, "e": 1200}\n')
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:2: token stream is not sorted by start time"


def test_blank_lines_keep_line_numbers(tmp_path):
    path = tmp_path / "rec.jsonl"
    _write_lines(path, [("a", 0, 300), ("b", 400, 900)])
    path.write_text("\n" + path.read_text(encoding="utf-8") + "  \n"
                    + '{"w": "c", "s": -5, "e": 10}\n', encoding="utf-8")
    with pytest.raises(TokenStreamError) as err:
        read_token_stream(path)
    assert str(err.value) == f"{path}:5: bad token times (-5, 10)"


# token files that the one-parse reader must read as the per-line reader
# does: (bytes, None when accepted or the message that follows the path)
A, B, C = (b'{"w": "a", "s": 0, "e": 100}', b'{"w": "b", "s": 200, "e": 300}',
           b'{"w": "c", "s": 400, "e": 500}')
READER_CASES = {
    "plain": (A + b"\n" + B + b"\n" + C + b"\n", None),
    # joined by ",\n", each pair below is three valid elements on three lines
    "two-on-a-line-one-split": (A + b"," + B + b'\n{"w": "c", "s": 400\n"e": 500}\n',
                                ":1: bad token line: Extra data: line 1 column 29 (char 28)"),
    "an-array-split-two-on-a-line": (b'{"w": "a", "s": 0, "e": 100, "x": [{}\n{}]}\n' + B + b"," + C,
                                     ":1: bad token line: Expecting ',' delimiter: "
                                     "line 1 column 38 (char 37)"),
    "two-on-a-line": (A + b"," + B + b"\n" + C + b"\n",
                      ":1: bad token line: Extra data: line 1 column 29 (char 28)"),
    "word-with-brace-comma-brace": (b'{"w": "a},{b", "s": 0, "e": 100}\n' + B + b"\n", None),
    "word-with-escaped-quotes": (b'{"w": "x\\"},{\\"w\\":\\"y", "s": 0, "e": 100}\n' + B + b"\n", None),
    "word-with-brackets": (b'{"w": "[a]", "s": 0, "e": 100}\n' + B + b"\n", None),
    "word-with-a-bracket": (A + b'\n{"w": "b]", "s": 200, "e": 300}\n', None),
    "cr-and-crlf": (A + b"\r\n" + B + b"\r" + C + b"\r\n", None),
    "blank-and-space-lines": (b"\n  \r\n" + A + b"\n\t\n" + B + b"\n \n", None),
    "nbsp-line": (A + b"\n\xc2\xa0\n" + B + b"\n", None),
    "leading-space": (A + b"\n " + B + b"\n", None),
    "bom": (b"\xef\xbb\xbf" + A + b"\n", ":1: bad token line: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"),
    "fault-after-cr-lines": (A + b"\r\n\r  \r\n" + b'{"w": "b", "s": 500, "e": 300}\r',
                             ":4: bad token times (500, 300)"),
    "order-fault-after-blank-lines": (b"\r\n" + B + b"\n\n" + A + b"\r",
                                      ":4: token stream is not sorted by start time"),
    "bad-utf8-after-a-stream-fault": (B + b"\n" + A + b'\n{"w": "\xff", "s": 900, "e": 950}\n',
                                      ":2: token stream is not sorted by start time"),
    "bad-utf8-before-a-stream-fault": (B + b'\n{"w": "\xff", "s": 900, "e": 950}\n' + A + b"\n",
                                       ":2: bad token line: 'utf-8' codec can't decode byte 0xff "
                                       "in position 7: invalid start byte"),
    "float-time": (A + b'\n{"w": "b", "s": 200.0, "e": 300}\n',
                   ":2: bad token line: times 200.0, 300 are not JSON integers"),
    "boolean-time": (A + b'\n{"w": "b", "s": 200, "e": true}\n',
                     ":2: bad token line: times 200, True are not JSON integers"),
    "nan-time": (A + b'\n{"w": "b", "s": NaN, "e": 300}\n',
                 ":2: bad token line: times nan, 300 are not JSON integers"),
    "repeated-key": (b'{"w": "a", "s": 900, "s": 0, "e": 100}\n' + B + b"\n", None),
    "repeated-key-fault": (A + b'\n{"w": "b", "s": 200, "e": 300, "e": 100}\n',
                           ":2: bad token times (200, 100)"),
    "missing-key": (A + b'\n{"w": "b", "s": 200}\n', ":2: bad token line: 'e'"),
    "spaced-word": (A + b'\n{"w": "b c", "s": 200, "e": 300}\n',
                    ":2: bad token line: word 'b c' is not a non-empty string without whitespace"),
    "empty": (b"", None),
    "blank-only": (b"\n \r\n", None),
}


def read_outcome(read, path):
    """The columns ``read(path)`` returns, or its exception's type and message."""
    try:
        stream = read(path)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return stream.words, stream.starts, stream.ends


@pytest.mark.parametrize("content, message", READER_CASES.values(), ids=READER_CASES)
def test_one_parse_reader_equals_the_per_line_reader(tmp_path, content, message):
    path = tmp_path / "rec.jsonl"
    path.write_bytes(content)
    per_line = read_outcome(lambda p: segmenter._parse_by_line(p, p.read_bytes().splitlines()), path)
    assert read_outcome(read_token_stream, path) == per_line
    if message is None:
        assert len(per_line) == 3
    else:
        assert per_line == (TokenStreamError, f"{path}{message}")


def test_every_synth_token_file_is_parsed_once(tmp_path, monkeypatch):
    """A guard that sent every file to the per-line reader would only be slower."""
    synth_corpus(tmp_path, seed=17, params=SMALL)
    loads, calls = json.loads, []
    monkeypatch.setattr(segmenter.json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    files = sorted((tmp_path / "tokens").glob("*.jsonl"))
    assert all(read_token_stream(path) for path in files)
    assert len(calls) == len(files) > 1


def test_zero_length_token_after_a_dropped_token_is_kept():
    tokens = make_tokens([(0, 19_900), (19_900, 21_000), (21_000, 21_000), (21_200, 33_000)])
    got, expected = oracle_result(tokens)
    assert got == expected
    result = segment_stream(tokens)
    assert result.dropped_tokens == [1]
    assert result.segments[1].tokens == range(2, 4)


def test_zero_length_token_before_a_dropped_token_is_dropped():
    # after token 1 is dropped, the next cut is forced inside token 3, which
    # starts where the segment starts: the zero-width cut drops token 2 too
    tokens = TokenStream(["a", "b", "z", "c", "d"], [0, 19_900, 21_000, 21_000, 42_100],
                         [19_900, 21_000, 21_000, 42_000, 50_000])
    result = segment_stream(tokens, 10_000, 20_000)
    assert [s.tokens for s in result.segments] == [range(0, 1)]
    assert result.dropped_tokens == [1, 2, 3]
    assert result.residual.tokens == range(4, 5)


@pytest.mark.parametrize("line", [
    '{"w": "b", "s": 0, "e": 1}',
    '{"w": "b", "s": 1, "e": 3}',
    f'{{"w": "b", "s": {10**30}, "e": {10**30 + 5}}}',
    *HOSTILE_LINES.values(),
], ids=["unsorted", "overlapping", "past-int64", *HOSTILE_LINES])
def test_token_file_fault_exits_2_from_run(tmp_path, capsys, line):
    path = tiny_input(tmp_path / "input", ['{"w": "a", "s": 1, "e": 2}', line])
    cfg_path = tmp_path / "run.cfg"
    cfg = small_config(tmp_path)
    cfg_path.write_text(f"input_dir = {cfg.input_dir}\noutput_dir = {cfg.output_dir}\n",
                        encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


@pytest.mark.parametrize("entry", ["stage", "cli"])
def test_segment_stage_fails_when_a_chapter_loses_or_repeats_a_token(tmp_path, monkeypatch, capsys,
                                                                     entry):
    """Per chapter, the segment stage, alone or as its subcommand, checks that
    the segments, the residual and the dropped tokens cover every token once."""
    tiny_input(tmp_path / "input", ['{"w": "a", "s": 0, "e": 6000}', '{"w": "b", "s": 6000, "e": 12000}'])

    def repeating(*args, **kwargs):
        result = segment_stream(*args, **kwargs)
        result.dropped_tokens.append(0)  # token 0 is in a segment already
        return result

    monkeypatch.setattr(pipeline, "segment_stream", repeating)
    message = "stage segment: chapter book000_ch00: .* its 2 tokens once"
    if entry == "stage":
        with pytest.raises(StageError, match=f"^{message}$"):
            run_stage(small_config(tmp_path), "segment")
        return
    cfg_path = config_file(tmp_path / "run.cfg", small_config(tmp_path))
    assert cli_main(["segment", "--config", cfg_path]) == 3
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "out" / "work" / "segment" / "segments.tsv").exists()
