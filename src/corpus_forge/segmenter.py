"""Silence-based segmentation of timed token streams.

Operates purely on word timestamps (no audio): starting from the stream
head, the longest inter-token silence whose midpoint falls 10-20 s after the
current start is picked and the stream is cut at that midpoint; when the
window holds no silence the cut lands exactly at the 20 s mark. Repeats until
less than the minimum segment length remains.

Gap midpoints ascend, so each cut bisects for the gaps of its window and
scans only those, and a forced cut bisects the token starts for the one
token that can straddle it, so a stream costs near-linear time.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_MIN_LEN_MS = 10_000
DEFAULT_MAX_LEN_MS = 20_000

# a forced cut landing inside a token may stretch the segment this far past
# max_len to keep the token whole; beyond it the token is dropped
FORCED_CUT_SLACK_MS = 250


@dataclass(frozen=True)
class TimedToken:
    word: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad token times ({self.start}, {self.end})")


@dataclass(frozen=True)
class Segment:
    segment_id: str
    start: int
    end: int
    tokens: tuple[TimedToken, ...]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def words(self) -> list[str]:
        return [t.word for t in self.tokens]


@dataclass
class SegmentationResult:
    segments: list[Segment]
    residual: Segment | None = None
    dropped_tokens: list[TimedToken] = field(default_factory=list)


def _stream_fault(prev: TimedToken, tok: TimedToken) -> str | None:
    """Why ``tok`` may not follow ``prev`` in a stream, or None."""
    if tok.start < prev.start:
        return "token stream is not sorted by start time"
    if tok.start < prev.end:
        return "token stream has overlapping tokens"
    return None


def validate_stream(tokens: list[TimedToken]) -> None:
    for prev, tok in zip(tokens, tokens[1:]):
        fault = _stream_fault(prev, tok)
        if fault:
            raise ValueError(fault)


def silence_gaps(tokens: list[TimedToken]) -> list[tuple[int, int]]:
    """Inter-token silences as (gap_start, gap_end); zero-length gaps omitted."""
    validate_stream(tokens)
    return [(prev.end, cur.start) for prev, cur in zip(tokens, tokens[1:]) if prev.end < cur.start]


def segment_stream(
    tokens: list[TimedToken],
    min_len: int = DEFAULT_MIN_LEN_MS,
    max_len: int = DEFAULT_MAX_LEN_MS,
    keep_residual: bool = False,
    segment_id_prefix: str = "seg",
) -> SegmentationResult:
    """Cut a token stream into segments of min_len..max_len milliseconds.

    Non-final segments always satisfy the duration bound except when a cut
    forced at start+max_len lands inside a token, in which case the segment
    may extend up to FORCED_CUT_SLACK_MS past max_len (or the token is
    dropped). The trailing remainder shorter than min_len is reported as
    ``residual`` and only emitted as a segment when ``keep_residual`` is set.
    """
    if min_len >= max_len:
        raise ValueError(f"min_len {min_len} must be < max_len {max_len}")

    result = SegmentationResult(segments=[])
    if not tokens:
        return result

    gaps = silence_gaps(tokens)  # also validates the stream
    # gaps are disjoint and sorted, so their midpoints strictly ascend
    mids = [(gs + ge) // 2 for gs, ge in gaps]
    lengths = [ge - gs for gs, ge in gaps]
    # a valid stream is sorted and non-overlapping: starts and ends ascend
    starts = [t.start for t in tokens]
    ends = [t.end for t in tokens]
    stream_end = tokens[-1].end
    start = tokens[0].start
    tok_i = 0  # first token not yet assigned
    counter = 0

    def emit(end: int) -> None:
        nonlocal tok_i, counter, start
        stop = bisect_right(ends, end, tok_i)
        members, tok_i = tokens[tok_i:stop], stop
        if end <= start:  # zero-width cut around a dropped leading token
            return
        result.segments.append(
            Segment(
                segment_id=f"{segment_id_prefix}_{counter:04d}",
                start=start,
                end=end,
                tokens=tuple(members),
            )
        )
        counter += 1

    while True:
        remaining = stream_end - start
        if remaining < min_len:
            break
        if remaining <= max_len:
            emit(stream_end)
            start = stream_end
            break

        lo = start + min_len
        hi = start + max_len
        first, last = bisect_left(mids, lo), bisect_right(mids, hi)
        if first < last:
            # max() keeps the first of equal lengths: the earliest gap wins ties
            best = max(range(first, last), key=lengths.__getitem__)
            emit(mids[best])
            start = mids[best]
            continue

        # only the last token starting before the cut can straddle it
        cut = hi
        k = bisect_left(starts, cut) - 1
        inside = tokens[k] if k >= tok_i and tokens[k].end > cut else None
        if inside is None:
            emit(cut)
            start = cut
        elif inside.end <= cut + FORCED_CUT_SLACK_MS:
            emit(inside.end)
            start = inside.end
        else:
            result.dropped_tokens.append(inside)
            emit(inside.start)
            tok_i = bisect_right(ends, inside.end, tok_i)  # skip past the dropped token
            start = inside.end

    leftovers = tokens[tok_i:]
    if start < stream_end and leftovers:
        result.residual = Segment(
            segment_id=f"{segment_id_prefix}_residual",
            start=start,
            end=stream_end,
            tokens=tuple(leftovers),
        )
        if keep_residual:
            result.segments.append(result.residual)
    return result


def read_token_stream(path: str | Path) -> list[TimedToken]:
    """Read one recording's tokens from JSON-lines ({"w", "s", "e"} per line).

    A malformed line, or a token out of order with or overlapping the one
    before it, fails naming the file and the line.
    """
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                tok = TimedToken(word=obj["w"], start=int(obj["s"]), end=int(obj["e"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad token line: {exc}") from exc
            fault = tokens and _stream_fault(tokens[-1], tok)
            if fault:
                raise ValueError(f"{path}:{lineno}: {fault}")
            tokens.append(tok)
    return tokens


def write_token_stream(path: str | Path, tokens: list[TimedToken]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tokens:
            fh.write(json.dumps({"w": t.word, "s": t.start, "e": t.end}) + "\n")
