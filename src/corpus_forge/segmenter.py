"""Silence-based segmentation of timed token streams.

Operates purely on word timestamps (no audio): starting from the stream
head, the longest inter-token silence whose midpoint falls 10-20 s after the
current start is picked and the stream is cut at that midpoint; when the
window holds no silence the cut lands exactly at the 20 s mark. Repeats until
less than the minimum segment length remains.

A recording is one ``TokenStream`` of three columns, ``words``, ``starts``
and ``ends`` (ms). Building one is the only stream check: times are
non-negative and below 2^63, no token ends before it starts, starts ascend
and no token starts before the one before it ends. A token file holds one
``{"w", "s", "e"}`` object per line, a word without whitespace and integer
times. The reader parses the file's lines as one JSON array when that
provably reads them as a per-line parse would; otherwise, and for a file
with any fault, it parses each line on its own and names the first fault's
line.

Gap midpoints ascend, so each cut bisects for the gaps of its window and
scans only those, and a forced cut bisects the token starts for the one
token that can straddle it. The empty forced cuts of a long silence are
skipped in one step, so a stream costs near-linear time in its tokens.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .manifest import InputError, decode_utf8, read_bytes

DEFAULT_MIN_LEN_MS = 10_000
DEFAULT_MAX_LEN_MS = 20_000

# a forced cut landing inside a token may stretch the segment this far past
# max_len to keep the token whole; beyond it the token is dropped
FORCED_CUT_SLACK_MS = 250


class TokenStreamError(InputError):
    """A token stream or file that breaks the token rules; the stream check
    sets ``index``, the position of the first bad token."""

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(reason)
        self.index = index


@dataclass(frozen=True)
class TokenStream:
    words: list[str]
    starts: list[int]
    ends: list[int]

    def __post_init__(self):
        prev_start = prev_end = 0
        # strict: columns of different lengths are a ValueError too
        for i, (_, start, end) in enumerate(zip(self.words, self.starts, self.ends, strict=True)):
            if start < 0 or end < start or end >= 2**63:  # times fit int64
                raise TokenStreamError(f"bad token times ({start}, {end})", i)
            if start < prev_start:
                raise TokenStreamError("token stream is not sorted by start time", i)
            if start < prev_end:
                raise TokenStreamError("token stream has overlapping tokens", i)
            prev_start, prev_end = start, end

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class Segment:
    segment_id: str
    start: int
    end: int
    words: list[str]
    tokens: range  # the stream positions of its words


@dataclass
class SegmentationResult:
    segments: list[Segment]
    residual: Segment | None = None
    dropped_tokens: list[int] = field(default_factory=list)  # stream positions


def silence_gaps(tokens: TokenStream) -> list[tuple[int, int]]:
    """Inter-token silences as (gap_start, gap_end); zero-length gaps omitted."""
    return [(end, start) for end, start in zip(tokens.ends, tokens.starts[1:]) if end < start]


def segment_stream(
    tokens: TokenStream,
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
    ``residual`` and only emitted as a segment when ``keep_residual`` is set;
    zero-length tokens left where the stream ends are dropped. Only segments
    that hold tokens are returned, numbered as every cut is.
    """
    if min_len >= max_len:
        raise ValueError(f"min_len {min_len} must be < max_len {max_len}")

    result = SegmentationResult(segments=[])
    if not tokens:
        return result

    words, starts, ends = tokens.words, tokens.starts, tokens.ends
    gaps = silence_gaps(tokens)
    # gaps are disjoint and sorted, so their midpoints strictly ascend
    mids = [(gs + ge) // 2 for gs, ge in gaps]
    lengths = [ge - gs for gs, ge in gaps]
    stream_end = ends[-1]
    start = starts[0]
    tok_i = 0  # first token not yet assigned
    number = 0  # of the next segment

    def emit(end: int) -> None:
        nonlocal tok_i, start, number
        first, tok_i = tok_i, bisect_right(ends, end, tok_i)
        if end > start:
            if tok_i > first:
                result.segments.append(
                    Segment(f"{segment_id_prefix}_{number:04d}", start, end,
                            words[first:tok_i], range(first, tok_i))
                )
            number += 1
        else:  # a zero-width cut before a dropped leading token drops its zero-length tokens
            result.dropped_tokens += range(first, tok_i)
        start = end

    while True:
        remaining = stream_end - start
        if remaining < min_len:
            break
        if remaining <= max_len:
            emit(stream_end)
            break

        # the forced cuts before both the next token start and the next gap
        # midpoint in reach hold nothing: skip them, counting their numbers
        first = bisect_left(mids, start + min_len)
        clear = min(starts[tok_i], mids[first]) if first < len(mids) else starts[tok_i]
        if (skip := (clear - start - 1) // max_len) > 0:
            number += skip
            start += skip * max_len
            continue

        cut = start + max_len
        last = bisect_right(mids, cut)
        if first < last:
            # max() keeps the first of equal lengths: the earliest gap wins ties
            emit(mids[max(range(first, last), key=lengths.__getitem__)])
            continue

        # no gap in the window: the cut is forced at max_len, and only the
        # last token starting before it can straddle it
        k = bisect_left(starts, cut) - 1
        if k < tok_i or ends[k] <= cut:
            emit(cut)
        elif ends[k] <= cut + FORCED_CUT_SLACK_MS:
            emit(ends[k])
        else:
            emit(starts[k])
            result.dropped_tokens.append(k)
            tok_i, start = k + 1, ends[k]  # the stream resumes after the dropped token

    if start < stream_end and tok_i < len(tokens):
        result.residual = Segment(f"{segment_id_prefix}_residual", start, stream_end,
                                  words[tok_i:], range(tok_i, len(tokens)))
        if keep_residual:
            result.segments.append(result.residual)
    else:  # tokens left at the stream's end have zero length, and a zero-width cut drops them
        result.dropped_tokens += range(tok_i, len(tokens))
    return result


def read_token_stream(path: str | Path) -> TokenStream:
    """Read one recording's token file into a ``TokenStream``.

    A file that cannot be read fails naming it. A malformed line, bytes
    that are not UTF-8 included, fails naming the file and the line, unless
    a token before it already breaks the stream rules: the first fault in
    file order is the one named. The file is parsed at once when that
    provably gives the per-line parse (``_parse_at_once``); otherwise, and
    for any fault, line by line (``_parse_by_line``).
    """
    # bytes.splitlines breaks at \n, \r and \r\n, as text-mode reading does
    lines = read_bytes(path).splitlines()
    stream = _parse_at_once(path, lines)
    return stream if stream is not None else _parse_by_line(path, lines)


def _parse_at_once(path, lines: list[bytes]) -> TokenStream | None:
    """The stream of a token file's ``lines`` from one ``json.loads`` of its
    non-blank lines as one JSON array, or None when that parse is not shown
    to equal the per-line one or the file breaks a token rule.

    It is shown equal when the file holds no ``[`` or ``]``, every kept line
    starts with ``{`` and ends with ``}``, and the array holds one element
    per line. Joined by ``,\n``, such lines meet only at the array's top
    level: strict JSON holds no line end in a string, no inner array can
    open, and inside an object a ``,`` is followed by a key, not a ``{``. So
    each line holds whole elements, and with one each, it parses as alone.
    A line blank as bytes (ASCII whitespace) is blank as text too, and one
    blank only as text does not start with ``{``.
    """
    kept = [line for line in lines if line.strip()]
    joined = b",\n".join(kept)
    if (not kept or b"[" in joined or b"]" in joined or joined[:1] != b"{"
            or joined[-1:] != b"}" or joined.count(b"},\n{") != len(kept) - 1):
        return None
    try:
        tokens = json.loads(f"[{decode_utf8(joined, path)}]")
        if len(tokens) != len(kept):
            return None
        words = [token["w"] for token in tokens]
        starts = [token["s"] for token in tokens]
        ends = [token["e"] for token in tokens]
    except (KeyError, ValueError, RecursionError):  # bad UTF-8 is an InputError, a ValueError
        return None
    # " ".join(words).split() == words: every word is non-empty without whitespace
    if (set(map(type, words)) != {str} or set(map(type, starts)) | set(map(type, ends)) != {int}
            or " ".join(words).split() != words):
        return None
    try:
        return TokenStream(words, starts, ends)
    except TokenStreamError:
        return None


def _parse_by_line(path, lines: list[bytes]) -> TokenStream:
    """The stream of a token file's ``lines``, each decoded and parsed on
    its own, so a fault names its line; see ``read_token_stream``."""
    words, starts, ends, numbers = [], [], [], []
    bad_line = None
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            token = json.loads(line)
            word, start, end = token["w"], token["s"], token["e"]
            if type(word) is not str or word.split() != [word]:
                raise ValueError(f"word {word!r} is not a non-empty string without whitespace")
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"times {start!r}, {end!r} are not JSON integers")
        except (KeyError, TypeError, ValueError) as exc:
            bad_line = f"{path}:{lineno}: bad token line: {exc}"
            break
        words.append(word)
        starts.append(start)
        ends.append(end)
        numbers.append(lineno)
    try:
        stream = TokenStream(words, starts, ends)
    except TokenStreamError as exc:
        raise TokenStreamError(f"{path}:{numbers[exc.index]}: {exc}") from None
    if bad_line:
        raise TokenStreamError(bad_line)
    return stream


def write_token_stream(path: str | Path, tokens: TokenStream) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, start, end in zip(tokens.words, tokens.starts, tokens.ends):
            fh.write(json.dumps({"w": word, "s": start, "e": end}) + "\n")
