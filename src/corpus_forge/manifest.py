"""Manifest and report file formats.

Every TSV (manifests, candidates, reports) is UTF-8 with LF line endings,
written and read by one ``csv`` dialect under a header row: tab-delimited,
fields quoted only when they hold a tab, quote or line feed, and every field
of a row that holds a carriage return. The first line of every hashed file
is a ``# config_hash=<hex>`` provenance comment, checked by one reader, so
files produced under different configurations cannot be mixed silently.

TSVs stream both ways. One reader yields a file's rows as they are asked
for, checking the hash line, the header and each row in file order, and
closes the file when the iteration ends, fails or is dropped; a faulty row
or field is named by file and row. ``read_manifest`` builds a list from it,
and ``iter_manifest`` and ``read_candidates`` yield one record at a time.
One writer takes any iterable of rows and formats them a block at a time.
Every file the pipeline writes goes through ``atomic_open``: to a temporary
file beside its target, moved into place once it is whole, so a failure
part-way leaves the earlier file as it was and no torn one. Only
``read_bytes`` opens an input file, naming one it cannot read;
``decode_utf8`` decodes one, naming the line of a bad byte; and only
``numbered_lines`` splits a line-oriented one into lines.

A ``ManifestRow`` is one segment. A ``CandidateTranscript`` is the book text
retrieved for one segment, with its WER against the pseudo label and whether
it is accepted; it crosses retrieve, postprocess, filter and split as one
record, through ``write_candidates`` and ``read_candidates``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

MANIFEST_COLUMNS = (
    "segment_id",
    "book_id",
    "chapter_id",
    "speaker_id",
    "gender",
    "start_ms",
    "end_ms",
    "transcript",
    "wer",
    "partition",
)

CANDIDATE_COLUMNS = (
    "segment_id",
    "book_id",
    "offset_start",
    "offset_end",
    "wer",
    "accepted",
    "transcript",
)

PARTITIONS = ("train", "dev", "test", "unassigned")
BLOCK_ROWS = 128  # rows formatted and written at a time


class InputError(ValueError):
    """A faulty input file, named with its line, or an output directory that cannot be made."""


class ProvenanceError(ValueError):
    """Raised when a file's config hash does not match the active run."""


@dataclass
class CandidateTranscript:
    segment_id: str
    words: tuple[str, ...]
    source: tuple[str, tuple[int, int]]  # (book_id, word offset range)
    pseudo_wer: float
    accepted: bool


def candidate_row(c: CandidateTranscript) -> tuple:
    """A candidate as one CANDIDATE_COLUMNS row."""
    book_id, (start, end) = c.source
    wer, accepted = f"{c.pseudo_wer:.6f}", str(c.accepted).lower()
    return (c.segment_id, book_id, start, end, wer, accepted, " ".join(c.words))


def _convert(convert, column: str, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{column}: {exc}") from None


def _candidate(fields: list[str]) -> CandidateTranscript:
    segment_id, book_id, start, end, wer, accepted, transcript = fields
    start, end = _convert(int, "offset_start", start), _convert(int, "offset_end", end)
    if start >= end:
        raise ValueError(f"offset_start {start} must be < offset_end {end}")
    if accepted not in ("true", "false"):
        raise ValueError(f"accepted {accepted!r} is neither true nor false")
    return CandidateTranscript(
        segment_id, tuple(transcript.split()), (book_id, (start, end)),
        _convert(float, "wer", wer), accepted == "true",
    )


def write_candidates(path: str | Path, candidates, config_hash: str) -> None:
    """Write candidates from any iterable, one block of rows at a time."""
    _write_rows(path, CANDIDATE_COLUMNS, map(candidate_row, candidates), config_hash)


def read_candidates(path: str | Path, expect_hash: str | None = None) -> Iterator[CandidateTranscript]:
    """The candidates of a file, one at a time."""
    return _read_records(path, expect_hash, CANDIDATE_COLUMNS, "candidate", _candidate)


@dataclass
class ManifestRow:
    segment_id: str
    book_id: str
    chapter_id: str
    speaker_id: str
    gender: str
    start_ms: int
    end_ms: int
    transcript: str
    wer: float | None = None
    partition: str = "unassigned"

    def __post_init__(self):
        if self.start_ms >= self.end_ms:
            raise ValueError(
                f"{self.segment_id}: start_ms {self.start_ms} must be < end_ms {self.end_ms}"
            )
        if self.partition not in PARTITIONS and not self.partition.startswith("limited:"):
            raise ValueError(f"{self.segment_id}: bad partition {self.partition!r}")

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


def _manifest_fields(r: ManifestRow) -> tuple:
    wer = "" if r.wer is None else f"{r.wer:.6f}"
    return (r.segment_id, r.book_id, r.chapter_id, r.speaker_id, r.gender,
            r.start_ms, r.end_ms, r.transcript, wer, r.partition)


def _manifest_row(fields: list[str]) -> ManifestRow:
    *text, start_ms, end_ms, transcript, wer, partition = fields
    return ManifestRow(
        *text, _convert(int, "start_ms", start_ms), _convert(int, "end_ms", end_ms),
        transcript, _convert(float, "wer", wer) if wer else None, partition,
    )


def write_manifest(path: str | Path, rows, config_hash: str) -> None:
    rows = list(rows)
    seen = set()
    for row in rows:
        if row.segment_id in seen:
            raise ValueError(f"duplicate segment_id {row.segment_id}")
        seen.add(row.segment_id)
    write_tsv(path, MANIFEST_COLUMNS, [_manifest_fields(r) for r in rows], config_hash)


def iter_manifest(path: str | Path, expect_hash: str | None = None) -> Iterator[ManifestRow]:
    """The rows of a manifest, one at a time."""
    return _read_records(path, expect_hash, MANIFEST_COLUMNS, "manifest", _manifest_row)


def read_manifest(path: str | Path, expect_hash: str | None = None) -> list[ManifestRow]:
    return list(iter_manifest(path, expect_hash))


def _read_records(path, expect_hash, columns, kind: str, parse) -> Iterator:
    """Each row of a hashed TSV whose header is ``columns``, as ``parse``
    builds it from the row's fields, in file order. A row that does not hold
    one field per column, or whose fields ``parse`` refuses, fails naming
    the file and the row."""
    with closing(_tsv_rows(path, expect_hash)) as rows:
        if next(rows) != list(columns):
            raise ValueError(f"{path}: bad or missing {kind} header")
        for i, fields in enumerate(rows, start=1):
            if len(fields) != len(columns):
                raise ValueError(f"{path}: row {i}: expected {len(columns)} columns")
            try:
                record = parse(fields)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
            yield record


def _check_hash_line(fh, path, expect_hash: str | None) -> None:
    """Read and check the ``# config_hash=`` line of a file opened with
    ``newline=""``, leaving ``fh`` at the line after it.

    The line ends at the first line feed; ``readline`` alone would also end
    it at a bare carriage return.
    """
    head = ""
    while not head.endswith("\n") and (piece := fh.readline()):
        head += piece
    head = head.removesuffix("\n").rstrip("\r")
    if not head.startswith("# config_hash="):
        raise ProvenanceError(f"{path}: missing config hash line")
    found = head.split("=", 1)[1]
    if expect_hash is not None and found != expect_hash:
        raise ProvenanceError(
            f"{path}: config hash {found} does not match active run {expect_hash}"
        )


def _tsv_rows(path, expect_hash: str | None) -> Iterator[list[str]]:
    """The non-blank rows of a hashed TSV, header first, read as they are
    asked for."""
    with open(path, encoding="utf-8", newline="") as fh:
        _check_hash_line(fh, path, expect_hash)
        rows = filter(None, csv.reader(fh, delimiter="\t"))
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty TSV")
        yield header
        yield from rows


def _tsv_text(rows, quoting=csv.QUOTE_MINIMAL) -> str:
    text = io.StringIO()
    csv.writer(text, delimiter="\t", lineterminator="\n", quoting=quoting).writerows(rows)
    return text.getvalue()


def _block_text(rows: list) -> str:
    body = _tsv_text(rows)
    if "\r" in body:
        # minimal quoting leaves a carriage return bare, and the reader would
        # end the record there: quote every field of the rows that hold one
        lines = (_tsv_text([row]) for row in rows)
        body = "".join(
            _tsv_text([row], csv.QUOTE_ALL) if "\r" in line else line
            for row, line in zip(rows, lines)
        )
    return body


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """``open`` a temporary name beside ``path`` that replaces it when the
    block ends; a failure part-way removes the temporary file instead."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(path: str | Path, columns, rows, config_hash: str) -> None:
    """Write a hashed TSV from any iterable of rows, BLOCK_ROWS at a time."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        rows = iter(rows)
        block = [columns]
        while block:
            fh.write(_block_text(block))
            block = list(islice(rows, BLOCK_ROWS))


def write_tsv(path: str | Path, columns, rows: list, config_hash: str) -> None:
    """Hashed TSV (manifests, reports, histograms) from a list of rows."""
    _write_rows(path, columns, rows, config_hash)


def write_lines(path: str | Path, lines, config_hash: str) -> None:
    """Hashed plain-text list, one item per line."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n" + "\n".join(lines) + "\n")


def read_lines(path: str | Path, expect_hash: str | None = None) -> list[str]:
    """The items of a ``write_lines`` file: its non-empty LF-ended lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        _check_hash_line(fh, path, expect_hash)
        return [line for line in fh.read().split("\n") if line]


def read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file, the one place one is opened. One that
    cannot be read fails as an ``InputError`` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:  # missing, a directory, or unreadable
        raise InputError(f"{path}: cannot read: {exc.strerror}") from None


def read_text(path: str | Path) -> str:
    """The text of an input file, its CR LF and lone CR read as LF. Bytes
    that are not UTF-8 fail as in ``decode_utf8``."""
    # no UTF-8 sequence holds a \r or \n byte
    return decode_utf8(read_bytes(path).replace(b"\r\n", b"\n").replace(b"\r", b"\n"), path)


def decode_utf8(raw: bytes, path: str | Path) -> str:
    """``raw``, bytes of the input file ``path`` with LF line ends, as text.
    Bytes that are not UTF-8 fail as an ``InputError`` naming the file and
    the line: one more than the count of LF before the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not valid UTF-8") from None


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line of a line file that holds something
    once its ``#`` comment and outer whitespace are stripped; lines end at LF alone."""
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if line := line.split("#", 1)[0].strip():
            yield lineno, line


def make_dir(path: str | Path) -> None:
    """Make the directory ``path``; a file in its way fails naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{path}: cannot make directory: {exc.strerror}") from None


def json_text(obj) -> str:
    """The layout of every JSON report: one-space indent, sorted keys."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path: str | Path, obj) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))
