"""Manifest and report file formats.

Every TSV (manifests, candidates, reports) is UTF-8 with LF line endings,
written and read by one ``csv`` dialect under a header row: tab-delimited,
fields quoted only when they hold a tab, quote or line feed, and every field
of a row that holds a carriage return. The first line of every hashed file
is a ``# config_hash=<hex>`` provenance comment, checked by one reader, so
files produced under different configurations cannot be mixed silently.

A ``ManifestRow`` is one segment. A ``CandidateTranscript`` is the book text
retrieved for one segment, with its WER against the pseudo label and whether
it is accepted; it crosses retrieve, postprocess, filter and split as one
record, through ``write_candidates`` and ``read_candidates``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
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


class InputError(ValueError):
    """An input file that breaks its format, named with its faulty line."""


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


def _candidate(fields: list[str]) -> CandidateTranscript:
    segment_id, book_id, start, end, wer, accepted, transcript = fields
    return CandidateTranscript(
        segment_id, tuple(transcript.split()), (book_id, (int(start), int(end))),
        float(wer), accepted == "true",
    )


def write_candidates(path: str | Path, candidates, config_hash: str) -> None:
    write_tsv(path, CANDIDATE_COLUMNS, [candidate_row(c) for c in candidates], config_hash)


def read_candidates(path: str | Path, expect_hash: str | None = None) -> list[CandidateTranscript]:
    return [_candidate(f) for f in _read_records(path, expect_hash, CANDIDATE_COLUMNS, "candidate")]


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
        *text, int(start_ms), int(end_ms), transcript, float(wer) if wer else None, partition
    )


def write_manifest(path: str | Path, rows, config_hash: str) -> None:
    rows = list(rows)
    seen = set()
    for row in rows:
        if row.segment_id in seen:
            raise ValueError(f"duplicate segment_id {row.segment_id}")
        seen.add(row.segment_id)
    write_tsv(path, MANIFEST_COLUMNS, [_manifest_fields(r) for r in rows], config_hash)


def read_manifest(path: str | Path, expect_hash: str | None = None) -> list[ManifestRow]:
    return [_manifest_row(f) for f in _read_records(path, expect_hash, MANIFEST_COLUMNS, "manifest")]


def _read_records(path, expect_hash, columns, kind: str) -> list[list[str]]:
    """The rows of a hashed TSV whose header is ``columns``, each checked
    to hold one field per column."""
    header, rows = read_tsv(path, expect_hash)
    if header != list(columns):
        raise ValueError(f"{path}: bad or missing {kind} header")
    for i, fields in enumerate(rows, start=1):
        if len(fields) != len(columns):
            raise ValueError(f"{path}: row {i}: expected {len(columns)} columns")
    return rows


def _hashed_body(path: str | Path, expect_hash: str | None) -> str:
    """The text of a hashed file after its checked ``# config_hash=`` line.

    Every caller needs the whole file, so it is read at once.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        head, _, body = fh.read().partition("\n")
    head = head.rstrip("\r")
    if not head.startswith("# config_hash="):
        raise ProvenanceError(f"{path}: missing config hash line")
    found = head.split("=", 1)[1]
    if expect_hash is not None and found != expect_hash:
        raise ProvenanceError(
            f"{path}: config hash {found} does not match active run {expect_hash}"
        )
    return body


def _tsv_text(rows, quoting=csv.QUOTE_MINIMAL) -> str:
    text = io.StringIO()
    csv.writer(text, delimiter="\t", lineterminator="\n", quoting=quoting).writerows(rows)
    return text.getvalue()


def write_tsv(path: str | Path, columns, rows, config_hash: str) -> None:
    """Hashed TSV (manifests, candidates, reports, histograms)."""
    rows = [columns, *rows]
    body = _tsv_text(rows)
    if "\r" in body:
        # minimal quoting leaves a carriage return bare, and the reader would
        # end the record there: quote every field of the rows that hold one
        lines = (_tsv_text([row]) for row in rows)
        body = "".join(
            _tsv_text([row], csv.QUOTE_ALL) if "\r" in line else line
            for row, line in zip(rows, lines)
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n{body}")


def read_tsv(path: str | Path, expect_hash: str | None = None) -> tuple[list[str], list[list[str]]]:
    body = io.StringIO(_hashed_body(path, expect_hash), newline="")
    rows = [row for row in csv.reader(body, delimiter="\t") if row]
    if not rows:
        raise ValueError(f"{path}: empty TSV")
    return rows[0], rows[1:]


def write_lines(path: str | Path, lines, config_hash: str) -> None:
    """Hashed plain-text list, one item per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n" + "\n".join(lines) + "\n")


def read_lines(path: str | Path, expect_hash: str | None = None) -> list[str]:
    """The non-blank lines of a ``write_lines`` file, stripped."""
    lines = _hashed_body(path, expect_hash).splitlines()
    return [line.strip() for line in lines if line.strip()]


def json_text(obj) -> str:
    """The layout of every JSON report: one-space indent, sorted keys."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")
