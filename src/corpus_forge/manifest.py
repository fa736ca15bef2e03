"""Manifest and report file formats.

Manifests are UTF-8 TSV with LF line endings and a header row; the first
line is a ``# config_hash=<hex>`` provenance comment so files produced under
different configurations cannot be mixed silently.
"""

from __future__ import annotations

import csv
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


def candidate_row(c) -> tuple:
    """A ``retrieval.CandidateTranscript`` as one CANDIDATE_COLUMNS row."""
    book_id, (start, end) = c.source
    wer, accepted = f"{c.pseudo_wer:.6f}", str(c.accepted).lower()
    return (c.segment_id, book_id, start, end, wer, accepted, " ".join(c.words))


class ProvenanceError(ValueError):
    """Raised when a file's config hash does not match the active run."""


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


def _fmt_wer(wer: float | None) -> str:
    return "" if wer is None else f"{wer:.6f}"


def write_manifest(path: str | Path, rows, config_hash: str) -> None:
    rows = list(rows)
    seen = set()
    for row in rows:
        if row.segment_id in seen:
            raise ValueError(f"duplicate segment_id {row.segment_id}")
        seen.add(row.segment_id)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write("\t".join(MANIFEST_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                "\t".join(
                    (
                        row.segment_id,
                        row.book_id,
                        row.chapter_id,
                        row.speaker_id,
                        row.gender,
                        str(row.start_ms),
                        str(row.end_ms),
                        row.transcript,
                        _fmt_wer(row.wer),
                        row.partition,
                    )
                )
                + "\n"
            )


def read_manifest(path: str | Path, expect_hash: str | None = None) -> list[ManifestRow]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ProvenanceError(f"{path}: missing config hash line")
    found = lines[0].split("=", 1)[1]
    if expect_hash is not None and found != expect_hash:
        raise ProvenanceError(
            f"{path}: config hash {found} does not match active run {expect_hash}"
        )
    if len(lines) < 2 or lines[1].split("\t") != list(MANIFEST_COLUMNS):
        raise ValueError(f"{path}: bad or missing manifest header")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} columns")
        rows.append(
            ManifestRow(
                segment_id=parts[0],
                book_id=parts[1],
                chapter_id=parts[2],
                speaker_id=parts[3],
                gender=parts[4],
                start_ms=int(parts[5]),
                end_ms=int(parts[6]),
                transcript=parts[7],
                wer=float(parts[8]) if parts[8] else None,
                partition=parts[9],
            )
        )
    return rows


def write_tsv(path: str | Path, columns, rows, config_hash: str) -> None:
    """Generic hashed TSV report (candidates, rejections, histograms)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def read_tsv(path: str | Path, expect_hash: str | None = None) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ProvenanceError(f"{path}: missing config hash line")
    found = lines[0].split("=", 1)[1]
    if expect_hash is not None and found != expect_hash:
        raise ProvenanceError(
            f"{path}: config hash {found} does not match active run {expect_hash}"
        )
    reader = csv.reader(lines[1:], delimiter="\t")
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty TSV")
    return rows[0], rows[1:]
