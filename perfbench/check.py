"""Independent correctness check of one corpus-forge release.

The truth comes from the synthetic generator's inputs only: the raw book
texts (through this file's own lowercase-and-strip-punctuation tokenizer),
the per-chapter token timings, and the ``truth/*.json`` sidecars that map
every spoken token to its source word index. Nothing here imports
corpus_forge: the TSV reader and the word edit distance are this file's own,
so a defect in the program's WER or normalizer cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

PARTITIONS = ("train", "dev", "test")
# bounds for noisy workloads (acceptance criterion 2 of the program)
MIN_ACCEPT_SHARE = 0.95
MAX_TRUTH_WER = 0.15
MAX_ERRORS_LISTED = 20


def tokenize(raw: str) -> list[str]:
    """Lowercase, drop every character that is not a letter or digit, split
    on whitespace. The generator's vocabulary is plain lowercase letters, so
    this recovers exactly the words it rendered."""
    words = []
    for token in raw.lower().split():
        word = "".join(ch for ch in token if ch.isalnum())
        if word:
            words.append(word)
    return words


def edit_distance(a: list[str], b: list[str]) -> int:
    """Word-level Levenshtein distance with unit costs."""
    lo = 0
    while lo < len(a) and lo < len(b) and a[lo] == b[lo]:
        lo += 1
    hi_a, hi_b = len(a), len(b)
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, 1):
        cur = [i]
        for j, wb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (wa != wb)))
        prev = cur
    return prev[-1]


def read_table(path: Path) -> list[dict[str, str]]:
    """Rows of a release TSV: a ``# config_hash=`` line, a header, data."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ValueError(f"{path}: missing config hash line")
    rows = [r for r in csv.reader(lines[1:], delimiter="\t") if r]
    if not rows:
        raise ValueError(f"{path}: missing header")
    header = rows[0]
    for r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"{path}: row {r[:1]} has {len(r)} fields, header {len(header)}")
    return [dict(zip(header, r)) for r in rows[1:]]


class Truth:
    """What the generator says each stretch of audio reads."""

    def __init__(self, input_dir: Path):
        input_dir = Path(input_dir)
        self.books = {
            p.stem: tokenize(p.read_text(encoding="utf-8"))
            for p in sorted((input_dir / "books").glob("*.txt"))
        }
        self.chapters: dict[str, tuple[str, list[int], list[int], list[int]]] = {}
        for path in sorted((input_dir / "truth").glob("*.json")):
            meta = json.loads(path.read_text(encoding="utf-8"))
            lines = (input_dir / "tokens" / f"{path.stem}.jsonl").read_text(encoding="utf-8")
            tokens = [json.loads(line) for line in lines.splitlines() if line]
            indices = meta["source_indices"]
            if len(indices) != len(tokens):
                raise ValueError(f"{path}: {len(indices)} indices for {len(tokens)} tokens")
            self.chapters[path.stem] = (
                meta["book_id"],
                [t["s"] for t in tokens],
                [t["e"] for t in tokens],
                indices,
            )

    def span(self, chapter_id: str, start_ms: int, end_ms: int) -> tuple[str, int, int]:
        """(book, lo, hi): the book words read between start_ms and end_ms."""
        book_id, starts, ends, indices = self.chapters[chapter_id]
        first = bisect_left(starts, start_ms)
        last = bisect_right(ends, end_ms) - 1
        if last < first:
            raise ValueError(f"{chapter_id} [{start_ms}, {end_ms}] holds no token")
        return book_id, indices[first], indices[last] + 1

    def words(self, chapter_id: str, start_ms: int, end_ms: int) -> list[str]:
        book_id, lo, hi = self.span(chapter_id, start_ms, end_ms)
        return self.books[book_id][lo:hi]


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    error_count: int = 0
    segments: int = 0
    accepted: int = 0
    truth_wer: float = 0.0
    kept_h: float = 0.0
    release_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error_count == 0

    def fail(self, message: str) -> None:
        self.error_count += 1
        if len(self.errors) < MAX_ERRORS_LISTED:
            self.errors.append(message)


def check_release(truth: Truth, out_dir: Path, exact: bool) -> Verdict:
    """Check a release against the generator's truth.

    ``exact`` (noise-free inputs): every segment is accepted with exactly its
    truth span and words, and every released transcript equals its truth.
    Otherwise at least MIN_ACCEPT_SHARE of segments are accepted and each
    accepted transcript has truth WER at most MAX_TRUTH_WER. Either way the
    release keeps speakers and chapters in one partition each, and the
    limited sets are disjoint 10-minute sets inside 1 h inside 10 h inside
    train.
    """
    out_dir = Path(out_dir)
    v = Verdict()

    segments = {r["segment_id"]: r for r in read_table(out_dir / "work/segment/segments.tsv")}
    accepted = read_table(out_dir / "work/filter/accepted.tsv")
    v.segments, v.accepted = len(segments), len(accepted)
    if not segments:
        v.fail("no segments")
    accepted_ids = set()
    for cand in accepted:
        seg_id = cand["segment_id"]
        accepted_ids.add(seg_id)
        seg = segments.get(seg_id)
        if seg is None:
            v.fail(f"accepted {seg_id} is not a segment")
            continue
        book_id, lo, hi = truth.span(seg["chapter_id"], int(seg["start_ms"]), int(seg["end_ms"]))
        expected = truth.books[book_id][lo:hi]
        words = cand["transcript"].split()
        if exact:
            got = (cand["book_id"], int(cand["offset_start"]), int(cand["offset_end"]))
            if got != (book_id, lo, hi) or words != expected:
                v.fail(f"{seg_id}: candidate {got} differs from truth {(book_id, lo, hi)}")
        elif edit_distance(words, expected) > MAX_TRUTH_WER * len(expected):
            v.fail(f"{seg_id}: accepted transcript has truth WER above {MAX_TRUTH_WER}")
    if exact:
        for seg_id in sorted(set(segments) - accepted_ids):
            v.fail(f"{seg_id}: segment not accepted")
    elif v.accepted < MIN_ACCEPT_SHARE * v.segments:
        v.fail(f"accepted {v.accepted} of {v.segments} segments, under {MIN_ACCEPT_SHARE:.0%}")

    released: dict[str, list[dict[str, str]]] = {
        p: read_table(out_dir / "manifests" / f"{p}.tsv") for p in PARTITIONS
    }
    errors_total = words_total = ms_total = 0
    partition_of: dict[str, dict[str, str]] = {"speaker_id": {}, "chapter_id": {}}
    released_ids: set[str] = set()
    for part, rows in released.items():
        if not rows:
            v.fail(f"partition {part} is empty")
        for r in rows:
            for key, seen in partition_of.items():
                other = seen.setdefault(r[key], part)
                if other != part:
                    v.fail(f"{key} {r[key]} is in both {other} and {part}")
            if r["segment_id"] in released_ids:
                v.fail(f"{r['segment_id']} is released twice")
            released_ids.add(r["segment_id"])
            if r["segment_id"] not in accepted_ids:
                v.fail(f"released {r['segment_id']} was not accepted")
            expected = truth.words(r["chapter_id"], int(r["start_ms"]), int(r["end_ms"]))
            distance = edit_distance(r["transcript"].split(), expected)
            if exact and distance:
                v.fail(f"{part} {r['segment_id']}: transcript differs from truth")
            errors_total += distance
            words_total += len(expected)
            ms_total += int(r["end_ms"]) - int(r["start_ms"])
    v.truth_wer = errors_total / words_total if words_total else 1.0
    v.kept_h = ms_total / 3_600_000
    _check_limited(out_dir / "manifests", {r["segment_id"] for r in released["train"]}, v)

    size = sum(
        p.stat().st_size
        for sub in ("manifests", "lm")
        for p in (out_dir / sub).rglob("*")
        if p.is_file()
    )
    v.release_mb = size / 2**20
    return v


def _check_limited(manifests: Path, train_ids: set[str], v: Verdict) -> None:
    def ids(name: str) -> set[str]:
        return {r["segment_id"] for r in read_table(manifests / f"{name}.tsv")}

    ten_minute = [ids(p.stem) for p in sorted(manifests.glob("limited_10min_*.tsv"))]
    one_hour, ten_hour = ids("limited_1h"), ids("limited_10h")
    if not ten_minute:
        v.fail("no 10-minute limited sets")
    for i, a in enumerate(ten_minute):
        for j in range(i + 1, len(ten_minute)):
            if a & ten_minute[j]:
                v.fail(f"10-minute sets {i + 1} and {j + 1} overlap")
    if set().union(*ten_minute) != one_hour:
        v.fail("the 10-minute sets do not form the 1 h set")
    if not one_hour <= ten_hour:
        v.fail("1 h set is not inside the 10 h set")
    if not ten_hour <= train_ids:
        v.fail("10 h set is not inside train")


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative path, then content."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
