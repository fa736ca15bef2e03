"""Speaker/chapter partitioning and limited-supervision subset carving.

Speakers below a duration threshold always train; from the rest, the 2k
shortest-duration speakers per gender alternate into dev and test (k each),
everyone else trains. Dev/test speakers over the duration cap have whole
segments sampled away under the run seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .config import derived_seed

GENDERS = ("M", "F")


class SplitError(ValueError):
    """Unsatisfiable partition request (e.g. dev/test quota deficit)."""


@dataclass(frozen=True)
class SpeakerRecord:
    speaker_id: str
    gender: str
    total_duration: float  # seconds over valid books
    mean_pseudo_wer: float = 0.0

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if self.total_duration < 0:
            raise ValueError("total_duration must be >= 0")
        if not 0.0 <= self.mean_pseudo_wer <= 1.0:
            raise ValueError("mean_pseudo_wer must be in [0, 1]")


@dataclass(frozen=True)
class ChapterRef:
    chapter_id: str
    speaker_id: str


@dataclass(frozen=True)
class BookRecord:
    book_id: str
    title: tuple[str, ...]
    author: str
    version: int
    chapters: tuple[ChapterRef, ...]
    multi_speaker: bool = False


@dataclass
class PartitionAssignment:
    speaker_partition: dict[str, str]
    kept_segments: dict[str, tuple[str, ...]] = field(default_factory=dict)
    truncation_report: list[dict] = field(default_factory=list)


def validate_books(books) -> tuple[list[BookRecord], list[dict]]:
    """Drop corrupted-metadata and multi-speaker books; keep only the highest
    version per (author, title). Returns (valid, rejection report)."""
    report = []
    survivors = []
    for book in books:
        if not book.title or not book.author or any(not ch.speaker_id for ch in book.chapters):
            report.append({"book_id": book.book_id, "reason": "corrupted metadata"})
            continue
        if book.multi_speaker:
            report.append({"book_id": book.book_id, "reason": "multiple speakers"})
            continue
        survivors.append(book)

    latest: dict[tuple[str, tuple[str, ...]], BookRecord] = {}
    for book in survivors:
        key = (book.author, book.title)
        cur = latest.get(key)
        if cur is None:
            latest[key] = book
        elif book.version > cur.version or (
            book.version == cur.version and book.book_id < cur.book_id
        ):
            report.append({"book_id": cur.book_id, "reason": "superseded version"})
            latest[key] = book
        else:
            report.append({"book_id": book.book_id, "reason": "superseded version"})
    valid = sorted(latest.values(), key=lambda b: b.book_id)
    return valid, report


def partition_speakers(
    speakers,
    dev_test_speakers_per_gender: int,
    train_threshold: float,
    dev_test_cap: float,
    recordings: dict[str, list[tuple[str, float]]],
    seed: int = 0,
) -> PartitionAssignment:
    """Assign every speaker to train/dev/test.

    ``recordings`` maps speaker_id to (segment_id, duration_s) pairs;
    dev/test speakers above ``dev_test_cap`` keep only a seeded random
    subset of whole segments fitting under the cap. A ``speaker_id`` given
    twice, which could break the dev/test balance, is a ``SplitError``.
    """
    k = dev_test_speakers_per_gender
    if k < 1:
        raise SplitError("dev_test_speakers_per_gender must be >= 1")
    speakers = sorted(speakers, key=lambda s: s.speaker_id)
    for before, sp in zip(speakers, speakers[1:]):
        if before.speaker_id == sp.speaker_id:
            raise SplitError(f"speaker {sp.speaker_id!r} is given twice")
    assignment = PartitionAssignment(speaker_partition={})
    eligible: dict[str, list[SpeakerRecord]] = {g: [] for g in GENDERS}
    for sp in speakers:
        if sp.total_duration < train_threshold:
            assignment.speaker_partition[sp.speaker_id] = "train"
        else:
            eligible[sp.gender].append(sp)

    for g in GENDERS:
        if len(eligible[g]) < 2 * k:
            raise SplitError(
                f"need {2 * k} speakers of gender {g} above the train threshold, "
                f"found {len(eligible[g])} (deficit {2 * k - len(eligible[g])})"
            )

    for g in GENDERS:
        ranked = sorted(eligible[g], key=lambda s: (s.total_duration, s.speaker_id))
        for idx, sp in enumerate(ranked[: 2 * k]):
            part = "dev" if idx % 2 == 0 else "test"
            assignment.speaker_partition[sp.speaker_id] = part
            segs = recordings.get(sp.speaker_id, [])
            total = sum(d for _, d in segs)
            if total > dev_test_cap:
                rng = random.Random(derived_seed(f"{seed}:{sp.speaker_id}"))
                shuffled = sorted(segs)  # stable base order
                rng.shuffle(shuffled)
                kept = []
                kept_total = 0.0
                for seg_id, dur in shuffled:
                    if kept_total + dur <= dev_test_cap:
                        kept.append(seg_id)
                        kept_total += dur
                assignment.kept_segments[sp.speaker_id] = tuple(sorted(kept))
                assignment.truncation_report.append(
                    {
                        "speaker_id": sp.speaker_id,
                        "partition": part,
                        "before_s": total,
                        "after_s": kept_total,
                    }
                )
        for sp in ranked[2 * k :]:
            assignment.speaker_partition[sp.speaker_id] = "train"
    return assignment


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (the numpy 'linear' convention)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("quantile of empty list")
    if len(vals) == 1:
        return vals[0]
    h = q * (len(vals) - 1)
    lo = int(h)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (h - lo) * (vals[hi] - vals[lo])


def select_hard_speakers(candidates, reference_wers, percentile: float = 0.80):
    """Keep candidates whose mean pseudo-label WER strictly exceeds the given
    quantile of the reference WER distribution."""
    if not reference_wers:
        raise ValueError("reference_wers must be non-empty")
    cutoff = quantile(reference_wers, percentile)
    return [sp for sp in candidates if sp.mean_pseudo_wer > cutoff]


TEN_MINUTE_SETS = 6
SET_SPEAKERS_PER_GENDER = 3
SET_MINUTES_PER_GENDER = 5.0
REMAINDER_HOURS_PER_GENDER = 4.5


@dataclass
class LimitedSets:
    ten_minute: tuple[frozenset[str], ...]
    one_hour: frozenset[str]
    ten_hour: frozenset[str]
    report: dict


def make_limited_supervision(
    segments,
    seed: int,
    speakers_per_gender: int = 15,
) -> LimitedSets:
    """Carve nested limited-supervision subsets out of the train partition.

    ``segments``: (segment_id, speaker_id, gender, duration_s) rows. Six
    10-minute sets, each 5 minutes per gender from 3 speakers per gender, are
    pairwise disjoint; their union is the 1 h set, which the 10 h set extends
    with up to 4.5 h per gender from the same speaker pool. Shortfalls shrink
    proportionally and are reported.
    """
    rng = random.Random(derived_seed(f"{seed}:limited"))
    rows = sorted(segments)
    by_speaker: dict[str, list[tuple[str, float]]] = {}
    gender_of: dict[str, str] = {}
    for seg_id, sp_id, gender, dur in rows:
        if gender not in GENDERS:
            raise ValueError(f"bad gender {gender!r} for speaker {sp_id}")
        by_speaker.setdefault(sp_id, []).append((seg_id, float(dur)))
        gender_of[sp_id] = gender

    report: dict = {"shortfalls": []}
    pool: dict[str, list[str]] = {}
    for g in GENDERS:
        cands = sorted(s for s, gg in gender_of.items() if gg == g)
        if len(cands) < speakers_per_gender:
            report["shortfalls"].append(
                f"only {len(cands)} {g} speakers available (wanted {speakers_per_gender})"
            )
            pool[g] = cands
        else:
            pool[g] = sorted(rng.sample(cands, speakers_per_gender))

    used: set[str] = set()
    duration_of = {seg_id: float(d) for seg_id, _, _, d in rows}

    def draw(speaker_ids, target_s: float, exclude: set[str]) -> list[str]:
        candidates = []
        for sp in sorted(speaker_ids):
            candidates.extend(
                seg for seg, _ in by_speaker.get(sp, []) if seg not in exclude
            )
        rng.shuffle(candidates)
        chosen: list[str] = []
        total = 0.0
        for seg in candidates:
            if total >= target_s:
                break
            chosen.append(seg)
            total += duration_of[seg]
        if total < target_s:
            report["shortfalls"].append(
                f"drew {total:.1f}s of {target_s:.1f}s requested"
            )
        return chosen

    ten_minute: list[frozenset[str]] = []
    for _ in range(TEN_MINUTE_SETS):
        members: set[str] = set()
        for g in GENDERS:
            avail = pool[g]
            take = min(SET_SPEAKERS_PER_GENDER, len(avail))
            chosen_speakers = rng.sample(sorted(avail), take) if avail else []
            members.update(draw(chosen_speakers, SET_MINUTES_PER_GENDER * 60.0, used))
        used |= members
        ten_minute.append(frozenset(members))

    one_hour = frozenset().union(*ten_minute) if ten_minute else frozenset()

    nine_hour: set[str] = set()
    for g in GENDERS:
        nine_hour.update(draw(pool[g], REMAINDER_HOURS_PER_GENDER * 3600.0, used))
    ten_hour = frozenset(one_hour | nine_hour)

    report["pool"] = {g: pool[g] for g in GENDERS}
    return LimitedSets(
        ten_minute=tuple(ten_minute),
        one_hour=one_hour,
        ten_hour=ten_hour,
        report=report,
    )
