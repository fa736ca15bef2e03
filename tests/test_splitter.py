import json
import random
from pathlib import Path

import pytest

from corpus_forge.manifest import read_manifest
from corpus_forge.splitter import (
    BookRecord,
    ChapterRef,
    LimitedSets,
    SpeakerRecord,
    SplitError,
    make_limited_supervision,
    partition_speakers,
    quantile,
    select_hard_speakers,
    validate_books,
)

from oracles import (
    interpolated_quantile,
    replay_book_validation,
    simulate_partition,
    tally_durations,
)
from rules_tree import SILENT_READER


def make_book(book_id, title="a tale", author="auth", version=1, multi=False, speakers=("s1",)):
    chapters = tuple(
        ChapterRef(chapter_id=f"{book_id}_c{i}", speaker_id=s)
        for i, s in enumerate(speakers)
    )
    return BookRecord(
        book_id=book_id,
        title=tuple(title.split()),
        author=author,
        version=version,
        chapters=chapters,
        multi_speaker=multi,
    )


# -- validate_books -----------------------------------------------------------


def test_latest_version_survives():
    books = [make_book("b1", version=1), make_book("b2", version=3)]
    valid, report = validate_books(books)
    assert [b.book_id for b in valid] == ["b2"]
    assert any(r["book_id"] == "b1" and r["reason"] == "superseded version" for r in report)


def test_empty_title_is_corrupted_metadata():
    valid, report = validate_books([make_book("b1", title="")])
    assert valid == []
    assert report == [{"book_id": "b1", "reason": "corrupted metadata"}]


def test_multi_speaker_book_rejected():
    valid, report = validate_books([make_book("b1", multi=True)])
    assert valid == []
    assert report[0]["reason"] == "multiple speakers"


def test_missing_chapter_speaker_rejected():
    valid, report = validate_books([make_book("b1", speakers=("s1", ""))])
    assert valid == []
    assert report[0]["reason"] == "corrupted metadata"


def test_validation_matches_rule_replay_oracle():
    rng = random.Random(12)
    books = []
    dicts = []
    for i in range(100):
        title = rng.choice(["", "a tale", "the voyage", "night work"])
        author = rng.choice(["", "smith", "jones"])
        version = rng.randint(1, 4)
        multi = rng.random() < 0.2
        speakers = tuple(
            rng.choice(["s1", "s2", ""]) for _ in range(rng.randint(1, 3))
        )
        book_id = f"b{i:03d}"
        books.append(
            make_book(book_id, title=title, author=author, version=version,
                      multi=multi, speakers=speakers)
        )
        dicts.append(
            {
                "book_id": book_id,
                "title": title,
                "author": author,
                "version": version,
                "multi_speaker": multi,
                "chapter_speakers": list(speakers),
            }
        )
    valid, _ = validate_books(books)
    assert [b.book_id for b in valid] == replay_book_validation(dicts)


# -- partition_speakers ---------------------------------------------------------


def make_speakers(roster):
    """roster: list of (id, gender, duration[, wer])"""
    out = []
    for row in roster:
        sid, g, dur = row[:3]
        wer = row[3] if len(row) > 3 else 0.0
        out.append(SpeakerRecord(sid, g, dur, wer))
    return out


def test_all_below_threshold_is_an_error():
    speakers = make_speakers(
        [(f"s{i}", "M" if i % 2 else "F", 100.0) for i in range(10)]
    )
    with pytest.raises(SplitError) as err:
        partition_speakers(speakers, 1, train_threshold=1200.0, dev_test_cap=2700.0,
                           recordings={})
    assert "deficit" in str(err.value)


def test_ten_speakers_match_simulation_oracle():
    roster = [
        ("m1", "M", 1300.0), ("m2", "M", 1500.0), ("m3", "M", 1700.0),
        ("m4", "M", 2000.0), ("m5", "M", 2500.0),
        ("f1", "F", 1250.0), ("f2", "F", 1400.0), ("f3", "F", 1600.0),
        ("f4", "F", 1900.0), ("f5", "F", 2600.0),
    ]
    speakers = make_speakers(roster)
    assignment = partition_speakers(speakers, 1, 1200.0, 2700.0, {})
    expected = simulate_partition(roster, 1, 1200.0)
    assert assignment.speaker_partition == expected
    members = {p: sorted(s for s, q in assignment.speaker_partition.items() if q == p)
               for p in ("train", "dev", "test")}
    assert members["dev"] == ["f1", "m1"]
    assert members["test"] == ["f2", "m2"]
    assert len(members["train"]) == 6


@pytest.mark.parametrize("repeats", [[("m1", "M", 1300.0)],
                                     [("x", "M", 2000.0), ("x", "F", 2000.0)]],
                         ids=["same-gender", "one-per-gender"])
def test_speaker_given_twice_is_refused_naming_it(repeats):
    """A repeated id either unbalances dev and test (``m1`` would be both)
    or lands once per gender; both are refused before any partition."""
    roster = [("m1", "M", 1300.0), ("m2", "M", 1500.0), ("f1", "F", 1250.0), ("f2", "F", 1400.0)]
    with pytest.raises(SplitError, match=f"speaker '{repeats[0][0]}' is given twice"):
        partition_speakers(make_speakers(roster + repeats), 1, 1200.0, 2700.0, {})


def test_partition_matches_oracle_over_seeds():
    for seed in range(20):
        rng = random.Random(seed)
        roster = []
        for i in range(rng.randint(8, 40)):
            roster.append(
                (f"s{i:03d}", rng.choice("MF"), rng.uniform(50, 5000))
            )
        k = rng.randint(1, 2)
        speakers = make_speakers(roster)
        try:
            assignment = partition_speakers(speakers, k, 1200.0, 1e9, {})
        except SplitError:
            eligible = {
                g: sum(1 for _, gg, d in roster if gg == g and d >= 1200.0)
                for g in "MF"
            }
            assert min(eligible.values()) < 2 * k
            continue
        assert assignment.speaker_partition == simulate_partition(roster, k, 1200.0)


def test_cap_truncation_samples_whole_segments():
    speakers = make_speakers(
        [("m1", "M", 4000.0), ("m2", "M", 1300.0),
         ("f1", "F", 3900.0), ("f2", "F", 1350.0)]
    )
    recordings = {
        "m1": [(f"m1_seg{i}", 100.0) for i in range(40)],
        "m2": [(f"m2_seg{i}", 100.0) for i in range(13)],
        "f1": [(f"f1_seg{i}", 100.0) for i in range(39)],
        "f2": [(f"f2_seg{i}", 100.0) for i in range(13)],
    }
    assignment = partition_speakers(
        speakers, 1, 1200.0, dev_test_cap=2000.0, recordings=recordings, seed=9
    )
    # every dev/test speaker over the cap was sampled down to it
    truncated = {r["speaker_id"]: r for r in assignment.truncation_report}
    assert set(truncated) == {"m1", "f1"}
    for sid in ("m1", "f1"):
        kept = assignment.kept_segments[sid]
        assert len(kept) == 20  # 2000 s cap / 100 s segments
        assert set(kept) <= {s for s, _ in recordings[sid]}
        assert truncated[sid]["after_s"] <= 2000.0
    # determinism under the same seed
    again = partition_speakers(
        speakers, 1, 1200.0, dev_test_cap=2000.0, recordings=recordings, seed=9
    )
    assert again.kept_segments == assignment.kept_segments
    different = partition_speakers(
        speakers, 1, 1200.0, dev_test_cap=2000.0, recordings=recordings, seed=10
    )
    assert different.kept_segments != assignment.kept_segments


# -- chapters take their reader's partition (the rules tree's release) ----------


def rules_release(cfg):
    """The rules tree's split report, its manifests by partition, the
    catalog reader of each chapter and the valid books' chapters in order."""
    out = Path(cfg.output_dir)
    report = json.loads((out / "work" / "split" / "split_report.json").read_text(encoding="utf-8"))
    manifests = {p: read_manifest(out / "manifests" / f"{p}.tsv", cfg.config_hash())
                 for p in ("train", "dev", "test")}
    books = json.loads((Path(cfg.input_dir) / "books.json").read_text(encoding="utf-8"))
    reader = {ch["chapter_id"]: ch["speaker_id"] for b in books for ch in b["chapters"]}
    rejected = {r["book_id"] for r in report["book_rejections"]}
    valid = sorted(ch["chapter_id"] for b in books if b["book_id"] not in rejected
                   for ch in b["chapters"])
    return report, manifests, reader, valid


def test_single_speaker_chapter_keeps_partition(rules_run):
    """Every released row of a chapter is its catalog reader's and carries
    that reader's partition from the split report."""
    report, manifests, reader, _ = rules_release(rules_run)
    partition_of = {s: p for p, speakers in report["speakers"].items() for s in speakers}
    assert len(partition_of) == sum(map(len, report["speakers"].values()))  # disjoint
    for part, rows in manifests.items():
        assert rows
        for r in rows:
            assert r.speaker_id == reader[r.chapter_id]
            assert r.partition == part == partition_of[r.speaker_id]


def test_no_cross_partition_chapters_in_the_release(rules_run):
    """Exhaustive over the valid chapters: each one whose reader has a
    partition lands in that partition alone, and every other is dropped."""
    report, manifests, reader, valid = rules_release(rules_run)
    partition_of = {s: p for p, speakers in report["speakers"].items() for s in speakers}
    placed: dict[str, set[str]] = {}
    for part, rows in manifests.items():
        for r in rows:
            placed.setdefault(r.chapter_id, set()).add(part)
    dropped = {d["chapter_id"] for d in report["chapter_drops"]}
    truncated = {t["speaker_id"] for t in report["truncations"]}
    for chapter_id in valid:
        part = partition_of.get(reader[chapter_id])
        if part is None:
            assert chapter_id in dropped and chapter_id not in placed
        elif chapter_id in placed:
            assert placed[chapter_id] == {part}
        else:  # the cap sampled a held-out reader's chapter away whole
            assert reader[chapter_id] in truncated and chapter_id not in dropped
    assert set(placed) <= set(valid)


def test_unknown_speaker_chapters_dropped_and_reported(rules_run):
    """``chapter_drops`` lists exactly the valid chapters of the reader with
    no accepted segment, in chapter-id order, each as ``unknown speaker``;
    a chapter cannot span partitions, as the catalog lists it once with one
    reader."""
    report, manifests, reader, valid = rules_release(rules_run)
    silent = [c for c in valid if reader[c] == SILENT_READER]
    assert len(silent) == 4
    assert report["chapter_drops"] == [{"chapter_id": c, "reason": "unknown speaker"}
                                       for c in silent]
    assert not {r.chapter_id for rows in manifests.values() for r in rows} & set(silent)


# -- hardness rule ---------------------------------------------------------------


def test_quantile_cutoff_worked_example():
    reference = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert quantile(reference, 0.8) == pytest.approx(0.42)
    speakers = make_speakers(
        [("a", "M", 2000.0, 0.45), ("b", "M", 2000.0, 0.30)]
    )
    kept = select_hard_speakers(speakers, reference, 0.8)
    assert [s.speaker_id for s in kept] == ["a"]


def test_hardness_all_below_cutoff_empty():
    speakers = make_speakers([("a", "M", 2000.0, 0.05)])
    assert select_hard_speakers(speakers, [0.1, 0.2, 0.9], 0.8) == []


def test_hardness_single_reference_strict_greater():
    speakers = make_speakers(
        [("eq", "M", 2000.0, 0.30), ("above", "M", 2000.0, 0.31)]
    )
    kept = select_hard_speakers(speakers, [0.30], 0.8)
    assert [s.speaker_id for s in kept] == ["above"]


def test_quantile_matches_oracle():
    rng = random.Random(6)
    for _ in range(100):
        values = [rng.random() for _ in range(rng.randint(1, 30))]
        q = rng.random()
        assert quantile(values, q) == pytest.approx(
            interpolated_quantile(values, q), abs=1e-12
        )


# -- limited supervision -----------------------------------------------------------


def make_train_segments(rng, n_speakers_per_gender=20, segs_per_speaker=120, seg_s=15.0):
    segments = []
    for g in ("M", "F"):
        for i in range(n_speakers_per_gender):
            sid = f"{g.lower()}{i:02d}"
            for j in range(segs_per_speaker):
                segments.append((f"{sid}_seg{j:03d}", sid, g, seg_s))
    rng.shuffle(segments)
    return segments


def test_limited_supervision_nesting_and_disjointness():
    rng = random.Random(60)
    segments = make_train_segments(rng)
    sets = make_limited_supervision(segments, seed=17)
    union = frozenset().union(*sets.ten_minute)
    assert union == sets.one_hour
    assert sets.one_hour <= sets.ten_hour
    for i in range(6):
        for j in range(i + 1, 6):
            assert not (sets.ten_minute[i] & sets.ten_minute[j])


def test_limited_supervision_durations_within_one_segment():
    rng = random.Random(61)
    seg_s = 15.0
    segments = make_train_segments(rng, seg_s=seg_s)
    durations = {s[0]: s[3] for s in segments}
    gender_of = {s[0]: s[2] for s in segments}
    sets = make_limited_supervision(segments, seed=23)
    for members in sets.ten_minute:
        for g in ("M", "F"):
            ids = [m for m in members if gender_of[m] == g]
            total = tally_durations(durations, ids)
            assert 300.0 <= total < 300.0 + seg_s
    for g in ("M", "F"):
        ids = [m for m in sets.ten_hour - sets.one_hour if gender_of[m] == g]
        total = tally_durations(durations, ids)
        assert 4.5 * 3600 <= total < 4.5 * 3600 + seg_s
    assert sets.report["shortfalls"] == []


def test_limited_supervision_pool_capped_at_quota():
    rng = random.Random(62)
    segments = make_train_segments(rng, n_speakers_per_gender=20)
    sets = make_limited_supervision(segments, seed=5, speakers_per_gender=15)
    for g in ("M", "F"):
        assert len(sets.report["pool"][g]) == 15
    speaker_of = {s[0]: s[1] for s in segments}
    pool = set(sets.report["pool"]["M"]) | set(sets.report["pool"]["F"])
    for seg in sets.ten_hour:
        assert speaker_of[seg] in pool


def test_limited_supervision_shortfall_reported():
    rng = random.Random(63)
    segments = make_train_segments(rng, n_speakers_per_gender=2, segs_per_speaker=10)
    sets = make_limited_supervision(segments, seed=3)
    assert sets.report["shortfalls"]  # 2 speakers/gender < 15, audio short
    union = frozenset().union(*sets.ten_minute)
    assert union == sets.one_hour
    assert sets.one_hour <= sets.ten_hour


def test_limited_supervision_deterministic_under_seed():
    rng = random.Random(64)
    segments = make_train_segments(rng)
    a = make_limited_supervision(segments, seed=11)
    b = make_limited_supervision(list(reversed(segments)), seed=11)
    assert a.ten_minute == b.ten_minute
    assert a.ten_hour == b.ten_hour
    c = make_limited_supervision(segments, seed=12)
    assert c.ten_minute != a.ten_minute


# -- combined invariants (seeded populations) ---------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_partition_invariants_over_seeded_populations(seed):
    rng = random.Random(seed)
    roster = []
    n = rng.randint(12, 60)
    for i in range(n):
        roster.append((f"s{i:03d}", rng.choice("MF"), rng.uniform(100, 6000)))
    k = rng.randint(1, 3)
    speakers = make_speakers(roster)
    try:
        assignment = partition_speakers(speakers, k, 1200.0, 2700.0, {})
    except SplitError:
        return
    parts = assignment.speaker_partition
    assert set(parts.values()) <= {"train", "dev", "test"}
    # every speaker in exactly one partition; gender balance in dev/test
    assert len(parts) == n
    for g in "MF":
        dev = sum(1 for s, g2, _ in roster if parts[s] == "dev" and g2 == g)
        test = sum(1 for s, g2, _ in roster if parts[s] == "test" and g2 == g)
        assert dev == test == k
