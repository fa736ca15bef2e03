import json
import re
import shutil
from pathlib import Path

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.config import ConfigError, PipelineConfig, STAGES
from corpus_forge import retrieval as rt
from corpus_forge.manifest import (
    ManifestRow,
    ProvenanceError,
    read_candidates,
    read_manifest,
    read_tsv,
    write_manifest,
)
from corpus_forge.pipeline import StageError, corpus_stats, run_pipeline, run_stage
from corpus_forge.synth import SynthParams, synth_corpus
from corpus_forge.textnorm import default_orthography, normalize

from oracles import sum_hours

# big enough that dev/test (one speaker per gender each) leaves train and
# the post-decontamination LM corpus non-empty
SMALL = SynthParams(n_books=8, words_per_book=1600, speakers_per_gender=3)


def small_config(root, **overrides):
    kwargs = dict(
        input_dir=str(root / "input"),
        output_dir=str(root / "out"),
        seed=17,
        train_threshold_s=200.0,
        dev_test_cap_s=300.0,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    synth_corpus(root / "input", seed=17, params=SMALL)
    cfg = small_config(root)
    report = run_pipeline(cfg)
    return root, cfg, report


# -- config ---------------------------------------------------------------------


def test_config_file_and_env_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# toy config\n"
        "seed = 23\n"
        "wer_threshold = 0.3\n"
        'language = "en"\n'
        "lm_orders = 3,5\n",
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_file(path, env={})
    assert cfg.seed == 23
    assert cfg.wer_threshold == 0.3
    assert cfg.lm_orders == (3, 5)
    cfg2 = PipelineConfig.from_file(path, env={"CORPUS_FORGE_SEED": "99"})
    assert cfg2.seed == 99


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path, env={})


def test_config_validation_ranges():
    with pytest.raises(ConfigError):
        PipelineConfig(min_segment_ms=20_000, max_segment_ms=10_000).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(shard_stride=2000, shard_size=1250).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(wer_threshold=1.5).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(oov_context="maybe").validate()


def test_config_hash_ignores_locations_only():
    a = PipelineConfig(input_dir="x", output_dir="y")
    b = PipelineConfig(input_dir="p", output_dir="q")
    assert a.config_hash() == b.config_hash()
    c = PipelineConfig(seed=18)
    assert c.config_hash() != a.config_hash()


def test_stage_seeds_differ_per_stage():
    cfg = PipelineConfig(seed=17)
    seeds = {stage: cfg.stage_seed(stage) for stage in STAGES}
    assert len(set(seeds.values())) == len(STAGES)
    assert seeds == {stage: PipelineConfig(seed=17).stage_seed(stage) for stage in STAGES}


# -- manifest I/O -----------------------------------------------------------------


def make_row(i, partition="train"):
    return ManifestRow(
        segment_id=f"s{i:03d}",
        book_id="b0",
        chapter_id="c0",
        speaker_id="sp0",
        gender="M",
        start_ms=i * 1000,
        end_ms=i * 1000 + 500,
        transcript="one two three",
        wer=0.125,
        partition=partition,
    )


def test_manifest_round_trip(tmp_path):
    rows = [make_row(i) for i in range(5)]
    path = tmp_path / "m.tsv"
    write_manifest(path, rows, "deadbeef")
    back = read_manifest(path, expect_hash="deadbeef")
    assert back == rows


def test_manifest_hash_mismatch_refused(tmp_path):
    path = tmp_path / "m.tsv"
    write_manifest(path, [make_row(0)], "aaaa")
    with pytest.raises(ProvenanceError):
        read_manifest(path, expect_hash="bbbb")


def test_manifest_duplicate_ids_refused(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.tsv", [make_row(1), make_row(1)], "x")


def test_manifest_row_validation():
    with pytest.raises(ValueError):
        make_row(0, partition="bogus")
    with pytest.raises(ValueError):
        ManifestRow("s", "b", "c", "sp", "M", 100, 100, "t")
    assert make_row(0, partition="limited:10min-3").partition == "limited:10min-3"


# -- synth fixture ------------------------------------------------------------------


def test_synth_books_normalize_back_to_reading_words(tmp_path):
    summary = synth_corpus(tmp_path, seed=5, params=SMALL)
    orth = default_orthography("en")
    meta = json.loads((tmp_path / "books.json").read_text(encoding="utf-8"))
    by_id = {b["book_id"]: b for b in meta}
    for book_id in summary.book_ids:
        raw = (tmp_path / "books" / f"{book_id}.txt").read_text(encoding="utf-8")
        words = list(normalize(raw, orth).tokens)
        assert len(words) == SMALL.words_per_book
        # truth indices of every chapter point into exactly these words
        for ch in by_id[book_id]["chapters"]:
            truth = json.loads(
                (tmp_path / "truth" / f"{ch['chapter_id']}.json").read_text()
            )
            tokens = [
                json.loads(l)["w"]
                for l in (tmp_path / "tokens" / f"{ch['chapter_id']}.jsonl")
                .read_text()
                .splitlines()
                if l
            ]
            assert len(tokens) == len(truth["source_indices"])
            for tok, idx in zip(tokens, truth["source_indices"]):
                assert words[idx] == tok  # noise 0: spoken word == book word


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_corpus(a, seed=9, params=SMALL)
    synth_corpus(b, seed=9, params=SMALL)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


# -- corpus stats --------------------------------------------------------------------


def test_stats_single_segment():
    row = ManifestRow("s0", "b", "c", "sp", "M", 0, 15_000, "x", 0.0, "train")
    stats = corpus_stats([row])
    assert stats["hours"]["train"] == pytest.approx(15 / 3600)
    assert stats["speaker_counts"]["train"] == {"M": 1}
    assert stats["_histogram_pairs"] == {("train", 15.0): 1}


def test_stats_match_summation_oracle(completed_run):
    root, cfg, _ = completed_run
    rows = []
    for part in ("train", "dev", "test"):
        rows.extend(read_manifest(Path(cfg.output_dir) / "manifests" / f"{part}.tsv"))
    stats = corpus_stats(rows)
    for part in ("train", "dev", "test"):
        expected = sum_hours(
            (r.start_ms, r.end_ms) for r in rows if r.partition == part
        )
        assert stats["hours"][part] == pytest.approx(expected, abs=1e-12)
    assert sum(stats["_histogram_pairs"].values()) == len(rows)


# -- pipeline ------------------------------------------------------------------------


def test_empty_input_fails_at_stage_one_naming_directory(tmp_path):
    cfg = small_config(tmp_path)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "normalize"
    assert str(tmp_path / "input" / "books") in str(err.value)


def test_completed_run_invariants(completed_run):
    root, cfg, report = completed_run
    out = Path(cfg.output_dir)
    assert report["config_hash"] == cfg.config_hash()
    assert set(report["stages"]) == set(STAGES)
    manifests = {
        part: read_manifest(out / "manifests" / f"{part}.tsv", cfg.config_hash())
        for part in ("train", "dev", "test")
    }
    # no speaker overlap across partitions
    speakers = {p: {r.speaker_id for r in rows} for p, rows in manifests.items()}
    assert not (speakers["train"] & speakers["dev"])
    assert not (speakers["train"] & speakers["test"])
    assert not (speakers["dev"] & speakers["test"])
    # per-gender dev/test speaker counts match
    for g in ("M", "F"):
        dev_g = {r.speaker_id for r in manifests["dev"] if r.gender == g}
        test_g = {r.speaker_id for r in manifests["test"] if r.gender == g}
        assert len(dev_g) == len(test_g) == 1
    # chapters are partition-exclusive
    chapter_part = {}
    for part, rows in manifests.items():
        for r in rows:
            assert chapter_part.setdefault(r.chapter_id, part) == part
    # limited supervision nesting
    ten_min = [
        {r.segment_id for r in read_manifest(out / "manifests" / f"limited_10min_{i}.tsv")}
        for i in range(1, 7)
    ]
    one_hour = {r.segment_id for r in read_manifest(out / "manifests" / "limited_1h.tsv")}
    ten_hour = {r.segment_id for r in read_manifest(out / "manifests" / "limited_10h.tsv")}
    assert set().union(*ten_min) == one_hour
    assert one_hour <= ten_hour
    train_ids = {r.segment_id for r in manifests["train"]}
    assert ten_hour <= train_ids
    # structured outputs carry the config hash
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["config_hash"] == cfg.config_hash()
    for report_path in (
        out / "work" / "split" / "split_report.json",
        out / "work" / "limited" / "limited_report.json",
    ):
        assert json.loads(report_path.read_text())["config_hash"] == cfg.config_hash()
    assert (out / "lm" / "corpus_books.txt").read_text().startswith(
        f"# config_hash={cfg.config_hash()}\n"
    )
    # language models exist alongside their ARPA exports and eval report
    for order in cfg.lm_orders:
        assert (out / "lm" / f"lm_{order}.cflm").exists()
        arpa_head = (out / "lm" / f"lm_{order}.arpa").read_text().splitlines()[0]
        assert f"config_hash={cfg.config_hash()}" in arpa_head
    lm_eval = json.loads((out / "lm" / "lm_eval.json").read_text(encoding="utf-8"))
    assert set(lm_eval["models"]) == {"3", "5"}


def test_rerun_single_stage_is_byte_identical(completed_run):
    root, cfg, _ = completed_run
    out = Path(cfg.output_dir)
    target = out / "manifests" / "train.tsv"
    before = target.read_bytes()
    run_pipeline(cfg, from_stage="split", until_stage="split")
    assert target.read_bytes() == before


def test_resume_refuses_mismatched_hash(completed_run, tmp_path):
    root, cfg, _ = completed_run
    tampered = small_config(root, seed=18)  # different semantics, same tree
    with pytest.raises((StageError, ProvenanceError)):
        run_pipeline(tampered, from_stage="retrieve", until_stage="retrieve")


def test_resume_requires_prerequisite_stage(tmp_path):
    synth_corpus(tmp_path / "input", seed=4, params=SMALL)
    cfg = small_config(tmp_path)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, from_stage="retrieve")
    assert "prerequisite" in str(err.value)


def test_unknown_stage_rejected(completed_run):
    _, cfg, _ = completed_run
    with pytest.raises(ValueError):
        run_pipeline(cfg, from_stage="nonsense")


# -- postprocess -----------------------------------------------------------------------

# rare hyphenated words, each put into book000 and into its reading at a token
# line of chapter 0; the last one splits into so many words that its
# candidate's WER goes over the threshold
HYPHENATED = {40: "zorkblat-quim", 160: "fen\u2010dral", 280: "-".join(["ka"] * 30)}


def test_postprocess_rescores_only_the_candidates_it_changes(tmp_path):
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    book = tmp_path / "input" / "books" / "book000.txt"
    stream = tmp_path / "input" / "tokens" / "book000_ch00.jsonl"
    truth = json.loads(
        (tmp_path / "input" / "truth" / "book000_ch00.json").read_text(encoding="utf-8")
    )
    pieces = re.split(r"(\s+)", book.read_text(encoding="utf-8"))  # words at even places
    lines = stream.read_text(encoding="utf-8").splitlines()
    for line_no, word in HYPHENATED.items():
        pieces[2 * truth["source_indices"][line_no]] = word
        lines[line_no] = json.dumps({**json.loads(lines[line_no]), "w": word})
    book.write_text("".join(pieces), encoding="utf-8")
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = small_config(tmp_path)
    report = run_pipeline(cfg, until_stage="postprocess")
    assert report["stages"]["postprocess"]["wordform_changed"] == len(HYPHENATED)
    work = Path(cfg.output_dir) / "work"
    pseudo_of = {r.segment_id: r.transcript.split()
                 for r in read_manifest(work / "segment" / "segments.tsv")}
    retrieved = {c.segment_id: c for c in read_candidates(work / "retrieve" / "candidates.tsv")}
    fixed = read_candidates(work / "postprocess" / "candidates.tsv")
    assert [c.segment_id for c in fixed] == list(retrieved)

    changed = [c for c in fixed if c.words != retrieved[c.segment_id].words]
    assert len(changed) == len(HYPHENATED)
    for cand in changed:
        before = retrieved[cand.segment_id]
        assert before.pseudo_wer == 0.0 and before.accepted
        assert (cand.segment_id, cand.source) == (before.segment_id, before.source)
        rate = rt.wer(cand.words, pseudo_of[cand.segment_id])
        assert rate > 0.0 and cand.pseudo_wer == pytest.approx(rate, abs=1e-6)
        assert cand.accepted == (rate <= cfg.wer_threshold)
    assert [c.accepted for c in changed] == [True, True, False]

    # every candidate left unchanged is written back byte for byte
    def rows(stage):
        lines = (work / stage / "candidates.tsv").read_text(encoding="utf-8").splitlines()
        return {line.split("\t", 1)[0]: line for line in lines[2:]}

    before_rows, after_rows = rows("retrieve"), rows("postprocess")
    changed_ids = {c.segment_id for c in changed}
    assert all(after_rows[s] != before_rows[s] for s in changed_ids)
    assert all(after_rows[s] == before_rows[s] for s in after_rows if s not in changed_ids)


# -- split inputs ----------------------------------------------------------------------


def _drop(key):
    return lambda record: record.pop(key)


def _set(key, value):
    return lambda record: record.update({key: value})


@pytest.mark.parametrize("index, edit, named", [
    (3, _drop("chapters"), "book 3 ('book003')"),
    (5, _set("version", "two"), "book 5 ('book005')"),
    (2, _drop("book_id"), "book 2"),
    (1, lambda record: record["chapters"][0].pop("speaker_id"), "book 1 ('book001')"),
    (4, _set("chapters", None), "book 4 ('book004')"),
], ids=["no-chapters", "version-two", "no-book-id", "chapter-without-speaker", "null-chapters"])
def test_malformed_book_record_fails_in_segment_naming_books_json_and_book(
    tmp_path, capsys, index, edit, named
):
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    books_path = tmp_path / "input" / "books.json"
    books = json.loads(books_path.read_text(encoding="utf-8"))
    edit(books[index])
    books_path.write_text(json.dumps(books), encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    assert cli_main(["run", "--config", str(cfg_path)]) == 3
    message = capsys.readouterr().err
    assert message.startswith(f"error: stage segment: {books_path}: {named} is malformed"), message


@pytest.mark.parametrize("record", [None, {}, {"gender": ""}])
def test_missing_speaker_record_names_speakers_json_and_speaker(tmp_path, record):
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    speakers_path = tmp_path / "input" / "speakers.json"
    speakers = json.loads(speakers_path.read_text(encoding="utf-8"))
    if record is None:
        del speakers["spk_f00"]
    else:
        speakers["spk_f00"] = record
    speakers_path.write_text(json.dumps(speakers), encoding="utf-8")
    with pytest.raises(StageError) as err:
        run_pipeline(small_config(tmp_path), until_stage="split")
    assert err.value.stage == "split"
    assert str(speakers_path) in str(err.value)
    assert "'spk_f00'" in str(err.value)


def tiny_input(root, token_lines):
    """An input tree of one one-word book whose one chapter, ``book000_ch00``,
    holds ``token_lines`` as its token file."""
    (root / "books").mkdir(parents=True)
    (root / "tokens").mkdir()
    (root / "books" / "book000.txt").write_text("alpha\n", encoding="utf-8")
    (root / "books.json").write_text(json.dumps([{
        "book_id": "book000", "title": "t", "author": "a", "version": 1,
        "multi_speaker": False,
        "chapters": [{"chapter_id": "book000_ch00", "speaker_id": "spk_m00"}],
    }]), encoding="utf-8")
    (root / "speakers.json").write_text(json.dumps({"spk_m00": {"gender": "M"}}),
                                        encoding="utf-8")
    path = root / "tokens" / "book000_ch00.jsonl"
    path.write_text("".join(line + "\n" for line in token_lines), encoding="utf-8")
    return path


def test_segment_stage_writes_dropped_and_residual_rows(tmp_path):
    """beta straddles the forced 20 s cut by more than the slack and is
    dropped; delta is left as a tail shorter than the minimum."""
    tiny_input(tmp_path / "input", [
        json.dumps({"w": w, "s": s, "e": e}) for w, s, e in [
            ("alpha", 0, 19_900), ("beta", 19_900, 21_000),
            ("gamma", 21_200, 35_000), ("delta", 36_000, 44_000),
        ]
    ])
    cfg = small_config(tmp_path)
    assert run_stage(cfg, "segment") == {"segments": 2, "residuals": 1, "dropped": 1}
    work = Path(cfg.output_dir) / "work" / "segment"
    header = f"# config_hash={cfg.config_hash()}\n"
    assert (work / "dropped.tsv").read_text(encoding="utf-8") == (
        header + "chapter_id\tword\tstart_ms\tend_ms\nbook000_ch00\tbeta\t19900\t21000\n"
    )
    assert (work / "residuals.tsv").read_text(encoding="utf-8") == (
        header + "chapter_id\tstart_ms\tend_ms\ttokens\nbook000_ch00\t35500\t44000\t1\n"
    )
    rows = read_manifest(work / "segments.tsv")
    assert [(r.start_ms, r.end_ms, r.transcript) for r in rows] == [
        (0, 19_900, "alpha"), (21_000, 35_500, "gamma"),
    ]

def _mean_wers(cfg):
    """speaker_id -> mean WER and total seconds of its accepted segments."""
    out = Path(cfg.output_dir) / "work"
    seg_of = {r.segment_id: r for r in read_manifest(out / "segment" / "segments.tsv")}
    _, accepted = read_tsv(out / "filter" / "accepted.tsv")
    wers, ms = {}, {}
    for row in sorted(accepted):
        seg = seg_of[row[0]]
        wers.setdefault(seg.speaker_id, []).append(float(row[4]))
        ms[seg.speaker_id] = ms.get(seg.speaker_id, 0) + seg.duration_ms
    return {s: (sum(w) / len(w), ms[s] / 1000.0) for s, w in wers.items()}


def test_hardness_prefilter_both_branches(tmp_path):
    # at seed 8 a forced-train reader is one of the two shortest of its
    # gender, so the filter changes who is held out
    synth_corpus(tmp_path / "input", seed=8, params=SynthParams(
        n_books=SMALL.n_books, words_per_book=SMALL.words_per_book,
        speakers_per_gender=SMALL.speakers_per_gender, noise=0.15,
    ))
    reference = tmp_path / "reference_wers.txt"
    cfg = small_config(tmp_path, seed=8, hardness_percentile=0.8,
                       hardness_reference=str(reference))
    run_pipeline(cfg, until_stage="filter")
    stats = _mean_wers(cfg)
    above = {s: w for s, (w, secs) in stats.items() if secs >= cfg.train_threshold_s}
    speakers = json.loads((tmp_path / "input" / "speakers.json").read_text(encoding="utf-8"))
    gender_of = {s: rec["gender"] for s, rec in speakers.items()}

    def held_out(pool):
        """dev and test: the two shortest speakers of each gender, alternating."""
        ranked = {g: sorted((stats[s][1], s) for s in pool if gender_of[s] == g) for g in "FM"}
        return {part: sorted(ranked[g][i][1] for g in "FM") for i, part in enumerate(("dev", "test"))}

    def split_report():
        run_pipeline(cfg, from_stage="split", until_stage="split")
        path = Path(cfg.output_dir) / "work" / "split" / "split_report.json"
        return json.loads(path.read_text(encoding="utf-8"))

    # the cutoff sits between the two lowest-WER speakers of one gender, so
    # every gender keeps two hard speakers and at least one speaker is forced
    # into train
    by_gender = {g: sorted(w for s, w in above.items() if gender_of[s] == g) for g in "FM"}
    g = min("FM", key=lambda g: by_gender[g][1])
    assert len(by_gender[g]) == 3 and by_gender[g][0] < by_gender[g][1]
    cutoff = (by_gender[g][0] + by_gender[g][1]) / 2
    reference.write_text(f"{cutoff!r}\n" * 5, encoding="utf-8")
    report = split_report()
    hard = {s for s, w in above.items() if w > cutoff}
    forced = set(above) - hard
    assert report["hardness"] == f"hardness filter kept {len(hard)} of {len(above)} speakers"
    assert forced and forced <= set(report["speakers"]["train"])
    assert held_out(hard) != held_out(above)
    assert {p: report["speakers"][p] for p in ("dev", "test")} == held_out(hard)

    # a cutoff no speaker exceeds leaves the partition to the duration rule
    reference.write_text("1.0\n", encoding="utf-8")
    report = split_report()
    assert report["hardness"] == "hardness filter skipped: insufficient hard speakers"
    assert {p: report["speakers"][p] for p in ("dev", "test")} == held_out(above)


# -- command line ----------------------------------------------------------------------


def test_cli_normalize_single_file(tmp_path):
    src = tmp_path / "page.txt"
    src.write_text("One two-\nthree; FOUR!\n", encoding="utf-8")
    assert cli_main(["normalize", "--in", str(src), "--out", str(tmp_path / "o.txt")]) == 0
    assert (tmp_path / "o.txt").read_text(encoding="utf-8") == "one twothree four\n"


def test_cli_normalize_segment_retrieve_round_trip(tmp_path, capsys):
    synth_corpus(tmp_path / "input", seed=6, params=SMALL)
    assert cli_main([
        "normalize",
        "--in", str(tmp_path / "input" / "books"),
        "--out", str(tmp_path / "norm"),
    ]) == 0
    assert cli_main([
        "segment",
        "--min-sec", "10", "--max-sec", "20",
        "--in", str(tmp_path / "input" / "tokens"),
        "--out", str(tmp_path / "segments.tsv"),
    ]) == 0
    rows = read_manifest(tmp_path / "segments.tsv")
    assert rows and all(10_000 <= r.duration_ms <= 20_000 for r in rows)
    # standalone manifest has no book ids; patch them in from chapter names
    patched = [
        ManifestRow(
            segment_id=r.segment_id,
            book_id=r.chapter_id.rsplit("_", 1)[0],
            chapter_id=r.chapter_id,
            speaker_id=r.speaker_id,
            gender=r.gender,
            start_ms=r.start_ms,
            end_ms=r.end_ms,
            transcript=r.transcript,
            wer=r.wer,
            partition=r.partition,
        )
        for r in rows
    ]
    write_manifest(tmp_path / "segments.tsv", patched, "adhoc")
    assert cli_main([
        "retrieve",
        "--books", str(tmp_path / "norm"),
        "--pseudo", str(tmp_path / "segments.tsv"),
        "--wer-threshold", "0.4",
        "--out", str(tmp_path / "candidates.tsv"),
    ]) == 0
    header, cands = read_tsv(tmp_path / "candidates.tsv")
    assert header == list(
        ("segment_id", "book_id", "offset_start", "offset_end", "wer", "accepted", "transcript")
    )
    assert len(cands) == len(rows)
    assert all(row[5] == "true" for row in cands)


def test_cli_lm_commands(tmp_path, completed_run, capsys):
    root, cfg, _ = completed_run
    out = Path(cfg.output_dir)
    model_path = tmp_path / "model.cflm"
    assert cli_main([
        "lm-train",
        "--order", "3",
        "--in", str(out / "work" / "normalize"),
        "--out", str(model_path),
        "--arpa", str(tmp_path / "model.arpa"),
    ]) == 0
    assert model_path.exists() and (tmp_path / "model.arpa").exists()
    assert cli_main([
        "lm-eval",
        "--model", str(model_path),
        "--dev", str(out / "manifests" / "dev.tsv"),
        "--report", str(tmp_path / "eval.json"),
    ]) == 0
    payload = json.loads((tmp_path / "eval.json").read_text(encoding="utf-8"))
    assert payload["order"] == 3
    assert payload["perplexity"] > 1.0


def test_cli_decontam(tmp_path, completed_run):
    root, cfg, _ = completed_run
    out = Path(cfg.output_dir)
    assert cli_main([
        "decontam",
        "--heldout", str(out / "manifests" / "dev.tsv"), str(out / "manifests" / "test.tsv"),
        "--books", str(out / "work" / "normalize"),
        "--threshold", "0.01",
        "--report", str(tmp_path / "report.tsv"),
    ]) == 0
    header, rows = read_tsv(tmp_path / "report.tsv")
    assert {r[1] for r in rows} == {"kept", "removed"}


def test_cli_run_and_exit_codes(tmp_path, capsys):
    synth_corpus(tmp_path / "input", seed=7, params=SMALL)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "seed = 17\n"
        "train_threshold_s = 200\n"
        "dev_test_cap_s = 300\n",
        encoding="utf-8",
    )
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("wer_threshold = 2.0\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(bad_cfg)]) == 2

    empty_cfg = tmp_path / "empty.cfg"
    empty_cfg.write_text(
        f"input_dir = {tmp_path / 'missing'}\noutput_dir = {tmp_path / 'out2'}\n",
        encoding="utf-8",
    )
    assert cli_main(["run", "--config", str(empty_cfg)]) == 3


def test_cli_split_subcommand_overrides(tmp_path, capsys):
    synth_corpus(tmp_path / "input", seed=8, params=SMALL)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "train_threshold_s = 200\n"
        "dev_test_cap_s = 300\n",
        encoding="utf-8",
    )
    assert cli_main(["run", "--config", str(cfg_path), "--until-stage", "filter"]) == 0
    assert cli_main(["split", "--config", str(cfg_path), "--seed", "99"]) == 2  # hash mismatch
    assert cli_main(["split", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "manifests" / "dev.tsv").exists()
    assert cli_main(["limited", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "manifests" / "limited_10h.tsv").exists()


def test_stage_failure_exits_3_from_every_entry_point(tmp_path, capsys):
    """A fault inside a stage is a stage failure (exit 3, ``stage <name>:``)
    whether the stage runs alone or as part of ``run``."""
    synth_corpus(tmp_path / "input", seed=8, params=SMALL)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "train_threshold_s = 200\n"
        "dev_test_cap_s = 300\n",
        encoding="utf-8",
    )
    assert cli_main(["run", "--config", str(cfg_path), "--until-stage", "filter"]) == 0
    books_path = tmp_path / "input" / "books.json"
    books = json.loads(books_path.read_text(encoding="utf-8"))
    books[0]["version"] = "two"
    books_path.write_text(json.dumps(books), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["split", "--config", str(cfg_path)]) == 3
    alone = capsys.readouterr().err
    assert cli_main(["run", "--config", str(cfg_path), "--from-stage", "split"]) == 3
    assert capsys.readouterr().err == alone
    assert alone.startswith("error: stage split: ") and "books.json" in alone


def test_cli_synth(tmp_path, capsys):
    assert cli_main([
        "synth", "--out", str(tmp_path / "x"), "--seed", "3",
        "--books", "2", "--words-per-book", "500",
        "--speakers-per-gender", "1", "--noise", "0.1",
    ]) == 0
    assert (tmp_path / "x" / "books.json").exists()
