import json
import re
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.config import ConfigError, PipelineConfig
from corpus_forge import manifest, ngramlm, textnorm
from corpus_forge import retrieval as rt
from corpus_forge import splitter as sp
from corpus_forge.manifest import (
    InputError,
    ManifestRow,
    ProvenanceError,
    read_candidates,
    read_lines,
    read_manifest,
    write_manifest,
)
from corpus_forge.pipeline import (
    STAGE_TABLE,
    StageError,
    _reference_wers,
    corpus_stats,
    duration_histogram,
    read_catalog,
    run_pipeline,
    run_stage,
)
from corpus_forge.segmenter import read_token_stream
from corpus_forge.synth import SynthParams, synth_corpus
from corpus_forge.textnorm import load_orthography, normalize_lines

from oracles import sum_hours
from rules_tree import (ECHO, ECHOED, FORCED_CUT_CHAPTER, REFERENCE, SILENT_READER, mean_wers,
                        reject_three_books)

# big enough that dev/test (one speaker per gender each) leaves train and
# the post-decontamination LM corpus non-empty
SMALL = SynthParams(n_books=8, words_per_book=1600, speakers_per_gender=3)


def read_tsv(path, expect_hash=None):
    """(header, rows) of any hashed TSV, its fields as written."""
    header, *rows = manifest._tsv_rows(path, expect_hash)
    return header, rows


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


def config_file(path, cfg):
    """``cfg`` written to ``path`` as a config file of its non-default keys,
    for the command line; returns the path as a string."""
    default = PipelineConfig()
    path.write_text("".join(f"{key} = {value}\n" for key, value in vars(cfg).items()
                            if value != getattr(default, key)), encoding="utf-8")
    return str(path)


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
    for key in ("train_threshold_s", "dev_test_cap_s"):
        with pytest.raises(ConfigError):
            PipelineConfig(**{key: float("nan")}).validate()
        PipelineConfig(**{key: float("inf")}).validate()  # infinity keeps its meaning
    for count in (0, -1):
        with pytest.raises(ConfigError):
            PipelineConfig(limited_speakers_per_gender=count).validate()
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
    seeds = {stage: cfg.stage_seed(stage) for stage in STAGE_TABLE}
    assert len(set(seeds.values())) == len(STAGE_TABLE)
    assert seeds == {stage: PipelineConfig(seed=17).stage_seed(stage) for stage in STAGE_TABLE}


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
    orth = load_orthography("", "en")
    meta = json.loads((tmp_path / "books.json").read_text(encoding="utf-8"))
    by_id = {b["book_id"]: b for b in meta}
    for book_id in summary.book_ids:
        raw = (tmp_path / "books" / f"{book_id}.txt").read_text(encoding="utf-8")
        words = [w for line in normalize_lines(raw, orth) for w in line]
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
    assert duration_histogram([row]) == [("train", "15.0", 1)]


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
    assert sum(n for _, _, n in duration_histogram(rows)) == len(rows)


# -- pipeline ------------------------------------------------------------------------


def test_empty_input_fails_at_stage_one_naming_directory(tmp_path):
    cfg = small_config(tmp_path)
    with pytest.raises(InputError) as err:
        run_pipeline(cfg)
    assert str(err.value) == f"{tmp_path / 'input' / 'books'}: no such directory of book texts"
    assert not list(tmp_path.glob("out/work/*/provenance.json"))


def test_completed_run_invariants(completed_run):
    root, cfg, report = completed_run
    out = Path(cfg.output_dir)
    assert report["config_hash"] == cfg.config_hash()
    assert set(report["stages"]) == set(STAGE_TABLE)
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


def test_kept_book_id_holding_a_line_separator_reaches_lm_train(completed_run, tmp_path):
    """``corpus_books.txt`` is split at LF alone, so the id of a kept book
    that holds U+2028 reads back as the one id that decontam wrote."""
    root, cfg, _ = completed_run
    shutil.copytree(root / "input", tmp_path / "input")
    kept = read_lines(Path(cfg.output_dir) / "lm" / "corpus_books.txt")[0]
    books = tmp_path / "input" / "books"
    shutil.copyfile(books / f"{kept}.txt", books / "extra\u2028x.txt")
    cfg = replace(cfg, input_dir=str(tmp_path / "input"), output_dir=str(tmp_path / "out"))
    assert cli_main(["run", "--config", config_file(tmp_path / "run.cfg", cfg)]) == 0
    assert "extra\u2028x" in read_lines(tmp_path / "out" / "lm" / "corpus_books.txt")


def test_rerun_single_stage_is_byte_identical(completed_run):
    root, cfg, _ = completed_run
    out = Path(cfg.output_dir)
    target = out / "manifests" / "train.tsv"
    before = target.read_bytes()
    run_pipeline(cfg, from_stage="split", until_stage="split")
    assert target.read_bytes() == before


def test_resume_refuses_mismatched_hash(completed_run, tmp_path):
    root, cfg, _ = completed_run
    shutil.copytree(cfg.output_dir, tmp_path / "out")
    # different semantics, same tree (a copy, so the shared run keeps its records)
    tampered = small_config(root, seed=18, output_dir=str(tmp_path / "out"))
    with pytest.raises((StageError, ProvenanceError)):
        run_pipeline(tampered, from_stage="retrieve", until_stage="retrieve")


def test_lm_eval_refuses_a_model_of_another_config(completed_run, tmp_path, capsys):
    """A ``.cflm`` carries the config hash it was trained under, and
    ``lm_eval`` refuses one from another run as it refuses a TSV's hash line."""
    _, cfg, _ = completed_run
    shutil.copytree(cfg.output_dir, tmp_path / "out")
    cfg = replace(cfg, output_dir=str(tmp_path / "out"))
    lm_dir = tmp_path / "out" / "lm"
    model = ngramlm.NGramModel.load(lm_dir / "lm_3.cflm")
    model.metadata["config_hash"] = "0123456789abcdef"
    model.save(lm_dir / "lm_3.cflm", tmp_path / "lm_3.arpa")
    before = (lm_dir / "lm_eval.json").read_bytes()
    assert cli_main(["lm_eval", "--config", config_file(tmp_path / "run.cfg", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {lm_dir / 'lm_3.cflm'}: config hash 0123456789abcdef does not match "
        f"active run {cfg.config_hash()}\n")
    assert (lm_dir / "lm_eval.json").read_bytes() == before


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
    fixed = list(read_candidates(work / "postprocess" / "candidates.tsv"))
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


@pytest.mark.parametrize("index, edit, says", [
    (3, _drop("chapters"), "book 3 ('book003') is malformed"),
    (5, _set("version", "two"), 'book 5: version "two" is not a JSON integer'),
    (2, _drop("book_id"), "book 2 is malformed"),
    (1, lambda record: record["chapters"][0].pop("speaker_id"), "book 1 ('book001') is malformed"),
    (4, _set("chapters", None), "book 4: chapters null is not a JSON array"),
], ids=["no-chapters", "version-two", "no-book-id", "chapter-without-speaker", "null-chapters"])
def test_malformed_book_record_fails_in_segment_naming_books_json_and_book(
    tmp_path, capsys, index, edit, says
):
    """An input fault (exit 2), met when segment reads the catalog."""
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    books_path = tmp_path / "input" / "books.json"
    books = json.loads(books_path.read_text(encoding="utf-8"))
    edit(books[index])
    books_path.write_text(json.dumps(books), encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    message = capsys.readouterr().err
    assert message.startswith(f"error: {books_path}: {says}"), message
    assert not (tmp_path / "out" / "work" / "segment" / "provenance.json").exists()


@pytest.mark.parametrize("record", [None, {}, {"gender": ""}])
def test_missing_speaker_record_names_speakers_json_and_speaker(tmp_path, record):
    """An input fault (exit 2), met when split reads the speakers."""
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    speakers_path = tmp_path / "input" / "speakers.json"
    speakers = json.loads(speakers_path.read_text(encoding="utf-8"))
    if record is None:
        del speakers["spk_f00"]
    else:
        speakers["spk_f00"] = record
    speakers_path.write_text(json.dumps(speakers), encoding="utf-8")
    with pytest.raises(InputError) as err:
        run_pipeline(small_config(tmp_path), until_stage="split")
    assert str(err.value).startswith(f"{speakers_path}: ")
    assert "'spk_f00'" in str(err.value)


def test_rejected_books_stay_out_of_the_split(tmp_path):
    """Split writes the same bytes as when the rejected books' accepted rows
    were never there. Each speaker reads two books, so every rejected book's
    reader keeps rows whose totals and cap sampling its rows would move."""
    synth_corpus(tmp_path / "input", seed=17, params=SynthParams(
        n_books=12, words_per_book=SMALL.words_per_book, speakers_per_gender=3))
    rejected = reject_three_books(tmp_path / "input" / "books.json")
    cfg = small_config(tmp_path)
    run_pipeline(cfg, until_stage="filter")
    clean = tmp_path / "clean"
    shutil.copytree(cfg.output_dir, clean)
    accepted = clean / "work" / "filter" / "accepted.tsv"
    hash_line, header, *rows = accepted.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [r for r in rows if r.split("_", 1)[0] not in rejected]
    assert len(kept) < len(rows)
    accepted.write_text("".join([hash_line, header, *kept]), encoding="utf-8")

    outputs = ["manifests/train.tsv", "manifests/dev.tsv", "manifests/test.tsv", "stats.json",
               "duration_histogram.tsv", "work/split/split_report.json"]
    written = []
    for out in (Path(cfg.output_dir), clean):
        run_stage(replace(cfg, output_dir=str(out)), "split")
        written.append({name: (out / name).read_bytes() for name in outputs})
    assert written[0] == written[1]
    report = json.loads(written[0]["work/split/split_report.json"])
    assert {r["book_id"]: r["reason"] for r in report["book_rejections"]} == rejected


def test_every_split_rule_leaves_its_mark(rules_run):
    """Each rule the rules tree is edited to fire shows in the split report,
    the run report and the manifests."""
    cfg = rules_run
    out = Path(cfg.output_dir)
    split = json.loads((out / "work" / "split" / "split_report.json").read_text(encoding="utf-8"))
    stages = json.loads((out / "report.json").read_text(encoding="utf-8"))["stages"]
    manifests = {p: read_manifest(out / "manifests" / f"{p}.tsv", cfg.config_hash())
                 for p in ("train", "dev", "test")}
    rows = [r for part_rows in manifests.values() for r in part_rows]

    # one rejected book per reason, and none of their chapters released
    rejected = {"book000": "multiple speakers", "book001": "corrupted metadata",
                "book003": "superseded version"}
    assert {r["book_id"]: r["reason"] for r in split["book_rejections"]} == rejected
    assert not {r.chapter_id.split("_")[0] for r in rows} & set(rejected)

    # the reader with no accepted segment: each of its chapters dropped
    books = json.loads((Path(cfg.input_dir) / "books.json").read_text(encoding="utf-8"))
    silent = sorted(ch["chapter_id"] for b in books for ch in b["chapters"]
                    if ch["speaker_id"] == SILENT_READER)
    assert len(silent) == 4
    assert split["chapter_drops"] == [{"chapter_id": c, "reason": "unknown speaker"}
                                      for c in silent]
    assert SILENT_READER not in {r.speaker_id for r in rows}

    # four held-out readers sampled down to the cap
    assert len(split["truncations"]) == 4
    for cut in split["truncations"]:
        held = sum(r.duration_ms for r in manifests[cut["partition"]]
                   if r.speaker_id == cut["speaker_id"]) / 1000.0
        assert held == pytest.approx(cut["after_s"])
        assert cut["after_s"] <= cfg.dev_test_cap_s < cut["before_s"]

    # the hardness filter forces the two readers at or below the cutoff into train
    assert split["hardness"] == "hardness filter kept 5 of 7 speakers"
    cutoff = float((out.parent / REFERENCE).read_text(encoding="utf-8"))
    forced = {s for s, (wer, secs) in mean_wers(cfg, rejected).items()
              if secs >= cfg.train_threshold_s and wer <= cutoff}
    assert len(forced) == 2 and forced <= set(split["speakers"]["train"])
    assert forced <= {r.speaker_id for r in manifests["train"]}

    # segments with no candidate, and candidates over the WER cut
    assert stages["retrieve"]["unmatched"] == 97
    assert stages["filter"]["rejected"] == 61

    # the forced cut drops the one token it lands in
    tokens = read_token_stream(Path(cfg.input_dir) / "tokens" / f"{FORCED_CUT_CHAPTER}.jsonl")
    _, dropped = read_tsv(out / "work" / "segment" / "dropped.tsv", cfg.config_hash())
    assert dropped == [[FORCED_CUT_CHAPTER, tokens.words[22], "19800", "20700"]]
    assert stages["segment"]["dropped"] == 1

    # the chapterless copy of a held-out book goes for its 5-gram overlap alone
    assert ECHOED in {r.book_id for r in manifests["dev"] + manifests["test"]}
    _, decontam = read_tsv(out / "lm" / "decontam_report.tsv", cfg.config_hash())
    rate = {book_id: rate for book_id, _, _, rate in decontam}
    assert [row[:3] for row in decontam if row[2] == "ngram-overlap"] == [
        [ECHO, "removed", "ngram-overlap"]]
    assert rate[ECHO] == rate[ECHOED]


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
    path.write_text("".join(line + "\n" for line in token_lines), encoding="utf-8",
                    errors="surrogateescape")
    return path


def book_record(book_id, *chapters):
    """The ``books.json`` record of one book whose chapters ``spk_m00`` reads."""
    return {"book_id": book_id, "title": "t", "author": "a", "version": 1,
            "chapters": [{"chapter_id": ch, "speaker_id": "spk_m00"} for ch in chapters]}


# a catalog file of ``tiny_input`` replaced by bytes that read_catalog refuses,
# with the message that follows its path
HOSTILE_CATALOGS = {
    "books-not-json": ("books.json", b'[{"book_id": "book000",', ": not valid JSON: "),
    "books-not-utf8": ("books.json", b'["b\xff"]', ":1: not valid UTF-8"),
    "books-an-object": ("books.json", b'{"book000": {}}', ": not a JSON array of book records"),
    "speakers-not-json": ("speakers.json", b"{'spk_m00': 'M'}", ": not valid JSON: "),
    "speakers-a-list": ("speakers.json", b'[{"speaker_id": "spk_m00", "gender": "M"}]',
                        ": not a JSON object of speaker records"),
    "speaker-a-string": ("speakers.json", b'{"spk_m00": "M"}',
                         ": speaker 'spk_m00': record is not a JSON object"),
    "book-id-twice": ("books.json", json.dumps([book_record("book000", "book000_ch00"),
                                                book_record("book000", "book000_ch01")]).encode(),
                      ": book 1 ('book000'): book_id is listed twice"),
    "chapter-twice": ("books.json", json.dumps([book_record("book000", "book000_ch00"),
                                                book_record("book001", "book000_ch00")]).encode(),
                      ": book 1 ('book001'): chapter 'book000_ch00' is listed twice"),
    "book-id-a-list": ("books.json", json.dumps([{**book_record("book000", "book000_ch00"),
                                                  "book_id": ["book000"]}]).encode(),
                       ': book 0: book_id ["book000"] is not a JSON string'),
    "chapter-id-a-list": ("books.json",
                          json.dumps([book_record("book000", ["book000_ch00"])]).encode(),
                          ': book 0: chapter_id ["book000_ch00"] is not a JSON string'),
    "speaker-id-a-number": ("books.json", json.dumps([{**book_record("book000"), "chapters": [
                                {"chapter_id": "book000_ch00", "speaker_id": 7}]}]).encode(),
                            ": book 0: speaker_id 7 is not a JSON string"),
    "chapters-an-object": ("books.json",
                           json.dumps([{**book_record("book000"), "chapters": {}}]).encode(),
                           ": book 0: chapters {} is not a JSON array"),
    "chapters-a-string": ("books.json",
                          json.dumps([{**book_record("book000"), "chapters": "abc"}]).encode(),
                          ': book 0: chapters "abc" is not a JSON array'),
    "chapters-a-keyed-object": ("books.json", json.dumps([{**book_record("book000"),
                                                           "chapters": {"a": 1}}]).encode(),
                                ': book 0: chapters {"a": 1} is not a JSON array'),
    "chapters-a-number": ("books.json",
                          json.dumps([{**book_record("book000"), "chapters": 7}]).encode(),
                          ": book 0: chapters 7 is not a JSON array"),
    "chapter-a-string": ("books.json",
                         json.dumps([{**book_record("book000"), "chapters": ["x"]}]).encode(),
                         ': book 0: chapter 0 "x" is not a JSON object'),
    "title-a-number": ("books.json", json.dumps([{**book_record("book000"), "title": 7}]).encode(),
                       ": book 0: title 7 is not a JSON string"),
    "version-a-string": ("books.json",
                         json.dumps([{**book_record("book000"), "version": "3"}]).encode(),
                         ': book 0: version "3" is not a JSON integer'),
    "version-a-float": ("books.json",
                        json.dumps([{**book_record("book000"), "version": 2.7}]).encode(),
                        ": book 0: version 2.7 is not a JSON integer"),
    "version-a-boolean": ("books.json",
                          json.dumps([{**book_record("book000"), "version": True}]).encode(),
                          ": book 0: version true is not a JSON integer"),
    "multi-speaker-a-string": ("books.json", json.dumps([{**book_record("book000"),
                                                          "multi_speaker": "false"}]).encode(),
                               ': book 0: multi_speaker "false" is not a JSON boolean'),
}


@pytest.mark.parametrize("field", ["author", "title"])
def test_null_author_or_title_is_corrupted_metadata(tmp_path, field):
    """An absent or null field takes its default, so a null author or title
    is empty, and the book is rejected."""
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    (tmp_path / "input" / "books.json").write_text(
        json.dumps([{**book_record("book000", "book000_ch00"), field: None}]), encoding="utf-8")
    books, _ = read_catalog(tmp_path / "input")
    assert sp.validate_books(books)[1] == [{"book_id": "book000", "reason": "corrupted metadata"}]


@pytest.mark.parametrize("entry", ["run", "segment"])
@pytest.mark.parametrize("name, content, message", HOSTILE_CATALOGS.values(), ids=HOSTILE_CATALOGS)
def test_hostile_catalog_exits_2_naming_its_file(tmp_path, capsys, entry, name, content, message):
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    path = tmp_path / "input" / name
    path.write_bytes(content)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n",
                        encoding="utf-8")
    assert cli_main([entry, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "work" / "segment" / "segments.tsv").exists()
    assert not (tmp_path / "out" / "work" / "segment" / "provenance.json").exists()


@pytest.mark.parametrize("entry", ["run", "normalize"])
def test_book_file_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, entry):
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    book = tmp_path / "input" / "books" / "book000.txt"
    book.write_bytes(b"alpha\r\nbeta\rbe\xff t\n")  # line 3, after a CRLF and a lone CR
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n",
                        encoding="utf-8")
    assert cli_main([entry, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {book}:3: not valid UTF-8\n"
    assert not (tmp_path / "out" / "work" / "normalize" / "provenance.json").exists()


@pytest.mark.parametrize("pairs", [[(5, 5)], [(0, 19_900), (19_900, 21_000), (21_000, 21_000)]],
                         ids=["lone", "after-a-dropped-token"])
def test_zero_length_tokens_where_the_stream_ends_are_dropped(tmp_path, pairs):
    """Legal input: the segment command exits 0 and lists the last token,
    which no segment or residual holds, in ``dropped.tsv``."""
    tiny_input(tmp_path / "input", [json.dumps({"w": "alpha", "s": s, "e": e}) for s, e in pairs])
    cfg = small_config(tmp_path)
    assert cli_main(["segment", "--config", config_file(tmp_path / "run.cfg", cfg)]) == 0
    rows = (Path(cfg.output_dir) / "work" / "segment" / "dropped.tsv").read_text(encoding="utf-8")
    start, end = pairs[-1]
    assert rows.endswith(f"\nbook000_ch00\talpha\t{start}\t{end}\n"), rows


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

def test_hardness_prefilter_both_branches(tmp_path, capsys):
    # at seed 8 a forced-train reader is one of the two shortest of its
    # gender, so the filter changes who is held out
    synth_corpus(tmp_path / "input", seed=8, params=SynthParams(
        n_books=SMALL.n_books, words_per_book=SMALL.words_per_book,
        speakers_per_gender=SMALL.speakers_per_gender, noise=0.15,
    ))
    reference = tmp_path / "reference_wers.txt"
    reference.write_text("1.0\n", encoding="utf-8")  # rewritten below, before each split
    cfg = small_config(tmp_path, seed=8, hardness_percentile=0.8,
                       hardness_reference=str(reference))
    run_pipeline(cfg, until_stage="filter")
    stats = mean_wers(cfg)
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

    # a reference line that is not a number is an input fault naming its line
    reference.write_text("0.1\n0.2 0.3\nabc\n", encoding="utf-8")
    assert cli_main(["split", "--config", config_file(tmp_path / "run.cfg", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {reference}:3: could not convert string to float: 'abc'\n"
    )


def test_hardness_reference_fault_exits_2_before_any_stage(tmp_path, capsys):
    # a reference that is not a file, or none with the pre-filter on, would
    # otherwise surface only at split, or turn the pre-filter off unseen
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    missing = tmp_path / "missing.txt"
    for reference, message in [
        (missing, f"{missing}: cannot read: No such file or directory"),
        ("", "hardness_percentile > 0 needs a hardness_reference file"),
    ]:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n"
                            f"hardness_percentile = 0.5\nhardness_reference = {reference}\n",
                            encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path), "--until-stage", "filter"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("out/work/*/provenance.json"))


@pytest.mark.parametrize("key, content, message", [
    ("orthography", None, ": cannot read: No such file or directory"),
    ("orthography", "", ": cannot read: Is a directory"),
    ("orthography", b"U+0061\njunk\n", ":2: cannot parse 'junk'"),
    ("orthography", b"# no characters\n", ": orthography has no valid characters"),
    ("orthography", b"U+0061\nU+110000\n", ":2: inverted range or not a code point"),
    ("language", None, ": no bundled orthography for 'xx'"),
    ("stopwords", None, ": cannot read: No such file or directory"),
    ("stopwords", b"the\nan\xff\n", ":2: not valid UTF-8"),
    ("hardness_reference", b"0.1\n0.\xff2\n", ":2: not valid UTF-8"),
    ("hardness_reference", b"\n \n", ": holds no WER"),
], ids=["orthography-missing", "orthography-a-directory", "orthography-unparsable",
        "orthography-empty", "orthography-past-unicode", "language-unknown", "stopwords-missing", "stopwords-not-utf8",
        "reference-not-utf8", "reference-empty"])
def test_config_named_file_fault_exits_2_before_any_stage(tmp_path, capsys, key, content, message):
    """A file that ``key`` names, holding ``content`` (None: no such file, "":
    a directory), is loaded before normalize and refused naming the file;
    ``language = xx`` names a bundled orthography that does not exist."""
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    path = tmp_path / f"named.{key}"
    if content == "":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    value = path
    if key == "language":
        value, path = "xx", Path(textnorm.__file__).parent / "data" / "orthographies" / "xx.orth"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n"
                        f"hardness_percentile = {0.5 if key == 'hardness_reference' else 0}\n"
                        f"{key} = {value}\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not list(tmp_path.glob("out/work/*/provenance.json"))


# each file a ``tiny_input`` run reads from outside: its path under the test
# directory, the config line that names it, and the stages whose provenance a
# fault in it leaves (normalize runs before segment reads the catalog and the
# token files)
INPUT_FILES = {
    "config": ("run.cfg", "", set()),
    "book": ("input/books/book000.txt", "", set()),
    "books.json": ("input/books.json", "", {"normalize"}),
    "speakers.json": ("input/speakers.json", "", {"normalize"}),
    "orthography": ("named.orth", "orthography = {}\n", set()),
    "stopwords": ("named.stop", "stopwords = {}\n", set()),
    "reference": ("named.ref", "hardness_percentile = 0.5\nhardness_reference = {}\n", set()),
    "token-file": ("input/tokens/book000_ch00.jsonl", "", {"normalize"}),
}


def run_with_faulty_input(tmp_path, name, fault):
    """Run a ``tiny_input`` tree through ``cli.main`` after ``fault(path)``
    rewrote its input file ``name``; returns the exit code, the path and the
    stages that wrote their provenance."""
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    relative, named_by, _ = INPUT_FILES[name]
    path = tmp_path / relative
    path.touch()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"input_dir = {tmp_path / 'input'}\noutput_dir = {tmp_path / 'out'}\n"
                        + named_by.format(path), encoding="utf-8")
    fault(path)
    code = cli_main(["run", "--config", str(cfg_path)])
    return code, path, {p.parent.name for p in tmp_path.glob("out/work/*/provenance.json")}


def not_utf8_on_line_4(path):
    # CR LF, a lone CR and LF each end a line; the form feed ends none
    path.write_bytes(b"a\r\nb\rc\x0cd\n\xff\n")


def a_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("name", [name for name in INPUT_FILES if name != "token-file"])
def test_input_file_not_utf8_exits_2_naming_the_line(tmp_path, capsys, name):
    """Every input file names the line of its first bad byte the same way:
    one more than the count of line ends before it, CR LF and a lone CR
    read as LF."""
    code, path, written = run_with_faulty_input(tmp_path, name, not_utf8_on_line_4)
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:4: not valid UTF-8\n"
    assert written == INPUT_FILES[name][2]


@pytest.mark.parametrize("name", INPUT_FILES)
def test_directory_in_place_of_an_input_file_exits_2_naming_it(tmp_path, capsys, name):
    code, path, written = run_with_faulty_input(tmp_path, name, a_directory)
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: cannot read: Is a directory\n"
    assert written == INPUT_FILES[name][2]


@pytest.mark.parametrize("name, content, message", [
    ("config", b"seed = 3\x0c\nbad line\n", ":2: expected key = value"),
    ("orthography", b"U+0061..U+007A\x0c\nnonsense\n", ":2: cannot parse 'nonsense'"),
    ("reference", b"0.1\x0c\nx\n", ":2: could not convert string to float: 'x'"),
])
def test_form_feed_in_a_line_file_ends_no_line(tmp_path, capsys, name, content, message):
    """The config, orthography and reference lines end at LF alone, so a
    fault is named on the line that ``grep -n`` reports."""
    code, path, written = run_with_faulty_input(tmp_path, name,
                                                lambda path: path.write_bytes(content))
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert written == INPUT_FILES[name][2]


def test_hardness_reference_takes_comments(tmp_path):
    path = tmp_path / "named.ref"
    path.write_text("# wer\n0.1 0.2  # two\n\n0.3\n", encoding="utf-8")
    assert _reference_wers(path) == [0.1, 0.2, 0.3]


# -- command line ----------------------------------------------------------------------


def copied_run(completed_run, tmp_path):
    """The completed run's config, written as ``run.cfg``, and a copy of its
    output directory, for the command line to rewrite."""
    root, cfg, _ = completed_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output_dir, out)
    return config_file(tmp_path / "run.cfg", replace(cfg, output_dir=str(out))), out


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_normalize_single_file(tmp_path):
    tiny_input(tmp_path / "input", ['{"w": "alpha", "s": 0, "e": 500}'])
    (tmp_path / "input" / "books" / "book000.txt").write_text("One two-\nthree; FOUR!\n",
                                                              encoding="utf-8")
    cfg_path = config_file(tmp_path / "run.cfg", small_config(tmp_path))
    assert cli_main(["normalize", "--config", cfg_path]) == 0
    normalized = tmp_path / "out" / "work" / "normalize" / "book000.txt"
    assert normalized.read_text(encoding="utf-8") == "one twothree four\n"


def test_cli_normalize_segment_retrieve_round_trip(tmp_path, capsys):
    """normalize, segment and retrieve, run in turn as subcommands, write the
    candidates of a run's retrieve stage."""
    synth_corpus(tmp_path / "input", seed=6, params=SMALL)
    cfg = small_config(tmp_path)
    report = run_pipeline(cfg, until_stage="retrieve")
    cfg_path = config_file(tmp_path / "run.cfg", cfg)
    out = tmp_path / "out2"
    for name in ("normalize", "segment", "retrieve"):
        assert cli_main([name, "--config", cfg_path, "--output", str(out)]) == 0
    rows = read_manifest(out / "work" / "segment" / "segments.tsv", cfg.config_hash())
    assert rows and all(10_000 <= r.duration_ms <= 20_000 for r in rows)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"run complete: config_hash={cfg.config_hash()} stages=3"
    )
    retrieved = json.loads((out / "report.json").read_text(encoding="utf-8"))["stages"]["retrieve"]
    assert retrieved == report["stages"]["retrieve"]
    header, cands = read_tsv(out / "work" / "retrieve" / "candidates.tsv", cfg.config_hash())
    assert header == list(
        ("segment_id", "book_id", "offset_start", "offset_end", "wer", "accepted", "transcript")
    )
    assert len(cands) == len(rows)
    assert all(row[5] == "true" for row in cands)
    assert (header, cands) == read_tsv(tmp_path / "out" / "work" / "retrieve" / "candidates.tsv")


def test_cli_lm_commands(tmp_path, completed_run):
    cfg_path, out = copied_run(completed_run, tmp_path)
    for path in (out / "lm").glob("lm_*"):
        path.unlink()
    assert cli_main(["lm_train", "--config", cfg_path]) == 0
    assert all((out / "lm" / f"lm_{order}.{ext}").exists()
               for order in (3, 5) for ext in ("cflm", "arpa"))
    assert cli_main(["lm_eval", "--config", cfg_path]) == 0
    payload = json.loads((out / "lm" / "lm_eval.json").read_text(encoding="utf-8"))
    assert sorted(payload["models"]) == ["3", "5"]
    assert all(model["perplexity"] > 1.0 for model in payload["models"].values())


def test_cli_lm_eval_exits_3_naming_a_damaged_model(tmp_path, capsys, completed_run):
    cfg_path, out = copied_run(completed_run, tmp_path)
    model = out / "lm" / "lm_3.cflm"
    model.write_bytes(model.read_bytes()[:-9])
    capsys.readouterr()
    assert cli_main(["lm_eval", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"error: stage lm_eval: {model}: CRC-32 mismatch: the file is damaged or truncated\n")


def test_cli_decontam(tmp_path, completed_run):
    cfg_path, out = copied_run(completed_run, tmp_path)
    report = out / "lm" / "decontam_report.tsv"
    report.unlink()
    assert cli_main(["decontam", "--config", cfg_path]) == 0
    header, rows = read_tsv(report, completed_run[1].config_hash())
    assert {r[1] for r in rows} == {"kept", "removed"}


# what each stage writes under the output directory, besides report.json
STAGE_OUTPUTS = {
    "normalize": ["work/normalize/*"],
    "segment": ["work/segment/*"],
    "retrieve": ["work/retrieve/*"],
    "postprocess": ["work/postprocess/*"],
    "filter": ["work/filter/*"],
    "split": ["work/split/*", "manifests/train.tsv", "manifests/dev.tsv", "manifests/test.tsv",
              "stats.json", "duration_histogram.tsv"],
    "limited": ["work/limited/*", "manifests/limited_*.tsv"],
    "decontam": ["work/decontam/*", "lm/decontam_report.tsv", "lm/corpus_books.txt"],
    "lm_train": ["work/lm_train/*", "lm/lm_*.cflm", "lm/lm_*.arpa"],
    "lm_eval": ["work/lm_eval/*", "lm/lm_eval.json"],
}


@pytest.mark.parametrize("name", STAGE_TABLE)
def test_standalone_subcommand_writes_what_its_stage_wrote(tmp_path, completed_run, name):
    """On a completed run whose outputs of one stage are deleted, that stage's
    subcommand writes them again byte for byte."""
    assert list(STAGE_OUTPUTS) == list(STAGE_TABLE)
    cfg_path, out = copied_run(completed_run, tmp_path)
    before = tree_bytes(out)
    deleted = [p for pattern in STAGE_OUTPUTS[name] + ["report.json"] for p in out.glob(pattern)]
    assert deleted and all(p.is_file() for p in deleted)
    for path in deleted:
        path.unlink()
    assert cli_main([name, "--config", cfg_path]) == 0
    assert tree_bytes(out) == before


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
    assert cli_main(["run", "--config", str(empty_cfg)]) == 2


@pytest.mark.parametrize("content, message", [
    (None, ": cannot read: Is a directory"),
    (b"seed = 3\r\nlanguage = e\xffn\n", ":2: not valid UTF-8"),
    (b"seed = 3\nlanguage = en\nseed = 5\n", ":3: seed is set twice"),
], ids=["directory", "not-utf8", "key-twice"])
def test_config_file_fault_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "run.cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli_main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"


# (where a file stands, the directory named, its reason), with
# ``output_dir`` at ``taken/out``
BLOCKED_OUTPUT_DIRS = {
    "a-file": ("taken/out", "taken/out", "File exists"),
    "under-a-file": ("taken", "taken/out", "Not a directory"),
    "work": ("taken/out/work", "taken/out/work/normalize", "Not a directory"),
    "work-split": ("taken/out/work/split", "taken/out/work/split", "File exists"),
    "manifests": ("taken/out/manifests", "taken/out/manifests", "File exists"),
    "lm": ("taken/out/lm", "taken/out/lm", "File exists"),
}


@pytest.mark.parametrize("blocked, named, message", BLOCKED_OUTPUT_DIRS.values(),
                         ids=BLOCKED_OUTPUT_DIRS)
def test_output_dir_at_a_file_exits_2_naming_it(tmp_path, capsys, blocked, named, message):
    """A file where ``output_dir`` goes is refused before any stage writes;
    one where a stage's directory, ``manifests/`` or ``lm/`` goes, when that
    stage starts. Each is named, and left as it was."""
    synth_corpus(tmp_path / "input", seed=17, params=SMALL)
    cfg = small_config(tmp_path, output_dir=str(tmp_path / "taken" / "out"))
    path = tmp_path / blocked
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("a file\n", encoding="utf-8")
    assert cli_main(["run", "--config", config_file(tmp_path / "run.cfg", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / named}: cannot make directory: {message}\n")
    assert path.read_text(encoding="utf-8") == "a file\n"


def test_cli_split_subcommand_overrides(tmp_path, capsys, monkeypatch):
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
    monkeypatch.setenv("CORPUS_FORGE_SEED", "99")
    assert cli_main(["split", "--config", str(cfg_path)]) == 2  # hash mismatch
    monkeypatch.delenv("CORPUS_FORGE_SEED")
    assert cli_main(["split", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "manifests" / "dev.tsv").exists()
    assert cli_main(["limited", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "manifests" / "limited_10h.tsv").exists()


def test_stage_failure_exits_3_from_every_entry_point(tmp_path, capsys, monkeypatch):
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

    def failing(*args, **kwargs):
        raise sp.SplitError("no speakers to partition")

    monkeypatch.setattr(sp, "partition_speakers", failing)
    capsys.readouterr()
    assert cli_main(["split", "--config", str(cfg_path)]) == 3
    alone = capsys.readouterr().err
    assert cli_main(["run", "--config", str(cfg_path), "--from-stage", "split"]) == 3
    assert capsys.readouterr().err == alone
    assert alone == "error: stage split: no speakers to partition\n"


@pytest.mark.parametrize("content, message", [
    (b'{"stage": "filt', "not valid JSON: Unterminated string starting at: line 1 column 11"),
    (b'["filter"]', "not a provenance record"),
], ids=["torn", "hand-edited"])
@pytest.mark.parametrize("stage", ["filter", "lm_eval"], ids=["prerequisite", "report"])
def test_bad_provenance_exits_2_naming_its_file(tmp_path, completed_run, capsys, stage, content,
                                                 message):
    """split reads filter's record as a prerequisite and lm_eval's for
    ``report.json``."""
    cfg_path, out = copied_run(completed_run, tmp_path)
    path = out / "work" / stage / "provenance.json"
    path.write_bytes(content)
    assert cli_main(["split", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_failed_streamed_write_leaves_no_file_and_no_provenance(tmp_path, completed_run,
                                                                 monkeypatch):
    """Retrieve writes its candidates as each book is done; a failure on a
    later book leaves neither the rows already written nor a temporary file."""
    _, cfg, _ = completed_run
    out = tmp_path / "out"
    shutil.copytree(cfg.output_dir, out)
    cfg = replace(cfg, output_dir=str(out))
    retrieve = out / "work" / "retrieve"
    shutil.rmtree(retrieve)
    book_candidates, books = rt.book_candidates, []

    def failing(book_id, *args):
        books.append(book_id)
        if len(books) == 2:
            assert (retrieve / "candidates.tsv.tmp").is_file()
            raise RuntimeError(f"cannot retrieve {book_id}")
        return book_candidates(book_id, *args)

    monkeypatch.setattr(rt, "book_candidates", failing)
    with pytest.raises(StageError) as err:
        run_stage(cfg, "retrieve")
    assert str(err.value) == f"stage retrieve: cannot retrieve {books[1]}"
    assert len(books) == 2
    assert list(retrieve.iterdir()) == []


@pytest.mark.parametrize("stage, edited, column, value, message", [
    ("postprocess", "retrieve/candidates.tsv", 4, "abc",
     "row 1: wer: could not convert string to float: 'abc'"),
    ("filter", "postprocess/candidates.tsv", 5, "TRUE",
     "row 1: accepted 'TRUE' is neither true nor false"),
    ("retrieve", "segment/segments.tsv", 5, "1e3",
     "row 1: start_ms: invalid literal for int() with base 10: '1e3'"),
], ids=["wer", "accepted", "start_ms"])
def test_field_fault_of_an_intermediate_fails_its_reader_naming_file_and_row(
        tmp_path, completed_run, capsys, stage, edited, column, value, message):
    cfg_path, out = copied_run(completed_run, tmp_path)
    path = out / "work" / edited
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[2].split("\t")
    fields[column] = value
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert cli_main(["run", "--config", cfg_path, "--from-stage", stage]) == 3
    assert capsys.readouterr().err == f"error: stage {stage}: {path}: {message}\n"
    assert not (out / "work" / stage / "provenance.json").exists()


def test_candidate_stage_memory_is_flat_in_corpus_size(tmp_path):
    """The traced peaks of postprocess and filter barely grow from 2 to 8
    books: each holds one book or one block of rows, not the corpus."""
    peaks = {}
    for n_books in (2, 8):
        root = tmp_path / str(n_books)
        synth_corpus(root / "input", seed=17, params=SynthParams(
            n_books=n_books, words_per_book=5000, speakers_per_gender=1))
        cfg = small_config(root)
        run_pipeline(cfg, until_stage="retrieve")
        for stage in ("postprocess", "filter"):
            tracemalloc.start()
            try:
                run_stage(cfg, stage)
                peaks[stage, n_books] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["filter", 8] <= 1.1 * peaks["filter", 2], peaks
    assert peaks["postprocess", 8] <= 1.4 * peaks["postprocess", 2], peaks


def test_cli_synth(tmp_path, capsys):
    assert cli_main([
        "synth", "--out", str(tmp_path / "x"), "--seed", "3",
        "--books", "2", "--words-per-book", "500",
        "--speakers-per-gender", "1", "--noise", "0.1",
    ]) == 0
    assert (tmp_path / "x" / "books.json").exists()
