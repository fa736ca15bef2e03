"""The stage table drives the runner: every stage checks the provenance of
every stage it reads, a stage that fails part-way leaves no provenance, and
the benchmark's tracer sees one span per stage."""

import collections
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus_forge import pipeline
from corpus_forge.manifest import ProvenanceError
from corpus_forge.pipeline import STAGE_TABLE, StageError, run_pipeline, run_stage
from corpus_forge.synth import synth_corpus

from test_pipeline import SMALL, small_config

REPO = Path(__file__).resolve().parents[1]
STAGES = tuple(STAGE_TABLE)  # the stage names in run order

# what each stage writes besides its work/<stage>/ directory
EXTRA_OUTPUTS = {
    "split": ["manifests/train.tsv", "manifests/dev.tsv", "manifests/test.tsv",
              "stats.json", "duration_histogram.tsv"],
    "limited": ["manifests/limited_*.tsv"],
    "decontam": ["lm/decontam_report.tsv", "lm/corpus_books.txt"],
    "lm_train": ["lm/lm_*.cflm", "lm/lm_*.arpa"],
    "lm_eval": ["lm/lm_eval.json"],
}


@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    """Run A: the SMALL corpus through every stage."""
    root = tmp_path_factory.mktemp("stage_table")
    synth_corpus(root / "input", seed=17, params=SMALL)
    run_pipeline(small_config(root))
    return root


def copy_of_run_a(run_a, tmp_path, **overrides):
    """A private copy of run A's output tree, and a config that points at it."""
    shutil.copytree(run_a / "out", tmp_path / "out")
    return small_config(tmp_path, input_dir=str(run_a / "input"), **overrides)


def outputs(out: Path, stage: str) -> list[Path]:
    paths = [p for p in (out / "work" / stage).rglob("*") if p.is_file()]
    for pattern in EXTRA_OUTPUTS.get(stage, []):
        paths += out.glob(pattern)
    return sorted(paths)


def remove_outputs(out: Path, stage: str) -> None:
    for path in outputs(out, stage):
        path.unlink()


def load_perfbench_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", REPO / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_table_names_match_config_and_benchmark_stages():
    assert STAGES == load_perfbench_layers().STAGES
    for position, (name, reads) in enumerate(STAGE_TABLE.items()):
        assert callable(getattr(pipeline, f"stage_{name}"))
        assert all(STAGES.index(r) < position for r in reads), (name, reads)


@pytest.mark.parametrize("stage", STAGES)
def test_declared_reads_cover_everything_a_stage_reads(run_a, tmp_path, stage):
    """With the outputs of every stage it does not declare removed, a stage
    writes the same bytes as in the full run: it reads nothing that its
    entry leaves out."""
    cfg = copy_of_run_a(run_a, tmp_path)
    out = tmp_path / "out"
    for other in STAGES:
        if other not in STAGE_TABLE[stage]:
            remove_outputs(out, other)
    run_stage(cfg, stage)
    expected = outputs(run_a / "out", stage)
    got = outputs(out, stage)
    assert [p.relative_to(out) for p in got] == [p.relative_to(run_a / "out") for p in expected]
    for mine, theirs in zip(got, expected):
        assert mine.read_bytes() == theirs.read_bytes(), mine.relative_to(out)


@pytest.mark.parametrize("stage", ["postprocess", "decontam", "lm_train"])
def test_stale_normalize_output_is_refused(run_a, tmp_path, stage):
    cfg = copy_of_run_a(run_a, tmp_path)
    other = small_config(tmp_path, input_dir=cfg.input_dir, seed=99)
    run_pipeline(other, from_stage="normalize", until_stage="normalize")
    with pytest.raises((ProvenanceError, StageError)) as err:
        run_pipeline(cfg, from_stage=stage, until_stage=stage)
    assert str(Path("work") / "normalize" / "provenance.json") in str(err.value)


def test_report_lists_only_stages_recorded_under_this_config(run_a, tmp_path):
    cfg = copy_of_run_a(run_a, tmp_path)
    other = small_config(tmp_path, input_dir=cfg.input_dir, seed=99)
    report = run_pipeline(other, until_stage="normalize")
    assert list(report["stages"]) == ["normalize"]
    written = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert written["config_hash"] == other.config_hash()
    assert list(written["stages"]) == ["normalize"]
    # the stages of the first run still have their records, under its hash
    record = json.loads(
        (tmp_path / "out" / "work" / "segment" / "provenance.json").read_text(encoding="utf-8")
    )
    assert record["config_hash"] == cfg.config_hash() != other.config_hash()


def test_interrupted_stage_leaves_no_provenance(run_a, tmp_path, monkeypatch):
    cfg = copy_of_run_a(run_a, tmp_path)
    segment_dir = tmp_path / "out" / "work" / "segment"
    assert (segment_dir / "provenance.json").exists()

    def crash(*args, **kwargs):
        raise OSError("disk full")

    # segments.tsv is written first; the crash comes at residuals.tsv
    monkeypatch.setattr(pipeline, "write_tsv", crash)
    with pytest.raises(StageError, match="disk full"):
        run_pipeline(cfg, from_stage="segment", until_stage="segment")
    monkeypatch.undo()
    assert (segment_dir / "segments.tsv").exists()
    assert not (segment_dir / "provenance.json").exists()
    with pytest.raises(StageError, match="prerequisite") as err:
        run_pipeline(cfg, from_stage="retrieve", until_stage="retrieve")
    assert err.value.stage == "segment"


def test_lm_corpus_list_without_hash_line_is_refused(run_a, tmp_path):
    cfg = copy_of_run_a(run_a, tmp_path)
    path = tmp_path / "out" / "lm" / "corpus_books.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0] == f"# config_hash={cfg.config_hash()}\n"
    path.write_text("".join(lines[1:]), encoding="utf-8")
    with pytest.raises(ProvenanceError, match="missing config hash line"):
        run_pipeline(cfg, from_stage="lm_train", until_stage="lm_train")


def test_tracer_records_one_span_per_stage(run_a, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {run_a / 'input'}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "train_threshold_s = 200\n"
        "dev_test_cap_s = 300\n",
        encoding="utf-8",
    )
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced.py"), "--spans", str(spans_path),
         "--run-id", "stage-table", "--", "run", "--config", str(cfg_path)],
        check=True, env=env, capture_output=True, text=True,
    )
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    assert payload["exit_code"] == 0
    assert payload["counter_errors"] == {}
    stage_spans = collections.Counter(
        span[0] for span in payload["spans"] if span[0].startswith("pipeline.stage_")
    )
    assert stage_spans == {f"pipeline.stage_{name}": 1 for name in STAGES}
    token_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (run_a / "input" / "tokens").glob("*.jsonl")
    )
    read_tokens = sum(span[5]["tokens"] for span in payload["spans"]
                      if span[0] == "segmenter.read_token_stream")
    assert read_tokens == token_lines > 0
