"""The release checker must accept a real release and reject tampered ones."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
from corpus_forge.config import PipelineConfig  # noqa: E402
from corpus_forge.pipeline import run_pipeline  # noqa: E402
from corpus_forge.synth import SynthParams, synth_corpus  # noqa: E402


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    """Six books, three speakers per gender, so that train, dev and test
    each get a speaker of both genders."""
    root = tmp_path_factory.mktemp("perfbench_release")
    params = SynthParams(n_books=6, words_per_book=4000, speakers_per_gender=3, noise=0.0)
    synth_corpus(root / "input", seed=5, params=params)
    run_pipeline(PipelineConfig(input_dir=str(root / "input"), output_dir=str(root / "out")))
    return root


def tampered(release, tmp_path, edit):
    out = tmp_path / "out"
    shutil.copytree(release / "out", out)
    edit(out / "manifests")
    return check.check_release(check.Truth(release / "input"), out, exact=True)


def test_real_release_passes(release):
    v = check.check_release(check.Truth(release / "input"), release / "out", exact=True)
    assert v.ok, v.errors
    assert v.truth_wer == 0.0
    assert v.segments == v.accepted > 0
    assert v.kept_h > 0 and v.release_mb > 0


def test_one_changed_transcript_word_fails(release, tmp_path):
    def edit(manifests):
        path = manifests / "train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split("\t")
        words = fields[7].split()
        words[len(words) // 2] = "tampered"
        fields[7] = " ".join(words)
        lines[2] = "\t".join(fields)
        path.write_text("".join(lines), encoding="utf-8")

    v = tampered(release, tmp_path, edit)
    assert not v.ok
    assert v.truth_wer > 0
    assert any("differs from truth" in e for e in v.errors)


def test_train_speaker_copied_into_dev_fails(release, tmp_path):
    def edit(manifests):
        train_row = (manifests / "train.tsv").read_text(encoding="utf-8").splitlines()[2]
        fields = train_row.split("\t")
        fields[9] = "dev"
        with open(manifests / "dev.tsv", "a", encoding="utf-8") as fh:
            fh.write("\t".join(fields) + "\n")

    v = tampered(release, tmp_path, edit)
    assert not v.ok
    assert any(e.startswith("speaker_id") and "train and dev" in e for e in v.errors)


def test_edit_distance():
    assert check.edit_distance([], []) == 0
    assert check.edit_distance("a b c".split(), []) == 3
    assert check.edit_distance("a b c d".split(), "a x c d".split()) == 1
    assert check.edit_distance("a b c d".split(), "b c d e".split()) == 2
    assert check.edit_distance("k i t t e n".split(), "s i t t i n g".split()) == 3


def test_tokenize_strips_case_and_punctuation():
    assert check.tokenize("Brak dou,\nstea! Tro?\n") == ["brak", "dou", "stea", "tro"]
