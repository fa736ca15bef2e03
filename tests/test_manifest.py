"""Manifests share the one TSV codec, so any pseudo-label word survives."""

import json

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.manifest import (
    CandidateTranscript,
    ManifestRow,
    ProvenanceError,
    read_candidates,
    read_lines,
    read_manifest,
    read_tsv,
    write_candidates,
    write_lines,
    write_manifest,
)
from corpus_forge.synth import synth_corpus

from test_pipeline import SMALL, config_file, small_config

AWKWARD = [
    "tab\there", 'say "hi"', '"', "\t", "line\nbreak", "a\u2028b", "he\rllo", "\r", "cr\r\nlf",
]


def test_awkward_words_round_trip_through_manifest(tmp_path):
    rows = [
        ManifestRow(f"s{i}", "b", "c", "sp", "F", 0, 1000 + i, f"one {word} two", None)
        for i, word in enumerate(AWKWARD)
    ]
    rows.append(ManifestRow("plain", "b", "c", "sp", "M", 5, 9, "", 0.5, "dev"))
    path = tmp_path / "m.tsv"
    write_manifest(path, rows, "cafe")
    assert read_manifest(path, expect_hash="cafe") == rows
    # rows without a carriage return keep the minimal quoting
    lines = path.read_bytes().split(b"\n")
    assert b"plain\tb\tc\tsp\tM\t5\t9\t\t0.500000\tdev" in lines
    assert b"s0\tb\tc\tsp\tF\t0\t1000\t\"one tab\there two\"\t\tunassigned" in lines


def test_wrong_column_count_is_refused(tmp_path):
    path = tmp_path / "m.tsv"
    write_manifest(path, [ManifestRow("s1", "b", "c", "sp", "M", 0, 9, "x")], "cafe")
    path.write_text(path.read_text(encoding="utf-8") + "s2\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 10 columns"):
        read_manifest(path)


CANDIDATES = [
    CandidateTranscript("s1", ("one", 'say"hi"', "two"), ("b", (3, 6)), 0.25, True),
    CandidateTranscript("s2", ("x",), ("b", (10, 11)), 0.5, False),
]


def test_candidates_round_trip(tmp_path):
    path = tmp_path / "c.tsv"
    write_candidates(path, CANDIDATES, "cafe")
    assert read_candidates(path, "cafe") == CANDIDATES
    with pytest.raises(ProvenanceError):
        read_candidates(path, "beef")


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1] + ["segment_id\tbook_id\twer"] + lines[2:], "bad or missing candidate header"),
    (lambda lines: lines + ["s3\tb\t1"], "row 3: expected 7 columns"),
])
def test_candidates_with_wrong_header_or_column_count_are_refused(tmp_path, edit, message):
    path = tmp_path / "c.tsv"
    write_candidates(path, CANDIDATES, "cafe")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message) as err:
        read_candidates(path, "cafe")
    assert str(path) in str(err.value)


def test_hashed_line_list_round_trip_and_hash_check(tmp_path):
    path = tmp_path / "ids.txt"
    write_lines(path, ["b1", "b2"], "cafe")
    assert read_lines(path, "cafe") == ["b1", "b2"]
    with pytest.raises(ProvenanceError):
        read_lines(path, "beef")
    path.write_text("b1\nb2\n", encoding="utf-8")
    with pytest.raises(ProvenanceError, match="missing config hash line"):
        read_lines(path)


def test_awkward_pseudo_labels_survive_cli_segment_and_retrieve(tmp_path, capsys):
    synth_corpus(tmp_path / "input", seed=6, params=SMALL)
    token_dir = tmp_path / "input" / "tokens"
    stream = sorted(token_dir.glob("*.jsonl"))[0]
    lines = stream.read_text(encoding="utf-8").splitlines()
    # a word holds no whitespace (see test_segmenter), so quotes are what is left
    for i, word in zip((3, 7), ('"quoted', 'say"hi"')):
        token = json.loads(lines[i])
        token["w"] = word
        lines[i] = json.dumps(token)
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = small_config(tmp_path)
    cfg_path = config_file(tmp_path / "run.cfg", cfg)
    work = tmp_path / "out" / "work"
    assert cli_main(["normalize", "--config", cfg_path]) == 0
    assert cli_main(["segment", "--config", cfg_path]) == 0
    rows = read_manifest(work / "segment" / "segments.tsv", cfg.config_hash())
    words = [w for r in rows if r.chapter_id == stream.stem for w in r.transcript.split(" ")]
    assert '"quoted' in words and 'say"hi"' in words
    # book ids come from books.json, where synth names chapters after their book
    assert all(r.book_id == r.chapter_id.rsplit("_", 1)[0] for r in rows)
    assert cli_main(["retrieve", "--config", cfg_path]) == 0
    _header, cands = read_tsv(work / "retrieve" / "candidates.tsv", cfg.config_hash())
    assert len(cands) == len(rows)
    assert all(row[5] == "true" for row in cands)
