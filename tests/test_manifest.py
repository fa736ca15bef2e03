"""Manifests share the one TSV codec, so any pseudo-label word survives."""

import json

import pytest

from corpus_forge import manifest, ngramlm, textnorm
from corpus_forge.cli import main as cli_main
from corpus_forge.manifest import (
    CandidateTranscript,
    ManifestRow,
    ProvenanceError,
    numbered_lines,
    read_candidates,
    read_lines,
    read_manifest,
    write_candidates,
    write_lines,
    write_manifest,
    write_tsv,
)
from corpus_forge.pipeline import normalize_file
from corpus_forge.synth import synth_corpus

from test_pipeline import SMALL, config_file, read_tsv, small_config

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
    assert list(read_candidates(path, "cafe")) == CANDIDATES
    with pytest.raises(ProvenanceError):
        list(read_candidates(path, "beef"))


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
        list(read_candidates(path, "cafe"))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("row, column, value, message", [
    (0, 2, "x", "row 1: offset_start: invalid literal for int() with base 10: 'x'"),
    (1, 3, "1.5", "row 2: offset_end: invalid literal for int() with base 10: '1.5'"),
    (0, 2, "6", "row 1: offset_start 6 must be < offset_end 6"),
    (0, 4, "abc", "row 1: wer: could not convert string to float: 'abc'"),
    (1, 5, "TRUE", "row 2: accepted 'TRUE' is neither true nor false"),
], ids=["offset_start", "offset_end", "empty-span", "wer", "accepted"])
def test_candidate_field_faults_are_refused_naming_file_and_row(tmp_path, row, column, value,
                                                                message):
    path = tmp_path / "c.tsv"
    write_candidates(path, CANDIDATES, "cafe")
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2 + row].split("\t")
    fields[column] = value
    lines[2 + row] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        list(read_candidates(path, "cafe"))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit, message", [
    (lambda f: f[:5] + ["0.5"] + f[6:], "row 1: start_ms: invalid literal for int() with base 10: '0.5'"),
    (lambda f: f[:6] + [""] + f[7:], "row 1: end_ms: invalid literal for int() with base 10: ''"),
    (lambda f: f[:6] + ["0"] + f[7:], "row 1: s1: start_ms 0 must be < end_ms 0"),
    (lambda f: f[:8] + ["x"] + f[9:], "row 1: wer: could not convert string to float: 'x'"),
    (lambda f: f[:9] + ["valid"], "row 1: s1: bad partition 'valid'"),
], ids=["start_ms", "end_ms", "empty-span", "wer", "partition"])
def test_manifest_field_faults_are_refused_naming_file_and_row(tmp_path, edit, message):
    path = tmp_path / "m.tsv"
    write_manifest(path, [ManifestRow("s1", "b", "c", "sp", "M", 0, 9, "x", 0.5)], "cafe")
    head, header, row = path.read_text(encoding="utf-8").splitlines()
    fields = edit(row.split("\t"))
    path.write_text("\n".join([head, header, "\t".join(fields)]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, error, message", [
    ("segment_id\tbook_id\n", ProvenanceError, "{path}: missing config hash line"),
    ("", ProvenanceError, "{path}: missing config hash line"),
    ("# config_hash=ca\rfe\nsegment_id\n", ProvenanceError,
     "{path}: config hash ca\rfe does not match active run cafe"),
    ("# config_hash=cafe\n", ValueError, "{path}: empty TSV"),
    ("# config_hash=cafe\n\n\n", ValueError, "{path}: empty TSV"),
    ("# config_hash=cafe\nsegment_id\tbook_id\n", ValueError,
     "{path}: bad or missing candidate header"),
    ("# config_hash=cafe\n" + "\t".join(manifest.CANDIDATE_COLUMNS) + "\n\ns1\tb\n", ValueError,
     "{path}: row 1: expected 7 columns"),
], ids=["no-hash-line", "empty-file", "hash-mismatch-with-cr", "empty", "blank", "header",
        "columns"])
def test_reader_faults_keep_their_messages(tmp_path, text, error, message):
    path = tmp_path / "c.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(error) as err:
        list(read_candidates(path, "cafe"))
    assert str(err.value) == message.format(path=path)


def test_hash_line_ends_at_the_first_line_feed(tmp_path):
    """A carriage return inside the hash line does not end it."""
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# config_hash=ca\rfe\r\nword\tcount\nab\t1\n")
    assert read_tsv(path) == (["word", "count"], [["ab", "1"]])
    assert read_tsv(path, "ca\rfe") == (["word", "count"], [["ab", "1"]])


def test_reader_closes_its_file_when_iteration_stops_early(tmp_path, monkeypatch):
    """A loop left early, a reader dropped part-way and a reader stopped by
    a faulty row each close the file."""
    path = tmp_path / "c.tsv"
    write_candidates(path, CANDIDATES, "cafe")
    torn = tmp_path / "torn.tsv"
    torn.write_text(path.read_text(encoding="utf-8") + "s3\tb\n", encoding="utf-8")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(manifest, "open", recording_open, raising=False)
    for cand in read_candidates(path, "cafe"):
        break
    assert cand == CANDIDATES[0]
    dropped = read_candidates(path, "cafe")
    assert next(dropped) == CANDIDATES[0]
    del dropped
    with pytest.raises(ValueError, match="row 3: expected 7 columns"):
        list(read_candidates(torn, "cafe"))
    assert len(opened) == 3 and all(fh.closed for fh in opened)


def test_written_blocks_match_one_block(tmp_path, monkeypatch):
    """Rows written a block at a time give the bytes of one block, carriage
    return rows quoted in full wherever they fall."""
    rows = [(f"s{i}", "he\rllo" if i % 5 == 0 else f"w{i}") for i in range(23)]
    whole = tmp_path / "whole.tsv"
    write_tsv(whole, ("segment_id", "word"), rows, "cafe")
    monkeypatch.setattr(manifest, "BLOCK_ROWS", 4)
    blocks = tmp_path / "blocks.tsv"
    write_tsv(blocks, ("segment_id", "word"), rows, "cafe")
    assert blocks.read_bytes() == whole.read_bytes()
    assert read_tsv(blocks, "cafe") == (["segment_id", "word"], [list(r) for r in rows])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.tsv", "whole.tsv"]


def fail_on_call(n, fn):
    """``fn``, but its n-th call raises."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError("failed part-way")
        return fn(*args, **kwargs)
    return failing


def write_normalized(path, words):
    orth = textnorm.load_orthography("", "en")
    path.with_suffix(".raw").write_text("\n".join(words) + "\n", encoding="utf-8")
    normalize_file(path.with_suffix(".raw"), path, orth)


def save_model(path, words):
    ngramlm.train([words], 2).save(path.with_suffix(".cflm"), path)


@pytest.mark.parametrize("writer,target,patch,n", [
    (lambda path, words: write_lines(path, words, "cafe"), None, None, 3),
    (lambda path, words: write_tsv(path, ("word",), [(w,) for w in words], "cafe"),
     manifest, "_block_text", 3),
    (lambda path, words: manifest.write_json(path, words), manifest, "json_text", 1),
    (write_normalized, textnorm.NormalizedText, "text", 2),
    (save_model, ngramlm, "_arpa_text", 2),
], ids=["write_lines", "write_tsv", "write_json", "normalize_file", "NGramModel.save"])
def test_a_writer_failing_part_way_leaves_the_earlier_file(tmp_path, monkeypatch, writer, target,
                                                           patch, n):
    """The n-th call of a step inside the writer, or of the iterable it
    writes, raises once the temporary file is open."""
    path = tmp_path / "out.txt"
    writer(path, ["earlier", "words"])
    before = path.read_bytes()
    words = ["later", "words", "here"]
    if target is None:
        words = map(fail_on_call(n, str), words)
    else:
        monkeypatch.setattr(target, patch, fail_on_call(n, getattr(target, patch)))
        monkeypatch.setattr(manifest, "BLOCK_ROWS", 1)
    with pytest.raises(RuntimeError, match="failed part-way"):
        writer(path, words)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_hashed_line_list_round_trip_and_hash_check(tmp_path):
    path = tmp_path / "ids.txt"
    write_lines(path, ["b1", "b2"], "cafe")
    assert read_lines(path, "cafe") == ["b1", "b2"]
    with pytest.raises(ProvenanceError):
        read_lines(path, "beef")
    path.write_text("b1\nb2\n", encoding="utf-8")
    with pytest.raises(ProvenanceError, match="missing config hash line"):
        read_lines(path)


def test_line_list_round_trip_keeps_every_item_without_lf(tmp_path):
    path = tmp_path / "ids.txt"
    items = ["a b", " c", "d\x0ce", "f\u2028g", "h\ri"]
    write_lines(path, items, "cafe")
    assert read_lines(path, "cafe") == items


def test_numbered_lines_end_at_lf_and_drop_comments_and_blanks(tmp_path):
    path = tmp_path / "x.cfg"
    path.write_bytes("a = 1 # one\r\n\n  # only a comment\rb\x0cc \nd\u2028e\n\x0c\n".encode())
    assert list(numbered_lines(path)) == [(1, "a = 1"), (4, "b\x0cc"), (5, "d\u2028e")]


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
