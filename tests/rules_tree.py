"""The rules tree: a small ``synth`` input edited so that each split rule
fires, run through every stage.

It is 16 books x 1 600 words, 4 speakers per gender, noise 0.3, seed 17,
with these edits:
- three books rejected, one for each reason (``reject_three_books``)
- every token word of one reader's chapters replaced by a word no book
  holds, so that reader has no accepted segment and no partition, and each
  of its chapters is an ``unknown speaker`` chapter drop
- a train threshold and dev/test cap low enough that readers are held out
  and truncated, and the hardness pre-filter on, with a reference WER
  between the two lowest-WER readers of one gender (``hardness_cutoff``)
- one chapter's first tokens retimed back to back, so its first cut is
  forced and drops the token it lands in (``force_a_dropped_token``)
- a book without chapters whose text is a held-out book's, under its own
  title and author, so decontam removes it for its 5-gram overlap alone
  (``echo_book``)

``tests/golden_rules.json`` holds the sha256 of every file of its release.
The hardness reference is hashed by its path, so the tree is run from its
own directory with relative paths, and its release does not depend on
where it is built. An intentional output change regenerates the file with
``python tests/rules_tree.py`` from the repository root and says why in
CHANGES.md.
"""

import contextlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # run as a script from the repository root
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from corpus_forge.config import PipelineConfig
from corpus_forge.manifest import read_candidates, read_manifest
from corpus_forge.pipeline import run_pipeline
from corpus_forge.segmenter import TokenStream, read_token_stream, write_token_stream
from corpus_forge.synth import SynthParams, synth_corpus

PARAMS = SynthParams(n_books=16, words_per_book=1600, speakers_per_gender=4, noise=0.3)
SILENT_READER = "spk_f01"  # reads book005 and book013, neither rejected
FORCED_CUT_CHAPTER = "book011_ch00"  # read by a held-out reader
ECHO, ECHOED = "book016", "book008"  # book008 is read by a dev reader
REFERENCE = "reference_wers.txt"


def reject_three_books(books_path) -> dict[str, str]:
    """Edit a ``synth`` catalog so that one book is rejected for each
    reason; returns book_id -> the reason."""
    books = json.loads(Path(books_path).read_text(encoding="utf-8"))
    books[0]["multi_speaker"] = True
    books[1]["author"] = ""
    books[2]["version"] = 2
    books[3].update(author=books[2]["author"], title=books[2]["title"])  # version 1
    Path(books_path).write_text(json.dumps(books), encoding="utf-8")
    return {"book000": "multiple speakers", "book001": "corrupted metadata",
            "book003": "superseded version"}


def silence_reader(input_dir, speaker_id) -> None:
    """Replace every token word of the reader's chapters with a word no
    book holds."""
    books = json.loads((Path(input_dir) / "books.json").read_text(encoding="utf-8"))
    for chapter_id in (ch["chapter_id"] for b in books for ch in b["chapters"]
                       if ch["speaker_id"] == speaker_id):
        path = Path(input_dir) / "tokens" / f"{chapter_id}.jsonl"
        stream = read_token_stream(path)
        write_token_stream(path, TokenStream([f"xq{w}" for w in stream.words],
                                             stream.starts, stream.ends))


def force_a_dropped_token(path) -> None:
    """Retime a chapter's first 23 tokens to 900 ms each, back to back, and
    shift the rest to follow 100 ms after them. No silence falls in the
    first 20 s, so the first cut is forced at 20 s, where the token spanning
    19.8-20.7 s overruns it by more than the slack and is dropped."""
    stream = read_token_stream(path)
    n = 23
    shift = n * 900 + 100 - stream.starts[n]
    write_token_stream(path, TokenStream(
        stream.words,
        [i * 900 for i in range(n)] + [t + shift for t in stream.starts[n:]],
        [(i + 1) * 900 for i in range(n)] + [t + shift for t in stream.ends[n:]],
    ))


def echo_book(input_dir, book_id, copied) -> None:
    """Add ``book_id``, a book without chapters whose text is ``copied``'s.
    Each word of its title starts with a vowel, and no ``synth`` word does,
    so no held-out title is within the title rule's distance."""
    root = Path(input_dir)
    books = json.loads((root / "books.json").read_text(encoding="utf-8"))
    books.append({"book_id": book_id, "title": "echoed unread", "author": "echo",
                  "version": 1, "multi_speaker": False, "chapters": []})
    (root / "books.json").write_text(json.dumps(books), encoding="utf-8")
    text = (root / "books" / f"{copied}.txt").read_text(encoding="utf-8")
    (root / "books" / f"{book_id}.txt").write_text(text, encoding="utf-8")


def mean_wers(cfg, rejected=()) -> dict[str, tuple[float, float]]:
    """speaker_id -> mean WER and total seconds of its accepted segments,
    those of the ``rejected`` books left out, as split leaves them out."""
    out = Path(cfg.output_dir) / "work"
    seg_of = {r.segment_id: r for r in read_manifest(out / "segment" / "segments.tsv")}
    wers, ms = {}, {}
    for cand in sorted(read_candidates(out / "filter" / "accepted.tsv"),
                       key=lambda c: c.segment_id):
        seg = seg_of[cand.segment_id]
        if seg.book_id in rejected:
            continue
        wers.setdefault(seg.speaker_id, []).append(cand.pseudo_wer)
        ms[seg.speaker_id] = ms.get(seg.speaker_id, 0) + seg.duration_ms
    return {s: (sum(w) / len(w), ms[s] / 1000.0) for s, w in wers.items()}


def hardness_cutoff(cfg, rejected) -> float:
    """A WER halfway between the two lowest-WER readers above the train
    threshold of the gender whose second-lowest WER is the lowest, so every
    gender keeps two hard readers and at least one reader is forced into
    train. Reads a run that has been through filter."""
    speakers = json.loads((Path(cfg.input_dir) / "speakers.json").read_text(encoding="utf-8"))
    above = {s: w for s, (w, secs) in mean_wers(cfg, rejected).items()
             if secs >= cfg.train_threshold_s}
    by_gender = {g: sorted(w for s, w in above.items() if speakers[s]["gender"] == g)
                 for g in "FM"}
    g = min("FM", key=lambda g: by_gender[g][1])
    assert by_gender[g][0] < by_gender[g][1]
    return (by_gender[g][0] + by_gender[g][1]) / 2


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def build_rules_tree(root) -> PipelineConfig:
    """Write the rules tree's input under ``root/input`` and run every stage
    into ``root/out``; returns the config with the directories made
    absolute. The run itself sees only paths relative to ``root``."""
    root = Path(root)
    synth_corpus(root / "input", seed=17, params=PARAMS)
    rejected = reject_three_books(root / "input" / "books.json")
    silence_reader(root / "input", SILENT_READER)
    force_a_dropped_token(root / "input" / "tokens" / f"{FORCED_CUT_CHAPTER}.jsonl")
    echo_book(root / "input", ECHO, ECHOED)
    cfg = PipelineConfig(input_dir="input", output_dir="out", seed=17,
                         train_threshold_s=200.0, dev_test_cap_s=150.0,
                         hardness_percentile=0.5, hardness_reference=REFERENCE)
    with _cwd(root):
        Path(REFERENCE).write_text("1.0\n", encoding="utf-8")  # the path is hashed, not this
        run_pipeline(cfg, until_stage="filter")
        Path(REFERENCE).write_text(f"{hardness_cutoff(cfg, rejected)!r}\n", encoding="utf-8")
        run_pipeline(cfg, from_stage="split")
    return replace(cfg, input_dir=str(root / "input"), output_dir=str(root / "out"))


if __name__ == "__main__":
    from test_golden import GOLDEN_RULES, release_digests

    with tempfile.TemporaryDirectory() as tmp:
        digests = release_digests(build_rules_tree(tmp).output_dir)
    GOLDEN_RULES.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_RULES}")
