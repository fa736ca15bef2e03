"""End-to-end orchestration of the corpus build.

``STAGE_TABLE`` declares the stages in run order (normalize, segment,
retrieve, postprocess, filter, split, limited, decontam, lm_train, lm_eval)
and, for each, the stages whose outputs its ``stage_<name>`` function reads.
``run_stage`` is the one runner: it drops the stage's old provenance record,
checks the provenance of every stage the table says it reads, runs it and
records its summary, so a run can be resumed from any stage and a torn or
stale intermediate is refused. ``run_pipeline`` runs a range of stages and
writes ``report.json``; every command-line subcommand but ``synth`` is one
call of it. All outputs carry the config hash and readers refuse inputs
from a different hash. All randomness derives from the single top-level
seed, split per stage. The stages that read the normalized books read them
one at a time, so none holds the whole book corpus.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

from . import decontam as dc
from . import ngramlm
from . import retrieval as rt
from . import splitter as sp
from .config import PipelineConfig
from .manifest import (
    InputError,
    ManifestRow,
    ProvenanceError,
    atomic_open,
    iter_manifest,
    make_dir,
    numbered_lines,
    read_candidates,
    read_lines,
    read_manifest,
    read_text,
    write_candidates,
    write_json,
    write_lines,
    write_manifest,
    write_tsv,
)
from .segmenter import read_token_stream, segment_stream
from .textnorm import load_orthography, normalize_lines


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def _stage_dir(cfg: PipelineConfig, stage: str) -> Path:
    return Path(cfg.output_dir) / "work" / stage


def _manifest_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / "manifests"


def _lm_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / "lm"


def _provenance(cfg: PipelineConfig, stage: str) -> tuple[Path, dict | None]:
    """A stage's provenance file and its record (None when there is none).
    A torn or hand-edited record fails as a ``ProvenanceError`` naming it."""
    path = _stage_dir(cfg, stage) / "provenance.json"
    if not path.exists():
        return path, None
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ProvenanceError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(record, dict) or "summary" not in record:
        raise ProvenanceError(f"{path}: not a provenance record")
    return path, record


def _check_provenance(cfg: PipelineConfig, stage: str) -> None:
    path, record = _provenance(cfg, stage)
    if record is None:
        raise StageError(stage, f"missing output of prerequisite stage ({path})")
    if record.get("config_hash") != cfg.config_hash():
        raise ProvenanceError(
            f"{path}: config hash {record.get('config_hash')} does not match "
            f"active run {cfg.config_hash()}"
        )


def _read_json(path: Path):
    text = read_text(path)  # outside the except: an InputError is a ValueError
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None


# the optional fields of a book record and their values when absent or null;
# every field given must have the JSON type of an exemplar value such as these
_BOOK_DEFAULTS = {"title": "", "author": "", "version": 1, "multi_speaker": False}
_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", list: "array", dict: "object"}


def read_catalog(input_dir) -> tuple[list[sp.BookRecord], dict[str, dict]]:
    """The book records of ``books.json`` and the speaker records of
    ``speakers.json``. A file that cannot be read, is not UTF-8 or is not the
    JSON array or object it should be, a book without ``book_id`` or
    ``chapters``, a field of a book or chapter or a chapter entry that is
    not of its JSON type, a ``book_id`` or a chapter listed twice, or a
    speaker record that is not an object, fails as an ``InputError`` naming
    the file and the book or speaker. ``chapters`` and its entries are
    checked before any entry is read."""
    root = Path(input_dir)
    books_path = root / "books.json"
    speakers_path = root / "speakers.json"
    records = _read_json(books_path)
    if not isinstance(records, list):
        raise InputError(f"{books_path}: not a JSON array of book records")
    books: list[sp.BookRecord] = []
    book_ids: set[str] = set()
    chapter_ids: set[str] = set()

    def check_type(i: int, name: str, value, like) -> None:
        if type(value) is not type(like):  # so a boolean is no integer
            raise InputError(f"{books_path}: book {i}: {name} {json.dumps(value)} "
                             f"is not a JSON {_JSON_TYPES[type(like)]}")

    for i, book in enumerate(records):
        try:
            book_id, listed = book["book_id"], book["chapters"]
            check_type(i, "chapters", listed, [])
            for k, ch in enumerate(listed):
                check_type(i, f"chapter {k}", ch, {})
            chapters = tuple(
                sp.ChapterRef(chapter_id=ch["chapter_id"], speaker_id=ch["speaker_id"])
                for ch in listed
            )
        except (KeyError, TypeError) as exc:
            named = f" ({book['book_id']!r})" if isinstance(book, dict) and "book_id" in book else ""
            raise InputError(
                f"{books_path}: book {i}{named} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
        given = {name: default if book.get(name) is None else book[name]
                 for name, default in _BOOK_DEFAULTS.items()}
        required = [("book_id", book_id, "")]
        required += [(name, getattr(ch, name), "") for ch in chapters
                     for name in ("chapter_id", "speaker_id")]
        for name, value, like in required + [(n, v, _BOOK_DEFAULTS[n]) for n, v in given.items()]:
            check_type(i, name, value, like)
        given["title"] = tuple(given["title"].lower().split())  # as split and decontam compare it
        record = sp.BookRecord(book_id=book_id, chapters=chapters, **given)
        if record.book_id in book_ids:
            raise InputError(f"{books_path}: book {i} ({record.book_id!r}): book_id is listed twice")
        for ch in record.chapters:
            if ch.chapter_id in chapter_ids:
                raise InputError(f"{books_path}: book {i} ({record.book_id!r}): "
                                 f"chapter {ch.chapter_id!r} is listed twice")
            chapter_ids.add(ch.chapter_id)
        book_ids.add(record.book_id)
        books.append(record)
    speakers = _read_json(speakers_path)
    if not isinstance(speakers, dict):
        raise InputError(f"{speakers_path}: not a JSON object of speaker records")
    for sid, record in speakers.items():
        if not isinstance(record, dict):
            raise InputError(f"{speakers_path}: speaker {sid!r}: record is not a JSON object")
    return books, speakers


# ---------------------------------------------------------------------------
# readers and per-item steps of the stages


def normalize_file(src: Path, dst: Path, orth) -> int:
    """Write the normalized text of one raw file; returns its token count."""
    lines = normalize_lines(read_text(src), orth)
    with atomic_open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(l.text() for l in lines) + "\n")
    return sum(len(l) for l in lines)


def _book_paths(directory) -> dict[str, Path]:
    """book_id -> path of every normalized ``<book_id>.txt`` in a directory,
    in book_id order."""
    return dict(sorted((path.stem, path) for path in Path(directory).glob("*.txt")))


def _words(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()


# ---------------------------------------------------------------------------
# stages: each reads its inputs and the outputs of the stages STAGE_TABLE
# declares, writes its outputs and returns its numeric summary


def stage_normalize(cfg: PipelineConfig) -> dict:
    src = Path(cfg.input_dir) / "books"
    if not src.is_dir():
        raise InputError(f"{src}: no such directory of book texts")
    book_files = sorted(src.glob("*.txt"))
    if not book_files:
        raise InputError(f"{src}: holds no book text (*.txt)")
    orth = load_orthography(cfg.orthography, cfg.language)
    out = _stage_dir(cfg, "normalize")
    n_tokens = sum(normalize_file(path, out / path.name, orth) for path in book_files)
    return {"books": len(book_files), "tokens": n_tokens}


def stage_segment(cfg: PipelineConfig) -> dict:
    """Segment each chapter's token stream (``<chapter_id>.jsonl``) into its
    manifest rows, its residual tail (when not kept) and its dropped tokens,
    checking that these cover every token once. Book, speaker and gender
    come from the catalog; a chapter it does not list gets empty fields."""
    books, speakers = read_catalog(cfg.input_dir)
    token_dir = Path(cfg.input_dir) / "tokens"
    if not token_dir.is_dir():
        raise InputError(f"{token_dir}: no such directory of token files")
    chapters = {ch.chapter_id: (b.book_id, ch.speaker_id) for b in books for ch in b.chapters}
    rows, residuals, dropped = [], [], []
    for path in sorted(token_dir.glob("*.jsonl")):
        chapter_id = path.stem
        stream = read_token_stream(path)
        result = segment_stream(stream, cfg.min_segment_ms, cfg.max_segment_ms,
                                cfg.keep_residual, segment_id_prefix=chapter_id)
        book, speaker = chapters.get(chapter_id, ("", ""))
        gender = speakers.get(speaker, {}).get("gender", "")
        rows += [ManifestRow(seg.segment_id, book, chapter_id, speaker, gender,
                             seg.start, seg.end, " ".join(seg.words))
                 for seg in result.segments]
        tail = result.residual
        placed = [i for seg in result.segments for i in seg.tokens] + result.dropped_tokens
        if tail is not None and not cfg.keep_residual:
            residuals.append((chapter_id, tail.start, tail.end, len(tail.tokens)))
            placed += tail.tokens
        if sorted(placed) != list(range(len(stream))):
            raise StageError("segment", f"chapter {chapter_id}: segments, residual and dropped "
                                        f"tokens do not cover its {len(stream)} tokens once")
        dropped += [(chapter_id, stream.words[i], stream.starts[i], stream.ends[i])
                    for i in result.dropped_tokens]
    rows.sort(key=lambda r: r.segment_id)
    out = _stage_dir(cfg, "segment")
    write_manifest(out / "segments.tsv", rows, cfg.config_hash())
    write_tsv(out / "residuals.tsv", ("chapter_id", "start_ms", "end_ms", "tokens"),
              residuals, cfg.config_hash())
    write_tsv(out / "dropped.tsv", ("chapter_id", "word", "start_ms", "end_ms"),
              dropped, cfg.config_hash())
    return {"segments": len(rows), "residuals": len(residuals), "dropped": len(dropped)}


def _segments(cfg: PipelineConfig):
    """The segment manifest of this run, one row at a time."""
    return iter_manifest(_stage_dir(cfg, "segment") / "segments.tsv", cfg.config_hash())


def stage_retrieve(cfg: PipelineConfig) -> dict:
    """Retrieve a candidate for every segment, one book at a time. Only each
    segment's id and pseudo label are held, grouped by book; a book's words
    are read when its turn comes, and its candidates are written before the
    next book is read. A book is looked up among the normalized files."""
    files = _book_paths(_stage_dir(cfg, "normalize"))
    labels = rt.labels_by_book(_segments(cfg))
    summary = {"candidates": 0, "unmatched": 0}

    def candidates():
        for book_id in sorted(labels):
            words = _words(files[book_id]) if book_id in files else None
            for cand in rt.book_candidates(book_id, words, labels[book_id], cfg.shard_size,
                                           cfg.shard_stride, cfg.wer_threshold):
                if cand is None:
                    summary["unmatched"] += 1
                else:
                    summary["candidates"] += 1
                    yield cand

    with rt.workspace():
        write_candidates(_stage_dir(cfg, "retrieve") / "candidates.tsv", candidates(),
                         cfg.config_hash())
    return summary


def stage_postprocess(cfg: PipelineConfig) -> dict:
    """Fix rare word forms, one candidate at a time. A candidate they leave
    unchanged is kept as read: retrieve scored those words against the same
    pseudo label under the same threshold. A changed one is scored again,
    and dropped when empty. The book frequencies are counted one book at a
    time, and pseudo labels are held as text, split only for a candidate
    that changes."""
    files = _book_paths(_stage_dir(cfg, "normalize"))
    book_freq = rt.build_book_frequencies(_words(path) for path in files.values())
    pseudo_of = {r.segment_id: r.transcript for r in _segments(cfg)}
    summary = {"candidates": 0, "wordform_changed": 0}

    def fixed():
        for cand in read_candidates(_stage_dir(cfg, "retrieve") / "candidates.tsv",
                                    cfg.config_hash()):
            words = rt.fix_rare_wordforms(cand.words, book_freq, cfg.rare_wordform_threshold)
            if tuple(words) != cand.words:
                summary["wordform_changed"] += 1
                pseudo = pseudo_of.get(cand.segment_id, "").split()
                if not (words and pseudo):
                    continue
                cand = rt.accept_candidate(
                    words, pseudo, cfg.wer_threshold, cand.segment_id, cand.source
                )
            summary["candidates"] += 1
            yield cand

    write_candidates(_stage_dir(cfg, "postprocess") / "candidates.tsv", fixed(),
                     cfg.config_hash())
    return summary


def stage_filter(cfg: PipelineConfig) -> dict:
    """Keep the accepted candidates, one at a time."""
    summary = {"accepted": 0, "rejected": 0, "wer_threshold": cfg.wer_threshold}

    def kept():
        for cand in read_candidates(_stage_dir(cfg, "postprocess") / "candidates.tsv",
                                    cfg.config_hash()):
            summary["accepted" if cand.accepted else "rejected"] += 1
            if cand.accepted:
                yield cand

    write_candidates(_stage_dir(cfg, "filter") / "accepted.tsv", kept(), cfg.config_hash())
    return summary


def _accepted_segments(cfg: PipelineConfig, chapters) -> list[ManifestRow]:
    """Each accepted candidate joined with its segment row, for the segments
    of ``chapters`` only, in segment id order."""
    seg_of = {r.segment_id: r for r in _segments(cfg)}
    joined = []
    for cand in read_candidates(_stage_dir(cfg, "filter") / "accepted.tsv", cfg.config_hash()):
        base = seg_of.get(cand.segment_id)
        if base is not None and base.chapter_id in chapters:
            joined.append(replace(base, book_id=cand.source[0], transcript=" ".join(cand.words),
                                  wer=cand.pseudo_wer))
    joined.sort(key=lambda r: r.segment_id)
    return joined


def _reference_wers(path) -> list[float]:
    """The WERs of a hardness reference line file, whitespace-separated; a
    token that is not a number, or a file with none, fails naming the file."""
    reference = []
    for lineno, line in numbered_lines(path):
        try:
            reference += [float(x) for x in line.split()]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not reference:
        raise InputError(f"{path}: holds no WER")
    return reference


def stage_split(cfg: PipelineConfig) -> dict:
    """Partition the accepted segments of the valid books' chapters: one
    speaker record per reader, and each row that the dev/test cap keeps
    written to its reader's partition's manifest once."""
    books, speakers_meta = read_catalog(cfg.input_dir)
    valid_books, rejections = sp.validate_books(books)
    valid_chapters = {ch.chapter_id: ch for b in valid_books for ch in b.chapters}
    rows = _accepted_segments(cfg, valid_chapters)

    per_speaker: dict[str, list[ManifestRow]] = {}
    for r in rows:
        per_speaker.setdefault(r.speaker_id, []).append(r)
    speakers, recordings = [], {}
    for sid in sorted(per_speaker):
        segs = per_speaker[sid]
        gender = speakers_meta.get(sid, {}).get("gender")
        if gender not in sp.GENDERS:
            raise InputError(
                f"{Path(cfg.input_dir) / 'speakers.json'}: speaker {sid!r}, who has "
                f"{len(segs)} accepted segments, has no record with a gender in "
                f"{sp.GENDERS} (got {gender!r})"
            )
        speakers.append(sp.SpeakerRecord(
            speaker_id=sid, gender=gender,
            total_duration=sum(s.duration_ms for s in segs) / 1000.0,
            mean_pseudo_wer=sum(s.wer for s in segs) / len(segs),
        ))
        recordings[sid] = [(s.segment_id, s.duration_ms / 1000.0) for s in segs]

    hard_note = ""
    forced_train: set[str] = set()  # readers above the threshold the filter does not keep
    if cfg.hardness_percentile > 0:
        above = [s for s in speakers if s.total_duration >= cfg.train_threshold_s]
        hard = sp.select_hard_speakers(above, _reference_wers(cfg.hardness_reference),
                                       cfg.hardness_percentile)
        if all(sum(1 for s in hard if s.gender == g) >= 2 * cfg.dev_test_speakers_per_gender
               for g in sp.GENDERS):
            forced_train = {s.speaker_id for s in above} - {s.speaker_id for s in hard}
            hard_note = f"hardness filter kept {len(hard)} of {len(above)} speakers"
        else:
            hard_note = "hardness filter skipped: insufficient hard speakers"

    assignment = sp.partition_speakers(
        [s for s in speakers if s.speaker_id not in forced_train],
        dev_test_speakers_per_gender=cfg.dev_test_speakers_per_gender,
        train_threshold=cfg.train_threshold_s,
        dev_test_cap=cfg.dev_test_cap_s,
        recordings=recordings,
        seed=cfg.stage_seed("split"),
    )
    for sid in sorted(forced_train):
        assignment.speaker_partition[sid] = "train"
    # a chapter takes its reader's partition; a reader with no accepted
    # segment has none, and its chapters are dropped
    chapter_drops = [{"chapter_id": c, "reason": "unknown speaker"} for c in sorted(valid_chapters)
                     if valid_chapters[c].speaker_id not in assignment.speaker_partition]

    by_part: dict[str, list[ManifestRow]] = {"train": [], "dev": [], "test": []}
    for r in rows:
        part = assignment.speaker_partition[r.speaker_id]
        kept = assignment.kept_segments.get(r.speaker_id)
        if kept is None or r.segment_id in kept:
            by_part[part].append(replace(r, partition=part))
    mdir = _manifest_dir(cfg)
    make_dir(mdir)
    for part, part_rows in by_part.items():
        write_manifest(mdir / f"{part}.tsv", part_rows, cfg.config_hash())

    released = [r for part_rows in by_part.values() for r in part_rows]
    write_json(Path(cfg.output_dir) / "stats.json",
               {**corpus_stats(released), "config_hash": cfg.config_hash()})
    write_tsv(Path(cfg.output_dir) / "duration_histogram.tsv",
              ("partition", "bin_start_s", "count"), duration_histogram(released),
              cfg.config_hash())

    report = {
        "config_hash": cfg.config_hash(),
        "book_rejections": rejections,
        "truncations": assignment.truncation_report,
        "chapter_drops": chapter_drops,
        "hardness": hard_note,
        "speakers": {p: sorted(s for s, q in assignment.speaker_partition.items() if q == p)
                     for p in by_part},
    }
    write_json(_stage_dir(cfg, "split") / "split_report.json", report)
    counts = {part: len(part_rows) for part, part_rows in by_part.items()}
    return {"segments": sum(counts.values()), **counts}


def stage_limited(cfg: PipelineConfig) -> dict:
    train_rows = read_manifest(_manifest_dir(cfg) / "train.tsv", cfg.config_hash())
    segments = [
        (r.segment_id, r.speaker_id, r.gender, r.duration_ms / 1000.0)
        for r in train_rows
    ]
    sets = sp.make_limited_supervision(
        segments,
        seed=cfg.stage_seed("limited"),
        speakers_per_gender=cfg.limited_speakers_per_gender,
    )
    by_id = {r.segment_id: r for r in train_rows}
    subsets = [(f"10min_{i}", f"10min-{i}", ids) for i, ids in enumerate(sets.ten_minute, 1)]
    subsets += [("1h", "1h", sets.one_hour), ("10h", "10h", sets.ten_hour)]
    for file_tag, label, ids in subsets:
        rows = [replace(by_id[seg_id], partition=f"limited:{label}") for seg_id in sorted(ids)]
        write_manifest(_manifest_dir(cfg) / f"limited_{file_tag}.tsv", rows, cfg.config_hash())
    write_json(
        _stage_dir(cfg, "limited") / "limited_report.json",
        {"config_hash": cfg.config_hash(), **sets.report},
    )
    return {
        "ten_minute_sizes": [len(s) for s in sets.ten_minute],
        "one_hour_size": len(sets.one_hour),
        "ten_hour_size": len(sets.ten_hour),
        "shortfalls": len(sets.report["shortfalls"]),
    }


def stage_decontam(cfg: PipelineConfig) -> dict:
    """Filter the normalized books against the dev and test transcripts, one
    book at a time. Every title, a candidate's or a held-out row's book's,
    comes from ``books.json``."""
    titles = {b.book_id: b.title for b in read_catalog(cfg.input_dir)[0]}
    dev_rows = read_manifest(_manifest_dir(cfg) / "dev.tsv", cfg.config_hash())
    test_rows = read_manifest(_manifest_dir(cfg) / "test.tsv", cfg.config_hash())
    heldout_rows = dev_rows + test_rows
    index = dc.build_heldout_index((r.transcript.split() for r in heldout_rows),
                                   dc.load_stopwords(cfg.stopwords, cfg.language))
    dev_test_titles = [titles[b] for b in sorted({r.book_id for r in heldout_rows}) if b in titles]
    books = ((book_id, titles.get(book_id, ()), _words(path))
             for book_id, path in _book_paths(_stage_dir(cfg, "normalize")).items())
    report = dc.filter_corpus(books, dev_test_titles, index, threshold=cfg.decontam_threshold,
                              count_tokens=cfg.decontam_count_tokens)
    kept = [row["book_id"] for row in report if row["action"] == "kept"]
    lm_dir = _lm_dir(cfg)
    make_dir(lm_dir)
    dc.write_report(lm_dir / "decontam_report.tsv", report, cfg.config_hash())
    write_lines(lm_dir / "corpus_books.txt", kept, cfg.config_hash())
    return {"candidates": len(report), "kept": len(kept), "removed": len(report) - len(kept),
            "heldout_fivegrams": len(index)}


def stage_lm_train(cfg: PipelineConfig) -> dict:
    """Train each order on the non-blank lines of the kept books, which each
    order reads afresh, one book at a time."""
    kept_ids = read_lines(_lm_dir(cfg) / "corpus_books.txt", cfg.config_hash())
    src = _stage_dir(cfg, "normalize")
    lm_dir = _lm_dir(cfg)
    summary = {"orders": list(cfg.lm_orders), "sentences": 0, "bytes": {}}

    def sentences():
        summary["sentences"] = 0
        for book_id in kept_ids:
            for line in (src / f"{book_id}.txt").read_text(encoding="utf-8").split("\n"):
                if words := line.split():
                    summary["sentences"] += 1
                    yield words

    metadata = {"language": cfg.language, "config_hash": cfg.config_hash(),
                "smoothing": "interpolated modified Kneser-Ney, 0.75 absolute fallback"}
    for order in cfg.lm_orders:
        model = ngramlm.train(sentences(), order, metadata=metadata)
        path = lm_dir / f"lm_{order}.cflm"
        model.save(path, lm_dir / f"lm_{order}.arpa")
        del model  # free this order before the next one is trained
        summary["bytes"][str(order)] = path.stat().st_size
    return summary


def stage_lm_eval(cfg: PipelineConfig) -> dict:
    dev_rows = read_manifest(_manifest_dir(cfg) / "dev.tsv", cfg.config_hash())
    dev_sentences = [r.transcript.split() for r in dev_rows]
    lm_dir = _lm_dir(cfg)
    results = {}
    ppls = {}
    for order in cfg.lm_orders:
        path = lm_dir / f"lm_{order}.cflm"
        model = ngramlm.NGramModel.load(path)
        if model.metadata.get("config_hash") != cfg.config_hash():  # a model's hash line
            raise ProvenanceError(f"{path}: config hash {model.metadata.get('config_hash')} "
                                  f"does not match active run {cfg.config_hash()}")
        report = ngramlm.evaluate(model, dev_sentences, oov_context=cfg.oov_context)
        del model  # free this order before the next one is loaded
        results[str(order)] = asdict(report)
        ppls[order] = report.perplexity
    write_json(lm_dir / "lm_eval.json", {
        "config_hash": cfg.config_hash(),
        "models": results,
        "higher_order_not_worse": ngramlm.higher_order_not_worse(ppls),
    })
    return results


# The stage table, in run order: stage name -> the stages whose outputs
# ``stage_<name>`` reads. A stage that reads a stage's files must list it,
# so that a missing, torn or stale prerequisite is refused.
STAGE_TABLE: dict[str, tuple[str, ...]] = {
    "normalize": (),
    "segment": (),
    "retrieve": ("normalize", "segment"),
    "postprocess": ("normalize", "segment", "retrieve"),
    "filter": ("postprocess",),
    "split": ("segment", "filter"),
    "limited": ("split",),
    "decontam": ("normalize", "split"),
    "lm_train": ("normalize", "decontam"),
    "lm_eval": ("split", "lm_train"),
}


def run_stage(cfg: PipelineConfig, name: str) -> dict:
    """Run one stage and record its provenance.

    The stage's directory is made, a file in its way failing as an
    ``InputError`` naming it, and its old ``provenance.json`` goes, so a
    stage that fails part-way leaves none and its successors refuse its
    outputs. Then every stage it reads must have provenance under this
    run's config hash. A fault of an input file, which names the file and
    the line, stays an ``InputError``; any other failure of the stage
    itself becomes a ``StageError`` naming it.
    """
    out = _stage_dir(cfg, name)
    make_dir(out)
    (out / "provenance.json").unlink(missing_ok=True)
    for prerequisite in STAGE_TABLE[name]:
        _check_provenance(cfg, prerequisite)
    try:
        # looked up on the module at call time, so a rebound stage_<name> is used
        summary = globals()[f"stage_{name}"](cfg)
    except (StageError, ProvenanceError, InputError):
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    write_json(
        out / "provenance.json",
        {"stage": name, "config_hash": cfg.config_hash(), "summary": summary},
    )
    return summary


def run_pipeline(
    cfg: PipelineConfig,
    from_stage: str | None = None,
    until_stage: str | None = None,
) -> dict:
    """Run the stages in order; halts on the first failure naming the stage.
    Already-written outputs of earlier stages are left in place, which is
    what makes --from-stage resumption possible."""
    cfg.validate()
    # every file the config names is loaded here by its stage's loader, so
    # a fault in one stops the run before any stage writes
    load_orthography(cfg.orthography, cfg.language)
    dc.load_stopwords(cfg.stopwords, cfg.language)
    if cfg.hardness_percentile > 0:
        _reference_wers(cfg.hardness_reference)
    names = list(STAGE_TABLE)
    for name in (from_stage, until_stage):
        if name is not None and name not in STAGE_TABLE:
            raise ValueError(f"unknown stage {name!r} (stages: {', '.join(names)})")
    start = names.index(from_stage) if from_stage else 0
    stop = names.index(until_stage) if until_stage else len(names) - 1
    make_dir(cfg.output_dir)

    for name in names[start : stop + 1]:
        run_stage(cfg, name)

    report = {"config_hash": cfg.config_hash(), "config": cfg.hash_lines(), "stages": {}}
    for name in names:
        _, record = _provenance(cfg, name)
        if record is not None and record.get("config_hash") == cfg.config_hash():
            report["stages"][name] = record["summary"]
    write_json(Path(cfg.output_dir) / "report.json", report)
    return report


def corpus_stats(rows) -> dict:
    """Partition hours, per-gender speaker counts and hours."""
    gender_ms: dict[str, dict[str, int]] = {}
    speakers: dict[str, dict[str, set]] = {}
    for r in rows:
        by_gender = gender_ms.setdefault(r.partition, {})
        by_gender[r.gender] = by_gender.get(r.gender, 0) + r.duration_ms
        speakers.setdefault(r.partition, {}).setdefault(r.gender, set()).add(r.speaker_id)
    total_ms = {part: sum(by_gender.values()) for part, by_gender in gender_ms.items()}
    return {
        "hours": {part: ms / 3_600_000.0 for part, ms in total_ms.items()},
        "total_ms": total_ms,
        "speakers": {
            part: {g: sorted(ids) for g, ids in by_gender.items()}
            for part, by_gender in speakers.items()
        },
        "speaker_counts": {
            part: {g: len(ids) for g, ids in by_gender.items()}
            for part, by_gender in speakers.items()
        },
        "gender_hours": {
            part: {g: ms / 3_600_000.0 for g, ms in by_gender.items()}
            for part, by_gender in gender_ms.items()
        },
    }


def duration_histogram(rows) -> list[tuple[str, str, int]]:
    """The rows of ``duration_histogram.tsv``: each partition's segments
    counted in 0.5 s bins, sorted by partition and bin start as text."""
    counts = Counter((r.partition, f"{r.duration_ms // 500 * 0.5:.1f}") for r in rows)
    return sorted((part, bin_start, n) for (part, bin_start), n in counts.items())
