"""End-to-end orchestration of the corpus build.

``STAGE_TABLE`` declares the stages in run order (normalize, segment,
retrieve, postprocess, filter, split, limited, decontam, lm_train, lm_eval)
and, for each, the stages whose outputs its ``stage_<name>`` function reads.
``run_stage`` is the one runner: it drops the stage's old provenance record,
checks the provenance of every stage the table says it reads, runs it and
records its summary, so a run can be resumed from any stage and a torn or
stale intermediate is refused. All outputs carry the config hash and
readers refuse inputs from a different hash. All randomness derives from
the single top-level seed, split per stage.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from . import decontam as dc
from . import ngramlm
from . import retrieval as rt
from . import splitter as sp
from .config import PipelineConfig
from .manifest import (
    ManifestRow,
    ProvenanceError,
    read_candidates,
    read_lines,
    read_manifest,
    write_candidates,
    write_json,
    write_lines,
    write_manifest,
    write_tsv,
)
from .segmenter import TokenStreamError, read_token_stream, segment_stream
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
    """A stage's provenance file and its record (None when there is none)."""
    path = _stage_dir(cfg, stage) / "provenance.json"
    return path, json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _check_provenance(cfg: PipelineConfig, stage: str) -> None:
    path, record = _provenance(cfg, stage)
    if record is None:
        raise StageError(stage, f"missing output of prerequisite stage ({path})")
    if record.get("config_hash") != cfg.config_hash():
        raise ProvenanceError(
            f"{path}: config hash {record.get('config_hash')} does not match "
            f"active run {cfg.config_hash()}"
        )


def read_catalog(input_dir) -> tuple[list[sp.BookRecord], dict[str, dict]]:
    """The book records of ``books.json`` and the speaker records of
    ``speakers.json``. A book whose record cannot be built fails naming the
    file and the book."""
    root = Path(input_dir)
    books_path = root / "books.json"
    speakers_path = root / "speakers.json"
    if not books_path.exists() or not speakers_path.exists():
        raise FileNotFoundError(f"missing books.json/speakers.json under {root}")
    books = []
    for i, book in enumerate(json.loads(books_path.read_text(encoding="utf-8"))):
        try:
            books.append(sp.BookRecord(
                book_id=book["book_id"],
                # the title words as split and decontam compare them
                title=tuple(str(book.get("title", "")).lower().split()),
                author=str(book.get("author", "")),
                version=int(book.get("version", 1)),
                chapters=tuple(
                    sp.ChapterRef(chapter_id=ch["chapter_id"], speaker_id=ch["speaker_id"])
                    for ch in book["chapters"]
                ),
                multi_speaker=bool(book.get("multi_speaker", False)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            named = f" ({book['book_id']!r})" if isinstance(book, dict) and "book_id" in book else ""
            raise ValueError(
                f"{books_path}: book {i}{named} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
    speakers = json.loads(speakers_path.read_text(encoding="utf-8"))
    return books, speakers


# ---------------------------------------------------------------------------
# per-item steps, shared by the stages and the standalone subcommands


def normalize_file(src: Path, dst: Path, orth) -> int:
    """Write the normalized text of one raw file; returns its token count."""
    lines = normalize_lines(src.read_text(encoding="utf-8"), orth)
    dst.write_text("\n".join(l.text() for l in lines) + "\n", encoding="utf-8")
    return sum(len(l) for l in lines)


def segment_chapter(path: Path, min_ms: int, max_ms: int, keep_residual: bool,
                    book_of: dict, speaker_of: dict, gender_of: dict):
    """Segment one chapter's token stream (``<chapter_id>.jsonl``).

    Returns its segment-manifest rows, the segmentation result and the stream.
    Chapters missing from the maps get empty book, speaker and gender fields.
    """
    chapter_id = path.stem
    stream = read_token_stream(path)
    result = segment_stream(stream, min_ms, max_ms, keep_residual,
                            segment_id_prefix=chapter_id)
    speaker = speaker_of.get(chapter_id, "")
    rows = [
        ManifestRow(seg.segment_id, book_of.get(chapter_id, ""), chapter_id, speaker,
                    gender_of.get(speaker, ""), seg.start, seg.end, " ".join(seg.words))
        for seg in result.segments
        if seg.tokens
    ]
    return rows, result, stream


def read_books(directory) -> dict[str, list[str]]:
    """book_id -> words of every normalized ``<book_id>.txt`` in a directory."""
    return {
        path.stem: path.read_text(encoding="utf-8").split()
        for path in sorted(Path(directory).glob("*.txt"))
    }


def read_sentences(paths) -> list[list[str]]:
    """The LM corpus: the words of every non-blank line of the files."""
    sentences = []
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            words = line.split()
            if words:
                sentences.append(words)
    return sentences


# ---------------------------------------------------------------------------
# stages: each reads its inputs and the outputs of the stages STAGE_TABLE
# declares, writes its outputs and returns its numeric summary


def stage_normalize(cfg: PipelineConfig) -> dict:
    src = Path(cfg.input_dir) / "books"
    if not src.is_dir():
        raise FileNotFoundError(f"input book directory {src} does not exist")
    book_files = sorted(src.glob("*.txt"))
    if not book_files:
        raise FileNotFoundError(f"no book texts found in {src}")
    orth = load_orthography(cfg.orthography, cfg.language)
    out = _stage_dir(cfg, "normalize")
    n_tokens = sum(normalize_file(path, out / path.name, orth) for path in book_files)
    return {"books": len(book_files), "tokens": n_tokens}


def stage_segment(cfg: PipelineConfig) -> dict:
    books, speakers = read_catalog(cfg.input_dir)
    book_of = {ch.chapter_id: b.book_id for b in books for ch in b.chapters}
    speaker_of = {ch.chapter_id: ch.speaker_id for b in books for ch in b.chapters}
    gender_of = {sid: rec.get("gender", "") for sid, rec in speakers.items()}
    token_dir = Path(cfg.input_dir) / "tokens"
    if not token_dir.is_dir():
        raise FileNotFoundError(f"input token directory {token_dir} does not exist")
    out = _stage_dir(cfg, "segment")

    rows, residuals, dropped = [], [], []
    for path in sorted(token_dir.glob("*.jsonl")):
        chapter_id = path.stem
        chapter_rows, result, stream = segment_chapter(
            path, cfg.min_segment_ms, cfg.max_segment_ms, cfg.keep_residual,
            book_of, speaker_of, gender_of,
        )
        rows += chapter_rows
        tail = result.residual
        if tail is not None and not cfg.keep_residual:
            residuals.append((chapter_id, tail.start, tail.end, len(tail.tokens)))
        dropped += [(chapter_id, stream.words[i], stream.starts[i], stream.ends[i])
                    for i in result.dropped_tokens]

    rows.sort(key=lambda r: r.segment_id)
    write_manifest(out / "segments.tsv", rows, cfg.config_hash())
    write_tsv(out / "residuals.tsv", ("chapter_id", "start_ms", "end_ms", "tokens"),
              residuals, cfg.config_hash())
    write_tsv(out / "dropped.tsv", ("chapter_id", "word", "start_ms", "end_ms"),
              dropped, cfg.config_hash())
    return {"segments": len(rows), "residuals": len(residuals), "dropped": len(dropped)}


def _segments(cfg: PipelineConfig) -> list[ManifestRow]:
    """The segment manifest of this run."""
    return read_manifest(_stage_dir(cfg, "segment") / "segments.tsv", cfg.config_hash())


def stage_retrieve(cfg: PipelineConfig) -> dict:
    books = read_books(_stage_dir(cfg, "normalize"))
    candidates, misses = rt.retrieve_candidates(
        books, _segments(cfg), cfg.shard_size, cfg.shard_stride, cfg.wer_threshold
    )
    write_candidates(_stage_dir(cfg, "retrieve") / "candidates.tsv", candidates,
                     cfg.config_hash())
    return {"candidates": len(candidates), "unmatched": misses}


def stage_postprocess(cfg: PipelineConfig) -> dict:
    """Fix rare word forms. A candidate they leave unchanged is kept as read:
    retrieve scored those words against the same pseudo label under the same
    threshold. A changed one is scored again, and dropped when empty."""
    books = read_books(_stage_dir(cfg, "normalize"))
    book_freq = rt.build_book_frequencies(books)
    pseudo_of = {r.segment_id: r.transcript.split() for r in _segments(cfg)}
    out = []
    changed = 0
    for cand in read_candidates(_stage_dir(cfg, "retrieve") / "candidates.tsv", cfg.config_hash()):
        fixed = rt.fix_rare_wordforms(cand.words, book_freq, cfg.rare_wordform_threshold)
        if tuple(fixed) == cand.words:
            out.append(cand)
            continue
        changed += 1
        pseudo = pseudo_of.get(cand.segment_id, [])
        if fixed and pseudo:
            out.append(rt.accept_candidate(
                fixed, pseudo, cfg.wer_threshold, cand.segment_id, cand.source
            ))
    write_candidates(_stage_dir(cfg, "postprocess") / "candidates.tsv", out, cfg.config_hash())
    return {"candidates": len(out), "wordform_changed": changed}


def stage_filter(cfg: PipelineConfig) -> dict:
    candidates = read_candidates(
        _stage_dir(cfg, "postprocess") / "candidates.tsv", cfg.config_hash()
    )
    kept = [c for c in candidates if c.accepted]
    write_candidates(_stage_dir(cfg, "filter") / "accepted.tsv", kept, cfg.config_hash())
    return {
        "accepted": len(kept),
        "rejected": len(candidates) - len(kept),
        "wer_threshold": cfg.wer_threshold,
    }


def _accepted_segments(cfg: PipelineConfig):
    """Join accepted candidates with segment metadata."""
    seg_of = {r.segment_id: r for r in _segments(cfg)}
    joined = []
    for cand in read_candidates(_stage_dir(cfg, "filter") / "accepted.tsv", cfg.config_hash()):
        base = seg_of.get(cand.segment_id)
        if base is None:
            continue
        joined.append(replace(
            base, book_id=cand.source[0], transcript=" ".join(cand.words),
            wer=cand.pseudo_wer, partition="unassigned",
        ))
    joined.sort(key=lambda r: r.segment_id)
    return joined


def stage_split(cfg: PipelineConfig) -> dict:
    books, speakers_meta = read_catalog(cfg.input_dir)
    rows = _accepted_segments(cfg)
    valid_books, rejections = sp.validate_books(books)
    valid_chapters = {ch.chapter_id: ch for b in valid_books for ch in b.chapters}
    rows = [r for r in rows if r.chapter_id in valid_chapters]

    per_speaker: dict[str, list[ManifestRow]] = {}
    for r in rows:
        per_speaker.setdefault(r.speaker_id, []).append(r)
    speakers = []
    recordings: dict[str, list[tuple[str, float]]] = {}
    for sid in sorted(per_speaker):
        segs = per_speaker[sid]
        gender = speakers_meta.get(sid, {}).get("gender")
        if gender not in sp.GENDERS:
            raise ValueError(
                f"{Path(cfg.input_dir) / 'speakers.json'}: speaker {sid!r}, who has "
                f"{len(segs)} accepted segments, has no record with a gender in "
                f"{sp.GENDERS} (got {gender!r})"
            )
        total = sum(s.duration_ms for s in segs) / 1000.0
        wers = [s.wer for s in segs if s.wer is not None]
        speakers.append(
            sp.SpeakerRecord(
                speaker_id=sid,
                gender=gender,
                total_duration=total,
                mean_pseudo_wer=sum(wers) / len(wers) if wers else 0.0,
            )
        )
        recordings[sid] = [(s.segment_id, s.duration_ms / 1000.0) for s in segs]

    hard_note = ""
    partition_input = speakers
    forced_train: list[sp.SpeakerRecord] = []
    if cfg.hardness_percentile > 0 and cfg.hardness_reference:
        reference = [
            float(x)
            for x in Path(cfg.hardness_reference).read_text(encoding="utf-8").split()
        ]
        above = [s for s in speakers if s.total_duration >= cfg.train_threshold_s]
        hard = sp.select_hard_speakers(above, reference, cfg.hardness_percentile)
        enough = all(
            sum(1 for s in hard if s.gender == g) >= 2 * cfg.dev_test_speakers_per_gender
            for g in sp.GENDERS
        )
        if enough:
            hard_ids = {s.speaker_id for s in hard}
            forced_train = [s for s in above if s.speaker_id not in hard_ids]
            partition_input = [
                s for s in speakers if s.total_duration < cfg.train_threshold_s
            ] + hard
            hard_note = f"hardness filter kept {len(hard)} of {len(above)} speakers"
        else:
            hard_note = "hardness filter skipped: insufficient hard speakers"

    assignment = sp.partition_speakers(
        partition_input,
        dev_test_speakers_per_gender=cfg.dev_test_speakers_per_gender,
        train_threshold=cfg.train_threshold_s,
        dev_test_cap=cfg.dev_test_cap_s,
        recordings=recordings,
        seed=cfg.stage_seed("split"),
    )
    for s in forced_train:
        assignment.speaker_partition[s.speaker_id] = "train"
    chapters = [valid_chapters[c] for c in sorted(valid_chapters)]
    assignment = sp.enforce_chapter_exclusivity(assignment, chapters)

    final_rows = []
    for r in rows:
        part = assignment.chapter_partition.get(r.chapter_id)
        if part is None:
            continue
        kept = assignment.kept_segments.get(r.speaker_id)
        if kept is not None and r.segment_id not in kept:
            continue
        final_rows.append(replace(r, partition=part))

    mdir = _manifest_dir(cfg)
    mdir.mkdir(parents=True, exist_ok=True)
    for part in ("train", "dev", "test"):
        write_manifest(
            mdir / f"{part}.tsv",
            [r for r in final_rows if r.partition == part],
            cfg.config_hash(),
        )

    stats = corpus_stats(final_rows)
    stats["config_hash"] = cfg.config_hash()
    hist_rows = sorted(
        (part, f"{bin_start:.1f}", count)
        for (part, bin_start), count in stats.pop("_histogram_pairs").items()
    )
    write_json(Path(cfg.output_dir) / "stats.json", stats)
    write_tsv(
        Path(cfg.output_dir) / "duration_histogram.tsv",
        ("partition", "bin_start_s", "count"),
        hist_rows,
        cfg.config_hash(),
    )

    report = {
        "config_hash": cfg.config_hash(),
        "book_rejections": rejections,
        "truncations": assignment.truncation_report,
        "chapter_drops": assignment.chapter_report,
        "hardness": hard_note,
        "speakers": {
            p: assignment.speakers_in(p) for p in ("train", "dev", "test")
        },
    }
    write_json(_stage_dir(cfg, "split") / "split_report.json", report)
    return {
        "segments": len(final_rows),
        "train": sum(1 for r in final_rows if r.partition == "train"),
        "dev": sum(1 for r in final_rows if r.partition == "dev"),
        "test": sum(1 for r in final_rows if r.partition == "test"),
    }


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
    titles = {b.book_id: b.title for b in read_catalog(cfg.input_dir)[0]}
    books = read_books(_stage_dir(cfg, "normalize"))
    dev_rows = read_manifest(_manifest_dir(cfg) / "dev.tsv", cfg.config_hash())
    test_rows = read_manifest(_manifest_dir(cfg) / "test.tsv", cfg.config_hash())
    heldout_rows = dev_rows + test_rows

    stopwords = dc.stopword_list(cfg.stopwords, cfg.language)
    index = dc.build_heldout_index(
        (r.transcript.split() for r in heldout_rows), stopwords
    )
    heldout_books = {r.book_id for r in heldout_rows}
    heldout_titles = [titles[b] for b in sorted(heldout_books) if b in titles]

    candidates = [
        dc.LmBook(book_id=bid, title=titles.get(bid, ()), tokens=tuple(words))
        for bid, words in sorted(books.items())
    ]
    kept, removed, report = dc.filter_corpus(
        candidates,
        heldout_titles,
        index,
        threshold=cfg.decontam_threshold,
        count_tokens=cfg.decontam_count_tokens,
    )
    lm_dir = _lm_dir(cfg)
    lm_dir.mkdir(parents=True, exist_ok=True)
    dc.write_report(lm_dir / "decontam_report.tsv", report, cfg.config_hash())
    write_lines(lm_dir / "corpus_books.txt", [b.book_id for b in kept], cfg.config_hash())
    return {
        "candidates": len(candidates),
        "kept": len(kept),
        "removed": len(removed),
        "heldout_fivegrams": len(index),
    }


def stage_lm_train(cfg: PipelineConfig) -> dict:
    kept_ids = read_lines(_lm_dir(cfg) / "corpus_books.txt", cfg.config_hash())
    src = _stage_dir(cfg, "normalize")
    sentences = read_sentences(src / f"{book_id}.txt" for book_id in kept_ids)
    lm_dir = _lm_dir(cfg)
    sizes = {}
    for order in cfg.lm_orders:
        model = ngramlm.train(
            sentences,
            order,
            metadata={
                "language": cfg.language,
                "config_hash": cfg.config_hash(),
                "smoothing": "interpolated modified Kneser-Ney, 0.75 absolute fallback",
            },
        )
        path = lm_dir / f"lm_{order}.cflm"
        model.save(path)
        model.to_arpa(lm_dir / f"lm_{order}.arpa")
        del model  # free this order before the next one is trained
        sizes[str(order)] = path.stat().st_size
    return {"orders": list(cfg.lm_orders), "sentences": len(sentences), "bytes": sizes}


def stage_lm_eval(cfg: PipelineConfig) -> dict:
    dev_rows = read_manifest(_manifest_dir(cfg) / "dev.tsv", cfg.config_hash())
    dev_sentences = [r.transcript.split() for r in dev_rows]
    lm_dir = _lm_dir(cfg)
    results = {}
    ppls = {}
    for order in cfg.lm_orders:
        model = ngramlm.NGramModel.load(lm_dir / f"lm_{order}.cflm")
        report = ngramlm.evaluate(model, dev_sentences, oov_context=cfg.oov_context)
        del model  # free this order before the next one is loaded
        results[str(order)] = {
            "oov_rate": report.oov_rate,
            "perplexity": report.perplexity,
            "total_tokens": report.total_tokens,
            "oov_tokens": report.oov_tokens,
            "scored_tokens": report.scored_tokens,
        }
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

    The stage's old ``provenance.json`` goes first, so a stage that fails
    part-way leaves none and its successors refuse its outputs. Then every
    stage it reads must have provenance under this run's config hash. A
    fault of a token file is an input fault and stays a ``TokenStreamError``;
    any other failure of the stage itself becomes a ``StageError`` naming it.
    """
    out = _stage_dir(cfg, name)
    (out / "provenance.json").unlink(missing_ok=True)
    for prerequisite in STAGE_TABLE[name]:
        _check_provenance(cfg, prerequisite)
    out.mkdir(parents=True, exist_ok=True)
    try:
        # looked up on the module at call time, so a rebound stage_<name> is used
        summary = globals()[f"stage_{name}"](cfg)
    except (StageError, ProvenanceError, TokenStreamError):
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
    names = list(STAGE_TABLE)
    for name in (from_stage, until_stage):
        if name is not None and name not in STAGE_TABLE:
            raise ValueError(f"unknown stage {name!r} (stages: {', '.join(names)})")
    start = names.index(from_stage) if from_stage else 0
    stop = names.index(until_stage) if until_stage else len(names) - 1
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)

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
    """Partition hours, per-gender speaker counts and hours, and the segment
    duration histogram (0.5 s bins)."""
    hours: dict[str, float] = {}
    total_ms: dict[str, int] = {}
    speakers: dict[str, dict[str, set]] = {}
    gender_ms: dict[str, dict[str, int]] = {}
    histogram: dict[tuple[str, float], int] = {}
    for r in rows:
        part = r.partition
        total_ms[part] = total_ms.get(part, 0) + r.duration_ms
        speakers.setdefault(part, {}).setdefault(r.gender, set()).add(r.speaker_id)
        gender_ms.setdefault(part, {}).setdefault(r.gender, 0)
        gender_ms[part][r.gender] += r.duration_ms
        bin_start = (r.duration_ms // 500) * 0.5
        key = (part, bin_start)
        histogram[key] = histogram.get(key, 0) + 1
    for part, ms in total_ms.items():
        hours[part] = ms / 3_600_000.0
    return {
        "hours": hours,
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
        "_histogram_pairs": histogram,
    }
