"""End-to-end orchestration of the corpus build.

Stages run in a fixed order (normalize, segment, retrieve, postprocess,
filter, split, limited, decontam, lm_train, lm_eval); every stage writes its
outputs plus a provenance record before the next begins, so a run can be
resumed from any stage. All outputs carry the config hash and readers refuse
inputs from a different hash. All randomness derives from the single
top-level seed, split per stage.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from . import decontam as dc
from . import ngramlm
from . import retrieval as rt
from . import splitter as sp
from .config import STAGES, PipelineConfig
from .manifest import (
    CANDIDATE_COLUMNS,
    ManifestRow,
    ProvenanceError,
    candidate_row,
    read_manifest,
    read_tsv,
    write_manifest,
    write_tsv,
)
from .segmenter import read_token_stream, segment_stream
from .textnorm import Orthography, default_orthography, normalize_lines


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


def _write_provenance(cfg: PipelineConfig, stage: str, summary: dict) -> None:
    d = _stage_dir(cfg, stage)
    d.mkdir(parents=True, exist_ok=True)
    payload = {"stage": stage, "config_hash": cfg.config_hash(), "summary": summary}
    (d / "provenance.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _check_provenance(cfg: PipelineConfig, stage: str) -> dict:
    path = _stage_dir(cfg, stage) / "provenance.json"
    if not path.exists():
        raise StageError(stage, f"missing output of prerequisite stage ({path})")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("config_hash") != cfg.config_hash():
        raise ProvenanceError(
            f"{path}: config hash {payload.get('config_hash')} does not match "
            f"active run {cfg.config_hash()}"
        )
    return payload


def _orthography(cfg: PipelineConfig) -> Orthography:
    if cfg.orthography:
        return Orthography.from_file(cfg.orthography, language_id=cfg.language)
    return default_orthography(cfg.language)


def _load_metadata(cfg: PipelineConfig) -> tuple[list[dict], dict[str, dict]]:
    root = Path(cfg.input_dir)
    books_path = root / "books.json"
    speakers_path = root / "speakers.json"
    if not books_path.exists() or not speakers_path.exists():
        raise FileNotFoundError(f"missing books.json/speakers.json under {root}")
    books = json.loads(books_path.read_text(encoding="utf-8"))
    speakers = json.loads(speakers_path.read_text(encoding="utf-8"))
    return books, speakers


# ---------------------------------------------------------------------------
# stages


def stage_normalize(cfg: PipelineConfig) -> dict:
    src = Path(cfg.input_dir) / "books"
    if not src.is_dir():
        raise FileNotFoundError(f"input book directory {src} does not exist")
    book_files = sorted(src.glob("*.txt"))
    if not book_files:
        raise FileNotFoundError(f"no book texts found in {src}")
    orth = _orthography(cfg)
    out = _stage_dir(cfg, "normalize")
    out.mkdir(parents=True, exist_ok=True)
    n_tokens = 0
    for path in book_files:
        lines = normalize_lines(path.read_text(encoding="utf-8"), orth)
        n_tokens += sum(len(l) for l in lines)
        (out / path.name).write_text(
            "\n".join(l.text() for l in lines) + "\n", encoding="utf-8"
        )
    summary = {"books": len(book_files), "tokens": n_tokens}
    _write_provenance(cfg, "normalize", summary)
    return summary


def _chapter_maps(books_meta, speakers_meta):
    book_of = {}
    speaker_of = {}
    for book in books_meta:
        for ch in book["chapters"]:
            book_of[ch["chapter_id"]] = book["book_id"]
            speaker_of[ch["chapter_id"]] = ch["speaker_id"]
    gender_of = {sid: rec["gender"] for sid, rec in speakers_meta.items()}
    return book_of, speaker_of, gender_of


def stage_segment(cfg: PipelineConfig) -> dict:
    books_meta, speakers_meta = _load_metadata(cfg)
    book_of, speaker_of, gender_of = _chapter_maps(books_meta, speakers_meta)
    token_dir = Path(cfg.input_dir) / "tokens"
    if not token_dir.is_dir():
        raise FileNotFoundError(f"input token directory {token_dir} does not exist")
    out = _stage_dir(cfg, "segment")
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    residuals = []
    dropped = []
    for path in sorted(token_dir.glob("*.jsonl")):
        chapter_id = path.stem
        tokens = read_token_stream(path)
        result = segment_stream(
            tokens,
            min_len=cfg.min_segment_ms,
            max_len=cfg.max_segment_ms,
            keep_residual=cfg.keep_residual,
            segment_id_prefix=chapter_id,
        )
        speaker = speaker_of.get(chapter_id, "")
        for seg in result.segments:
            if not seg.tokens:
                continue
            rows.append(
                ManifestRow(
                    segment_id=seg.segment_id,
                    book_id=book_of.get(chapter_id, ""),
                    chapter_id=chapter_id,
                    speaker_id=speaker,
                    gender=gender_of.get(speaker, ""),
                    start_ms=seg.start,
                    end_ms=seg.end,
                    transcript=" ".join(seg.words()),
                    wer=None,
                    partition="unassigned",
                )
            )
        if result.residual is not None and not cfg.keep_residual:
            residuals.append(
                (chapter_id, result.residual.start, result.residual.end,
                 len(result.residual.tokens))
            )
        for tok in result.dropped_tokens:
            dropped.append((chapter_id, tok.word, tok.start, tok.end))

    rows.sort(key=lambda r: r.segment_id)
    write_manifest(out / "segments.tsv", rows, cfg.config_hash())
    write_tsv(out / "residuals.tsv", ("chapter_id", "start_ms", "end_ms", "tokens"),
              residuals, cfg.config_hash())
    write_tsv(out / "dropped.tsv", ("chapter_id", "word", "start_ms", "end_ms"),
              dropped, cfg.config_hash())
    summary = {"segments": len(rows), "residuals": len(residuals), "dropped": len(dropped)}
    _write_provenance(cfg, "segment", summary)
    return summary


def read_books(directory) -> dict[str, list[str]]:
    """book_id -> words of every normalized ``<book_id>.txt`` in a directory."""
    return {
        path.stem: path.read_text(encoding="utf-8").split()
        for path in sorted(Path(directory).glob("*.txt"))
    }


def stage_retrieve(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "normalize")
    _check_provenance(cfg, "segment")
    books = read_books(_stage_dir(cfg, "normalize"))
    seg_rows = read_manifest(
        _stage_dir(cfg, "segment") / "segments.tsv", cfg.config_hash()
    )
    candidates, misses = rt.retrieve_candidates(
        books, seg_rows, cfg.shard_size, cfg.shard_stride, cfg.wer_threshold
    )
    out_rows = [candidate_row(c) for c in candidates]
    out = _stage_dir(cfg, "retrieve")
    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "candidates.tsv", CANDIDATE_COLUMNS, out_rows, cfg.config_hash())
    summary = {"candidates": len(out_rows), "unmatched": misses}
    _write_provenance(cfg, "retrieve", summary)
    return summary


def stage_postprocess(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "retrieve")
    books = read_books(_stage_dir(cfg, "normalize"))
    book_freq = rt.build_book_frequencies(books)
    seg_rows = read_manifest(
        _stage_dir(cfg, "segment") / "segments.tsv", cfg.config_hash()
    )
    pseudo_of = {r.segment_id: r.transcript.split() for r in seg_rows}
    _, cand_rows = read_tsv(
        _stage_dir(cfg, "retrieve") / "candidates.tsv", cfg.config_hash()
    )
    out_rows = []
    changed = 0
    for seg_id, book_id, off_s, off_e, _old_wer, _old_acc, transcript in cand_rows:
        words = transcript.split()
        fixed = rt.fix_rare_wordforms(words, book_freq, cfg.rare_wordform_threshold)
        if fixed != words:
            changed += 1
        pseudo = pseudo_of.get(seg_id, [])
        if not fixed or not pseudo:
            continue
        source = (book_id, (int(off_s), int(off_e)))
        out_rows.append(
            candidate_row(rt.accept_candidate(fixed, pseudo, cfg.wer_threshold, seg_id, source))
        )
    out = _stage_dir(cfg, "postprocess")
    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "candidates.tsv", CANDIDATE_COLUMNS, out_rows, cfg.config_hash())
    summary = {"candidates": len(out_rows), "wordform_changed": changed}
    _write_provenance(cfg, "postprocess", summary)
    return summary


def stage_filter(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "postprocess")
    _, cand_rows = read_tsv(
        _stage_dir(cfg, "postprocess") / "candidates.tsv", cfg.config_hash()
    )
    kept = [row for row in cand_rows if row[5] == "true"]
    out = _stage_dir(cfg, "filter")
    out.mkdir(parents=True, exist_ok=True)
    write_tsv(out / "accepted.tsv", CANDIDATE_COLUMNS, kept, cfg.config_hash())
    summary = {
        "accepted": len(kept),
        "rejected": len(cand_rows) - len(kept),
        "wer_threshold": cfg.wer_threshold,
    }
    _write_provenance(cfg, "filter", summary)
    return summary


def _accepted_segments(cfg: PipelineConfig):
    """Join accepted candidates with segment metadata."""
    seg_rows = read_manifest(
        _stage_dir(cfg, "segment") / "segments.tsv", cfg.config_hash()
    )
    seg_of = {r.segment_id: r for r in seg_rows}
    _, accepted = read_tsv(_stage_dir(cfg, "filter") / "accepted.tsv", cfg.config_hash())
    joined = []
    for seg_id, book_id, off_s, off_e, wer_s, _acc, transcript in accepted:
        base = seg_of.get(seg_id)
        if base is None:
            continue
        joined.append(replace(
            base, book_id=book_id, transcript=transcript, wer=float(wer_s), partition="unassigned"
        ))
    joined.sort(key=lambda r: r.segment_id)
    return joined


def _book_records(books_meta, chapter_durations) -> list[sp.BookRecord]:
    records = []
    for book in books_meta:
        chapters = tuple(
            sp.ChapterRef(
                chapter_id=ch["chapter_id"],
                speaker_id=ch["speaker_id"],
                duration=chapter_durations.get(ch["chapter_id"], 0.0),
            )
            for ch in book["chapters"]
        )
        records.append(
            sp.BookRecord(
                book_id=book["book_id"],
                title=tuple(str(book.get("title", "")).lower().split()),
                author=str(book.get("author", "")),
                version=int(book.get("version", 1)),
                chapters=chapters,
                multi_speaker=bool(book.get("multi_speaker", False)),
            )
        )
    return records


def stage_split(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "filter")
    books_meta, speakers_meta = _load_metadata(cfg)
    rows = _accepted_segments(cfg)

    chapter_durations: dict[str, float] = {}
    for r in rows:
        chapter_durations[r.chapter_id] = (
            chapter_durations.get(r.chapter_id, 0.0) + r.duration_ms / 1000.0
        )
    records = _book_records(books_meta, chapter_durations)
    valid_books, rejections = sp.validate_books(records)
    valid_chapters = {ch.chapter_id: ch for b in valid_books for ch in b.chapters}
    rows = [r for r in rows if r.chapter_id in valid_chapters]

    per_speaker: dict[str, list[ManifestRow]] = {}
    for r in rows:
        per_speaker.setdefault(r.speaker_id, []).append(r)
    speakers = []
    recordings: dict[str, list[tuple[str, float]]] = {}
    for sid in sorted(per_speaker):
        segs = per_speaker[sid]
        gender = speakers_meta.get(sid, {}).get("gender", "")
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
    (Path(cfg.output_dir) / "stats.json").write_text(
        json.dumps(stats, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_tsv(
        Path(cfg.output_dir) / "duration_histogram.tsv",
        ("partition", "bin_start_s", "count"),
        hist_rows,
        cfg.config_hash(),
    )

    out = _stage_dir(cfg, "split")
    out.mkdir(parents=True, exist_ok=True)
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
    (out / "split_report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    summary = {
        "segments": len(final_rows),
        "train": sum(1 for r in final_rows if r.partition == "train"),
        "dev": sum(1 for r in final_rows if r.partition == "dev"),
        "test": sum(1 for r in final_rows if r.partition == "test"),
    }
    _write_provenance(cfg, "split", summary)
    return summary


def stage_limited(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "split")
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
    mdir = _manifest_dir(cfg)

    def relabel(ids, label):
        return [replace(by_id[seg_id], partition=label) for seg_id in sorted(ids)]

    for i, members in enumerate(sets.ten_minute, start=1):
        write_manifest(
            mdir / f"limited_10min_{i}.tsv",
            relabel(members, f"limited:10min-{i}"),
            cfg.config_hash(),
        )
    write_manifest(
        mdir / "limited_1h.tsv", relabel(sets.one_hour, "limited:1h"), cfg.config_hash()
    )
    write_manifest(
        mdir / "limited_10h.tsv", relabel(sets.ten_hour, "limited:10h"), cfg.config_hash()
    )
    out = _stage_dir(cfg, "limited")
    out.mkdir(parents=True, exist_ok=True)
    limited_report = {"config_hash": cfg.config_hash(), **sets.report}
    (out / "limited_report.json").write_text(
        json.dumps(limited_report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    summary = {
        "ten_minute_sizes": [len(s) for s in sets.ten_minute],
        "one_hour_size": len(sets.one_hour),
        "ten_hour_size": len(sets.ten_hour),
        "shortfalls": len(sets.report["shortfalls"]),
    }
    _write_provenance(cfg, "limited", summary)
    return summary


def _stopwords(cfg: PipelineConfig):
    if cfg.stopwords:
        return dc.load_stopwords(cfg.stopwords)
    return dc.default_stopwords(cfg.language)


def stage_decontam(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "split")
    books_meta, _ = _load_metadata(cfg)
    books = read_books(_stage_dir(cfg, "normalize"))
    dev_rows = read_manifest(_manifest_dir(cfg) / "dev.tsv", cfg.config_hash())
    test_rows = read_manifest(_manifest_dir(cfg) / "test.tsv", cfg.config_hash())
    heldout_rows = dev_rows + test_rows

    stopwords = _stopwords(cfg)
    index = dc.build_heldout_index(
        (r.transcript.split() for r in heldout_rows), stopwords
    )
    heldout_books = {r.book_id for r in heldout_rows}
    titles = {}
    for book in books_meta:
        titles[book["book_id"]] = tuple(str(book.get("title", "")).lower().split())
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
    write_tsv(
        lm_dir / "decontam_report.tsv",
        ("book_id", "action", "reason", "rate"),
        [(r["book_id"], r["action"], r["reason"], f"{r['rate']:.6f}") for r in report],
        cfg.config_hash(),
    )
    (lm_dir / "corpus_books.txt").write_text(
        f"# config_hash={cfg.config_hash()}\n"
        + "\n".join(b.book_id for b in kept)
        + "\n",
        encoding="utf-8",
    )
    out = _stage_dir(cfg, "decontam")
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "candidates": len(candidates),
        "kept": len(kept),
        "removed": len(removed),
        "heldout_fivegrams": len(index),
    }
    _write_provenance(cfg, "decontam", summary)
    return summary


def _lm_corpus(cfg: PipelineConfig) -> list[list[str]]:
    kept_path = _lm_dir(cfg) / "corpus_books.txt"
    lines = kept_path.read_text(encoding="utf-8").splitlines()
    for line in lines:
        if line.startswith("# config_hash=") and line.split("=", 1)[1] != cfg.config_hash():
            raise ProvenanceError(f"{kept_path}: config hash mismatch")
    kept_ids = [l.strip() for l in lines if l.strip() and not l.startswith("#")]
    src = _stage_dir(cfg, "normalize")
    sentences = []
    for book_id in kept_ids:
        path = src / f"{book_id}.txt"
        for line in path.read_text(encoding="utf-8").splitlines():
            words = line.split()
            if words:
                sentences.append(words)
    return sentences


def stage_lm_train(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "decontam")
    sentences = _lm_corpus(cfg)
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
    summary = {"orders": list(cfg.lm_orders), "sentences": len(sentences), "bytes": sizes}
    _write_provenance(cfg, "lm_train", summary)
    return summary


def stage_lm_eval(cfg: PipelineConfig) -> dict:
    _check_provenance(cfg, "lm_train")
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
    payload = {
        "config_hash": cfg.config_hash(),
        "models": results,
        "higher_order_not_worse": ngramlm.higher_order_not_worse(ppls),
    }
    (lm_dir / "lm_eval.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_provenance(cfg, "lm_eval", payload["models"])
    return payload


_STAGE_FUNCS = {
    "normalize": stage_normalize,
    "segment": stage_segment,
    "retrieve": stage_retrieve,
    "postprocess": stage_postprocess,
    "filter": stage_filter,
    "split": stage_split,
    "limited": stage_limited,
    "decontam": stage_decontam,
    "lm_train": stage_lm_train,
    "lm_eval": stage_lm_eval,
}


def run_pipeline(
    cfg: PipelineConfig,
    from_stage: str | None = None,
    until_stage: str | None = None,
) -> dict:
    """Run the stages in order; halts on the first failure naming the stage.
    Already-written outputs of earlier stages are left in place, which is
    what makes --from-stage resumption possible."""
    cfg.validate()
    for name in (from_stage, until_stage):
        if name is not None and name not in STAGES:
            raise ValueError(f"unknown stage {name!r} (stages: {', '.join(STAGES)})")
    start = STAGES.index(from_stage) if from_stage else 0
    stop = STAGES.index(until_stage) if until_stage else len(STAGES) - 1
    Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)

    aggregate: dict[str, dict] = {}
    for name in STAGES[start : stop + 1]:
        try:
            aggregate[name] = _STAGE_FUNCS[name](cfg)
        except (StageError, ProvenanceError):
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc

    report = {"config_hash": cfg.config_hash(), "config": cfg.hash_lines(), "stages": {}}
    for name in STAGES:
        prov = _stage_dir(cfg, name) / "provenance.json"
        if prov.exists():
            report["stages"][name] = json.loads(prov.read_text(encoding="utf-8"))["summary"]
    (Path(cfg.output_dir) / "report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
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
