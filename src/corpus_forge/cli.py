"""corpus-forge command line.

Standalone subcommands (normalize, segment, retrieve, decontam, lm-train,
lm-eval) operate on explicit files. The split and limited subcommands run
their pipeline stage against an existing run directory, since their inputs
are the joined pipeline state. ``run`` executes the whole pipeline from a
config file. Exit codes: 0 success, 2 validation/config failure, 3 stage
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import decontam as dc
from . import ngramlm
from . import retrieval as rt
from .config import STAGES, ConfigError, PipelineConfig
from .manifest import (
    CANDIDATE_COLUMNS,
    ManifestRow,
    ProvenanceError,
    candidate_row,
    read_manifest,
    write_manifest,
    write_tsv,
)
from .pipeline import StageError, read_books, run_pipeline, stage_limited, stage_split
from .segmenter import read_token_stream, segment_stream
from .textnorm import Orthography, default_orthography, normalize_lines

ADHOC_HASH = "adhoc"  # provenance stamp for standalone (non-run) invocations


def _orth(args) -> Orthography:
    if getattr(args, "orthography", None):
        return Orthography.from_file(args.orthography)
    return default_orthography(getattr(args, "language", "en"))


def cmd_normalize(args) -> int:
    orth = _orth(args)
    src = Path(args.infile)
    dst = Path(args.outfile)
    pairs = []
    if src.is_dir():
        dst.mkdir(parents=True, exist_ok=True)
        pairs = [(p, dst / p.name) for p in sorted(src.glob("*.txt"))]
        if not pairs:
            print(f"no .txt files under {src}", file=sys.stderr)
            return 2
    else:
        pairs = [(src, dst)]
    for inp, outp in pairs:
        lines = normalize_lines(inp.read_text(encoding="utf-8"), orth)
        outp.write_text("\n".join(l.text() for l in lines) + "\n", encoding="utf-8")
    return 0


def cmd_segment(args) -> int:
    src = Path(args.indir)
    files = sorted(src.glob("*.jsonl"))
    if not files:
        print(f"no .jsonl token streams under {src}", file=sys.stderr)
        return 2
    rows = []
    residuals = 0
    for path in files:
        tokens = read_token_stream(path)
        result = segment_stream(
            tokens,
            min_len=int(args.min_sec * 1000),
            max_len=int(args.max_sec * 1000),
            keep_residual=args.keep_residual,
            segment_id_prefix=path.stem,
        )
        residuals += result.residual is not None
        for seg in result.segments:
            if not seg.tokens:
                continue
            rows.append(
                ManifestRow(
                    segment_id=seg.segment_id,
                    book_id="",
                    chapter_id=path.stem,
                    speaker_id="",
                    gender="",
                    start_ms=seg.start,
                    end_ms=seg.end,
                    transcript=" ".join(seg.words()),
                    wer=None,
                    partition="unassigned",
                )
            )
    rows.sort(key=lambda r: r.segment_id)
    write_manifest(args.out, rows, ADHOC_HASH)
    print(f"wrote {len(rows)} segments from {len(files)} streams "
          f"({residuals} residual tails)")
    return 0


def cmd_retrieve(args) -> int:
    books = read_books(args.books)
    if not books:
        print(f"no normalized books under {args.books}", file=sys.stderr)
        return 2
    candidates, _misses = rt.retrieve_candidates(
        books, read_manifest(args.pseudo), args.shard_size, args.stride, args.wer_threshold
    )
    write_tsv(args.out, CANDIDATE_COLUMNS, [candidate_row(c) for c in candidates], ADHOC_HASH)
    print(f"wrote {len(candidates)} candidates")
    return 0


def cmd_decontam(args) -> int:
    stopwords = dc.load_stopwords(args.stopwords) if args.stopwords else dc.default_stopwords()
    heldout_texts = []
    for manifest in args.heldout:
        heldout_texts.extend(r.transcript.split() for r in read_manifest(manifest))
    index = dc.build_heldout_index(heldout_texts, stopwords)
    heldout_titles = [t.split() for t in args.heldout_title]
    candidates = []
    for path in sorted(Path(args.books).glob("*.txt")):
        candidates.append(
            dc.LmBook(
                book_id=path.stem,
                title=tuple(path.stem.replace("_", " ").split()),
                tokens=tuple(path.read_text(encoding="utf-8").split()),
            )
        )
    kept, removed, report = dc.filter_corpus(
        candidates, heldout_titles, index,
        threshold=args.threshold, count_tokens=args.count_tokens,
    )
    write_tsv(
        args.report,
        ("book_id", "action", "reason", "rate"),
        [(r["book_id"], r["action"], r["reason"], f"{r['rate']:.6f}") for r in report],
        ADHOC_HASH,
    )
    print(f"kept {len(kept)}, removed {len(removed)} of {len(candidates)} books")
    return 0


def _read_corpus_sentences(path: Path) -> list[list[str]]:
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    sentences = []
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            words = line.split()
            if words:
                sentences.append(words)
    return sentences


def cmd_lm_train(args) -> int:
    sentences = _read_corpus_sentences(Path(args.infile))
    model = ngramlm.train(sentences, args.order)
    model.save(args.out)
    if args.arpa:
        model.to_arpa(args.arpa)
    print(f"trained order-{args.order} model on {len(sentences)} sentences "
          f"({len(model.vocab)} word vocabulary)")
    return 0


def cmd_lm_eval(args) -> int:
    model = ngramlm.NGramModel.load(args.model)
    dev_rows = read_manifest(args.dev)
    report = ngramlm.evaluate(
        model,
        (r.transcript.split() for r in dev_rows),
        oov_context=args.oov_context,
    )
    payload = {
        "order": report.order,
        "oov_rate": report.oov_rate,
        "perplexity": report.perplexity,
        "total_tokens": report.total_tokens,
        "oov_tokens": report.oov_tokens,
        "scored_tokens": report.scored_tokens,
        "oov_context": report.oov_context,
    }
    Path(args.report).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"order {report.order}: OOV {report.oov_rate:.2%}, "
          f"perplexity {report.perplexity:.2f}")
    return 0


def _config_from_args(args) -> PipelineConfig:
    if args.config:
        cfg = PipelineConfig.from_file(args.config)
    else:
        cfg = PipelineConfig()
    for attr, key in (
        ("seed", "seed"),
        ("dev_test_speakers", "dev_test_speakers_per_gender"),
        ("input_dir", "input_dir"),
        ("output_dir", "output_dir"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def cmd_split(args) -> int:
    cfg = _config_from_args(args)
    summary = stage_split(cfg)
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_limited(args) -> int:
    cfg = _config_from_args(args)
    summary = stage_limited(cfg)
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    if args.output:
        cfg.output_dir = args.output
    if args.input:
        cfg.input_dir = args.input
    report = run_pipeline(cfg, from_stage=args.from_stage, until_stage=args.until_stage)
    print(f"run complete: config_hash={report['config_hash']} "
          f"stages={len(report['stages'])}")
    return 0


def cmd_synth(args) -> int:
    from .synth import SynthParams, synth_corpus

    params = SynthParams(
        n_books=args.books,
        words_per_book=args.words_per_book,
        speakers_per_gender=args.speakers_per_gender,
        chapters_per_book=args.chapters_per_book,
        noise=args.noise,
    )
    summary = synth_corpus(args.out, args.seed, params)
    print(f"wrote {len(summary.book_ids)} books, {len(summary.chapter_ids)} chapters, "
          f"{len(summary.speaker_ids)} speakers under {summary.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpus-forge",
        description="Build verified speech-corpus releases from timed "
        "pseudo-labels and book texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize raw text against an orthography")
    p.add_argument("--orthography", help="orthography file (default: bundled)")
    p.add_argument("--language", default="en")
    p.add_argument("--in", dest="infile", required=True, help="input file or directory")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("segment", help="segment timed-token streams")
    p.add_argument("--min-sec", type=float, default=10.0)
    p.add_argument("--max-sec", type=float, default=20.0)
    p.add_argument("--keep-residual", action="store_true",
                   help="emit sub-minimum stream tails as segments")
    p.add_argument("--in", dest="indir", required=True, help="directory of .jsonl streams")
    p.add_argument("--out", required=True, help="output manifest TSV")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("retrieve", help="retrieve transcripts for pseudo-labels")
    p.add_argument("--books", required=True, help="directory of normalized book texts")
    p.add_argument("--pseudo", required=True, help="segments manifest TSV")
    p.add_argument("--shard-size", type=int, default=1250)
    p.add_argument("--stride", type=int, default=1000)
    p.add_argument("--wer-threshold", type=float, default=0.4)
    p.add_argument("--out", required=True, help="output candidates TSV")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("split", help="run the split stage of a pipeline directory")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--dev-test-speakers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input-dir", dest="input_dir", default=None)
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("limited", help="carve limited-supervision subsets")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input-dir", dest="input_dir", default=None)
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.set_defaults(func=cmd_limited)

    p = sub.add_parser("decontam", help="filter held-out leakage from LM books")
    p.add_argument("--heldout", nargs="+", required=True,
                   help="dev/test manifest TSVs")
    p.add_argument("--heldout-title", action="append", default=[],
                   help="held-out book title (repeatable)")
    p.add_argument("--books", required=True, help="directory of normalized book texts")
    p.add_argument("--stopwords", help="stopword file (default: bundled)")
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--count-tokens", action="store_true",
                   help="rate over running 5-grams instead of distinct")
    p.add_argument("--report", required=True, help="output report TSV")
    p.set_defaults(func=cmd_decontam)

    p = sub.add_parser("lm-train", help="train an n-gram language model")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--in", dest="infile", required=True,
                   help="corpus file or directory (one sentence per line)")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--arpa", help="also export ARPA text format here")
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("lm-eval", help="evaluate a model on dev transcripts")
    p.add_argument("--model", required=True)
    p.add_argument("--dev", required=True, help="dev manifest TSV")
    p.add_argument("--oov-context", choices=("break", "keep"), default="break")
    p.add_argument("--report", required=True, help="output report JSON")
    p.set_defaults(func=cmd_lm_eval)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--from-stage", choices=STAGES, default=None)
    p.add_argument("--until-stage", choices=STAGES, default=None)
    p.add_argument("--input", help="override input_dir")
    p.add_argument("--output", help="override output_dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic input corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--books", type=int, default=20)
    p.add_argument("--words-per-book", type=int, default=5000)
    p.add_argument("--speakers-per-gender", type=int, default=6)
    p.add_argument("--chapters-per-book", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProvenanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
