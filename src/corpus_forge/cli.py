"""corpus-forge command line.

Standalone subcommands (normalize, segment, retrieve, decontam, lm-train,
lm-eval) operate on explicit files through the per-item steps that the
pipeline stages use. The split and limited subcommands run their stage
through the pipeline's stage runner against an existing run directory, since
their inputs are the joined pipeline state, so they check the provenance of
every stage they read. ``run`` executes the whole pipeline from a config
file. Exit codes: 0 success, 2 validation/config failure, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import decontam as dc
from . import ngramlm
from . import retrieval as rt
from .config import ConfigError, PipelineConfig
from .manifest import (
    ProvenanceError,
    json_text,
    read_manifest,
    write_candidates,
    write_json,
    write_manifest,
)
from .pipeline import (
    STAGE_TABLE,
    StageError,
    normalize_file,
    read_books,
    read_sentences,
    run_pipeline,
    run_stage,
    segment_chapter,
)
from .textnorm import load_orthography

ADHOC_HASH = "adhoc"  # provenance stamp for standalone (non-run) invocations


def cmd_normalize(args) -> int:
    orth = load_orthography(args.orthography, args.language)
    src = Path(args.infile)
    dst = Path(args.outfile)
    pairs = [(src, dst)]
    if src.is_dir():
        dst.mkdir(parents=True, exist_ok=True)
        pairs = [(p, dst / p.name) for p in sorted(src.glob("*.txt"))]
        if not pairs:
            print(f"no .txt files under {src}", file=sys.stderr)
            return 2
    for inp, outp in pairs:
        normalize_file(inp, outp, orth)
    return 0


def cmd_segment(args) -> int:
    files = sorted(Path(args.indir).glob("*.jsonl"))
    if not files:
        print(f"no .jsonl token streams under {args.indir}", file=sys.stderr)
        return 2
    rows, residuals = [], 0
    for path in files:
        chapter_rows, result, _stream = segment_chapter(
            path, int(args.min_sec * 1000), int(args.max_sec * 1000), args.keep_residual,
            {}, {}, {},
        )
        rows += chapter_rows
        residuals += result.residual is not None
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
    write_candidates(args.out, candidates, ADHOC_HASH)
    print(f"wrote {len(candidates)} candidates")
    return 0


def cmd_decontam(args) -> int:
    stopwords = dc.stopword_list(args.stopwords)
    heldout_texts = []
    for manifest in args.heldout:
        heldout_texts.extend(r.transcript.split() for r in read_manifest(manifest))
    index = dc.build_heldout_index(heldout_texts, stopwords)
    heldout_titles = [t.split() for t in args.heldout_title]
    candidates = [
        dc.LmBook(book_id=bid, title=tuple(bid.replace("_", " ").split()), tokens=tuple(words))
        for bid, words in read_books(args.books).items()
    ]
    kept, removed, report = dc.filter_corpus(
        candidates, heldout_titles, index,
        threshold=args.threshold, count_tokens=args.count_tokens,
    )
    dc.write_report(args.report, report, ADHOC_HASH)
    print(f"kept {len(kept)}, removed {len(removed)} of {len(candidates)} books")
    return 0


def cmd_lm_train(args) -> int:
    src = Path(args.infile)
    sentences = read_sentences(sorted(src.glob("*.txt")) if src.is_dir() else [src])
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
    write_json(args.report, asdict(report))
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


def cmd_stage(args) -> int:
    """``split`` or ``limited``: one stage of an existing run directory."""
    summary = run_stage(_config_from_args(args), args.command)
    sys.stdout.write(json_text(summary))
    return 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
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

    for name, help_text in (("split", "run the split stage of a pipeline directory"),
                            ("limited", "carve limited-supervision subsets")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="pipeline config file")
        if name == "split":
            p.add_argument("--dev-test-speakers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--input-dir", dest="input_dir", default=None)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        p.set_defaults(func=cmd_stage)

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
    p.add_argument("--from-stage", choices=list(STAGE_TABLE), default=None)
    p.add_argument("--until-stage", choices=list(STAGE_TABLE), default=None)
    p.add_argument("--input", dest="input_dir", help="override input_dir")
    p.add_argument("--output", dest="output_dir", help="override output_dir")
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
