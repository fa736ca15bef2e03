"""corpus-forge command line.

``run`` executes the pipeline from a config file, from ``--from-stage`` to
``--until-stage``. Every ``STAGE_TABLE`` name is also a subcommand, taking
the options of ``run``, that runs that one stage on the run directory, as
``run --from-stage <name> --until-stage <name>`` does: it checks the
provenance of every stage it reads and writes the stage's outputs and
``report.json``. ``synth`` writes a synthetic input corpus. Exit codes: 0
success, 2 validation/config/input failure, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import PipelineConfig
from .pipeline import STAGE_TABLE, StageError, run_pipeline


def cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    if args.input_dir is not None:
        cfg.input_dir = args.input_dir
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
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


def _run_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--input", dest="input_dir", help="override input_dir")
    p.add_argument("--output", dest="output_dir", help="override output_dir")
    p.set_defaults(func=cmd_run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpus-forge",
        description="Build verified speech-corpus releases from timed "
        "pseudo-labels and book texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _run_parser(sub, "run", "run the pipeline from a config file")
    p.add_argument("--from-stage", choices=list(STAGE_TABLE), default=None)
    p.add_argument("--until-stage", choices=list(STAGE_TABLE), default=None)
    for name in STAGE_TABLE:
        p = _run_parser(sub, name, f"run the {name} stage alone")
        p.set_defaults(from_stage=name, until_stage=name)

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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # config, input and provenance faults
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
