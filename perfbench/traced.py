"""Run one ``corpus-forge`` command with a span around every public function
and method of every ``corpus_forge`` module, then write the spans as JSON.

    python3 perfbench/traced.py --spans SPANS.json --run-id ID -- run --config CFG

Spans are kept in memory as ``[name, start, end, parent, run_id, counts]``
(``perf_counter`` seconds; ``parent`` is the index of the enclosing span or
-1) and written once the command returns. ``counts`` holds the work done at
that boundary (words, tokens, alignment cells, rows, n-grams, bytes), and
for pipeline stages the peak RSS so far plus the stage's numeric summary.
The wrappers live here, not in the program, so the program is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import pkgutil
import resource
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stage_counts(args, kwargs, result):
    counts = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if isinstance(result, dict):
        counts.update((k, v) for k, v in result.items() if type(v) in (int, float))
    return counts


def _ngrams(args, kwargs, model):
    return {"ngrams": sum(len(t) for t in model.tables)}


def _book_words(args, kwargs, result):
    return {"book_words": max(s.word_offset + len(s.words) for s in _arg(args, kwargs, 0, "shards"))}


def _rows(index, name):
    def count(args, kwargs, result):
        return {"rows": len(_arg(args, kwargs, index, name))}
    return count


# span name -> counts(args, kwargs, result); read after the span has ended
COUNTERS = {
    "textnorm.normalize_lines": lambda a, k, r: {"words": sum(len(line) for line in r)},
    "segmenter.read_token_stream": lambda a, k, r: {"tokens": len(r)},
    "segmenter.segment_stream": lambda a, k, r: {"tokens": len(_arg(a, k, 0, "tokens"))},
    "retrieval.build_index": _book_words,
    "retrieval.smith_waterman": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "query")) * len(_arg(a, k, 1, "reference"))
    },
    "manifest.read_manifest": lambda a, k, r: {"rows": len(r)},
    "manifest.read_tsv": lambda a, k, r: {"rows": len(r[1])},
    "manifest.write_manifest": _rows(1, "rows"),
    "manifest.write_tsv": _rows(2, "rows"),
    "ngramlm.train": _ngrams,
    "ngramlm.NGramModel.to_arpa": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.first_stage_epoch: float | None = None
        self.counter_errors: dict[str, str] = {}

    def wrap(self, name: str, fn):
        spans, stack, run_id, clock = self.spans, self.stack, self.run_id, time.perf_counter
        stage = name.startswith("pipeline.stage_")
        counter = _stage_counts if stage else COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stage and self.first_stage_epoch is None:
                self.first_stage_epoch = time.time()
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, kwargs, result)
                except Exception as exc:  # a count must never break the traced program
                    self.counter_errors.setdefault(name, repr(exc))
            return result

        return traced

    def install(self, package: str = "corpus_forge") -> None:
        """Wrap every public function and method defined in the package's
        modules, and rebind every module attribute and module-level dict
        entry that refers to a wrapped function."""
        pkg = importlib.import_module(package)
        modules = [
            importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
                elif inspect.isclass(value):
                    self._wrap_methods(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self.wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(name, value))

    def dump(self, path: str, exit_code: int) -> None:
        payload = {
            "run_id": self.run_id,
            "exit_code": exit_code,
            "first_stage_epoch": self.first_stage_epoch,
            "counter_errors": self.counter_errors,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- corpus-forge arguments")
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer(args.run_id)
    tracer.install()
    from corpus_forge import cli  # its ``main`` is the wrapped one now

    code = 1
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(args.spans, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
