"""Per-layer metrics from the spans of one traced run.

Each module of ``src/corpus_forge`` is one layer; a span is named
``<module>.<function>`` or ``<module>.<Class>.<method>``. For every span name
this computes the call count, the busy time (the union of its outermost
spans, so recursion is not counted twice), the self time (each span's
duration minus the part of it that its child spans cover) and the summed
work counts. ``PER_LAYER`` lists the metrics reported by name, in the order
``BENCHMARK.json`` declares them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

# the program's stage order, spelled out because BENCHMARK.json fixes the
# metric names built from it
STAGES = (
    "normalize", "segment", "retrieve", "postprocess", "filter",
    "split", "limited", "decontam", "lm_train", "lm_eval",
)


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    rss_kb: int = 0


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    A span is ``[name, start, end, parent, ...]`` with ``parent`` the index
    of the enclosing span or -1; parents come before their children.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered(children.get(i, []), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def span_stats(spans: list[list]) -> dict[str, Stat]:
    stats: dict[str, Stat] = defaultdict(Stat)
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        name, start, end, parent = span[:4]
        st = stats[name]
        st.calls += 1
        st.self_s += self_s
        outermost = True
        while parent >= 0:
            if spans[parent][0] == name:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            st.busy_s += end - start
        for key, value in (span[5] or {}).items():
            if key == "rss_kb":
                st.rss_kb = max(st.rss_kb, value)
            else:
                st.counts[key] += value
    return stats


def _rate(st: Stat, key: str | None, scale: float) -> float:
    """busy time per unit of work (per call when ``key`` is None); 0 when
    the layer did no work in this run."""
    work = st.calls if key is None else st.counts.get(key, 0)
    return scale * st.busy_s / work if work else 0.0


def _fn(span: str, stat: str, unit: str, key: str | None = None, scale: float = 1.0):
    get = {
        "calls": lambda st: st.calls,
        "busy_s": lambda st: st.busy_s,
        "self_s": lambda st: st.self_s,
        "count": lambda st: st.counts.get(key, 0),
        "rate": lambda st: _rate(st, key, scale),
    }[stat]
    return unit, "lower", lambda stats, extra: get(stats[span])


def _metrics_table() -> dict[str, tuple]:
    t: dict[str, tuple] = {
        "pipeline.startup_s": ("s", "lower", lambda stats, extra: extra["startup_s"]),
    }
    for stage in STAGES:
        span = f"pipeline.stage_{stage}"
        t[f"pipeline.{stage}.wall_s"] = _fn(span, "busy_s", "s")
        t[f"pipeline.{stage}.rss_mb"] = (
            "MiB", "lower", lambda stats, extra, span=span: stats[span].rss_kb / 1024
        )
    t.update({
        "textnorm.normalize_lines.busy_s": _fn("textnorm.normalize_lines", "busy_s", "s"),
        "textnorm.normalize_lines.us_per_word":
            _fn("textnorm.normalize_lines", "rate", "us", "words", 1e6),
        "segmenter.read_token_stream.busy_s": _fn("segmenter.read_token_stream", "busy_s", "s"),
        "segmenter.segment_stream.calls": _fn("segmenter.segment_stream", "calls", "count"),
        "segmenter.segment_stream.busy_s": _fn("segmenter.segment_stream", "busy_s", "s"),
        "segmenter.segment_stream.us_per_token":
            _fn("segmenter.segment_stream", "rate", "us", "tokens", 1e6),
        "retrieval.build_index.busy_s": _fn("retrieval.build_index", "busy_s", "s"),
        "retrieval.build_index.us_per_book_word":
            _fn("retrieval.build_index", "rate", "us", "book_words", 1e6),
        "retrieval.retrieve.calls": _fn("retrieval.retrieve", "calls", "count"),
        "retrieval.retrieve.us_per_call": _fn("retrieval.retrieve", "rate", "us", None, 1e6),
        "retrieval.retrieve_transcript.self_s": _fn("retrieval.retrieve_transcript", "self_s", "s"),
        "retrieval.smith_waterman.calls": _fn("retrieval.smith_waterman", "calls", "count"),
        "retrieval.smith_waterman.busy_s": _fn("retrieval.smith_waterman", "busy_s", "s"),
        "retrieval.smith_waterman.cells": _fn("retrieval.smith_waterman", "count", "count", "cells"),
        "retrieval.smith_waterman.ns_per_cell":
            _fn("retrieval.smith_waterman", "rate", "ns", "cells", 1e9),
        "retrieval.wer.calls": _fn("retrieval.wer", "calls", "count"),
        "retrieval.wer.busy_s": _fn("retrieval.wer", "busy_s", "s"),
        "retrieval.replace_numbers.busy_s": _fn("retrieval.replace_numbers", "busy_s", "s"),
        "retrieval.fix_rare_wordforms.busy_s": _fn("retrieval.fix_rare_wordforms", "busy_s", "s"),
        "retrieval.build_book_frequencies.busy_s":
            _fn("retrieval.build_book_frequencies", "busy_s", "s"),
        "retrieval.unmatched": _fn("pipeline.stage_retrieve", "count", "count", "unmatched"),
        "retrieval.accept_ratio": ("share", "higher", _accept_ratio),
    })
    for fn in ("read_manifest", "write_manifest", "read_tsv", "write_tsv"):
        span = f"manifest.{fn}"
        t[f"{span}.calls"] = _fn(span, "calls", "count")
        t[f"{span}.busy_s"] = _fn(span, "busy_s", "s")
        t[f"{span}.rows"] = _fn(span, "count", "count", "rows")
    for span in (
        "splitter.validate_books", "splitter.partition_speakers",
        "splitter.enforce_chapter_exclusivity", "splitter.make_limited_supervision",
        "decontam.build_heldout_index", "decontam.filter_corpus",
    ):
        t[f"{span}.busy_s"] = _fn(span, "busy_s", "s")
    t.update({
        "ngramlm.train.busy_s": _fn("ngramlm.train", "busy_s", "s"),
        "ngramlm.train.ngrams": _fn("ngramlm.train", "count", "count", "ngrams"),
        "ngramlm.NGramModel.save.busy_s": _fn("ngramlm.NGramModel.save", "busy_s", "s"),
        "ngramlm.NGramModel.to_arpa.busy_s": _fn("ngramlm.NGramModel.to_arpa", "busy_s", "s"),
        "ngramlm.NGramModel.to_arpa.bytes":
            _fn("ngramlm.NGramModel.to_arpa", "count", "B", "bytes"),
        "ngramlm.NGramModel.load.busy_s": _fn("ngramlm.NGramModel.load", "busy_s", "s"),
        "ngramlm.evaluate.busy_s": _fn("ngramlm.evaluate", "busy_s", "s"),
        "trace.overhead_s": ("s", "lower", lambda stats, extra: extra["overhead_s"]),
    })
    return t


def _accept_ratio(stats: dict[str, Stat], extra: dict) -> float:
    """Accepted candidates over segments that reached retrieval."""
    retrieved = stats["pipeline.stage_retrieve"].counts
    segments = retrieved.get("candidates", 0) + retrieved.get("unmatched", 0)
    accepted = stats["pipeline.stage_filter"].counts.get("accepted", 0)
    return accepted / segments if segments else 0.0


_TABLE = _metrics_table()
# (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them
PER_LAYER = [(name, unit, better) for name, (unit, better, _) in _TABLE.items()]


def layer_metrics(spans: list[list], startup_s: float, overhead_s: float) -> dict[str, dict]:
    """Every PER_LAYER metric as ``{"value": ..., "unit": ...}``."""
    stats = span_stats(spans)
    extra = {"startup_s": startup_s, "overhead_s": overhead_s}
    return {
        name: {"value": float(get(stats, extra)), "unit": unit}
        for name, (unit, _better, get) in _TABLE.items()
    }
