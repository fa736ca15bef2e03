"""Self time, busy time and the metric lists declared in BENCHMARK.json."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

# root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9] (which
# holds a nested a [6, 7]); names repeat so busy time must not double count
SPANS = [
    ["root", 0.0, 10.0, -1, "r", None],
    ["a", 1.0, 4.0, 0, "r", {"rows": 2}],
    ["b", 2.0, 3.0, 1, "r", None],
    ["a", 5.0, 9.0, 0, "r", {"rows": 3}],
    ["a", 6.0, 7.0, 3, "r", None],
]


def test_self_times_of_hand_built_tree():
    assert layers.self_times(SPANS) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_span_stats_of_hand_built_tree():
    stats = layers.span_stats(SPANS)
    a = stats["a"]
    assert (a.calls, a.busy_s, a.self_s, a.counts["rows"]) == (3, 7.0, 6.0, 5)
    assert (stats["root"].busy_s, stats["root"].self_s) == (10.0, 3.0)


def test_covered_merges_overlaps_and_clips():
    assert layers.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7
    assert layers.covered([], 0, 10) == 0


def test_layer_metrics_report_every_declared_metric():
    metrics = layers.layer_metrics(SPANS, startup_s=0.5, overhead_s=0.25)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["pipeline.startup_s"]["value"] == 0.5
    assert metrics["trace.overhead_s"]["value"] == 0.25
    assert metrics["retrieval.smith_waterman.calls"]["value"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert len(layers.PER_LAYER) <= 128

