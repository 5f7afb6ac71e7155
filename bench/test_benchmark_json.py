"""BENCHMARK.json must name exactly the metrics that bench/run.py prints."""

import json
import os

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_metric_lists_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [m["unit"] for m in doc["per_layer"]] == list(spans.PER_LAYER.values())
    assert {m["name"] for m in doc["end_to_end"]} == {
        "items_per_s", "item_ms_p50", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in doc["workloads"]] == ["verify-matrix", "root-box", "cli-session"]
