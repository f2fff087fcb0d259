"""BENCHMARK.json, the layer map and the code name the same metrics."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.layers import metric_units  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))


def test_per_layer_list_matches_the_traced_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metric_units().items())


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOAD_NAMES


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_layer_map_names_only_known_metrics_and_workloads():
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    workloads = set(WORKLOAD_NAMES)

    def workloads_in(on):
        return set(sum(on.values(), [])) if isinstance(on, dict) else set(on)

    for row in LAYER_MAP["map"]:
        assert set(row["metrics"]) <= layer_names, row["layer"]
        assert set(row["moves"]) <= e2e_names
        assert workloads_in(row["on"]) <= workloads
    for change in LAYER_MAP["predictions"]:
        for workload, metrics in change["moves"].items():
            assert workload in workloads and set(metrics) <= e2e_names
        assert set(change["layer_evidence"]) <= layer_names
        assert set(change.get("unchanged", [])) | set(change.get("not_worse", [])) <= workloads
