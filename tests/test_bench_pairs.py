"""scripts/bench_pairs.py, which runs alternating benchmark pairs, writes
the summary that the committed BENCH_*.json files record from their
runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["BENCH_morse_homology.json",
                                  "BENCH_class_roots.json",
                                  "BENCH_cusp_morse.json",
                                  "BENCH_setup_bound.json",
                                  "BENCH_side_glue.json",
                                  "BENCH_search_bookkeeping.json",
                                  "BENCH_cycle_pass.json",
                                  "BENCH_one_elimination.json",
                                  "BENCH_leaf_classes.json",
                                  "BENCH_search_module.json",
                                  "BENCH_dead_checks.json",
                                  "BENCH_gf2_faces.json"])
def test_summary_of_the_recorded_runs(name):
    record = json.loads((ROOT / name).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bp = _bench_pairs()
    assert bp.summarize(record["runs"], better) == record["summary"]
    if "verdict" in record:  # written beside the summary since it exists
        assert bp.verdict(record["summary"], spec["end_to_end"]) == \
            record["verdict"]


def _synthetic_runs(values: dict) -> list[dict]:
    """Ten pairs of one workload: values[metric] = (parent's, change's)
    ten values, in pair order."""
    runs = []
    for pair in range(10):
        for n, side in enumerate(("parent", "change")):
            runs.append({"workload": "search", "side": side, "pair": pair,
                         "failed": 0, "attempted": 1,
                         "metrics": {m: v[n][pair]
                                     for m, v in values.items()}})
    return runs


def test_verdict_reads_the_summary_against_the_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    flat = [1.0] * 10
    values = {
        # 9 of 10 pairs won, the median 9 better against a spread of 4.5
        "throughput": ([100 + i for i in range(10)],
                       [110 + i for i in range(9)] + [100]),
        # better in the median, but by less than the parent's spread
        "op_s_p50": ([1.0 + i / 10 for i in range(10)],
                     [0.95 + i / 10 for i in range(10)]),
        # 30% worse: outside a bound of 0.25
        "setup_s": (flat, [1.3] * 10),
        # 10% worse: inside a bound of 0.2, and no claim
        "peak_rss_mb": (flat, [1.1] * 10),
    }
    bp = _bench_pairs()
    runs = _synthetic_runs(values)
    got = bp.verdict(bp.summarize(runs, better), spec["end_to_end"])["search"]
    assert got["throughput"] == {
        "pairs_won": 9, "pairs": 10, "median_change": 9.0,
        "parent_quartile_distance": 4.5, "within_bound": True,
        "claim_met": True}
    assert got["op_s_p50"]["pairs_won"] == 10
    assert got["op_s_p50"]["median_change"] == pytest.approx(-0.05)
    assert not got["op_s_p50"]["claim_met"]
    assert got["op_s_p50"]["within_bound"]
    assert not got["setup_s"]["within_bound"]
    assert got["setup_s"]["pairs_won"] == 0
    assert got["peak_rss_mb"]["within_bound"]
    assert not got["peak_rss_mb"]["claim_met"]
    # eight wins fall short of a claim, whatever the median
    values["throughput"][1][0] = 90
    got = bp.verdict(bp.summarize(_synthetic_runs(values), better),
                     spec["end_to_end"])["search"]
    assert got["throughput"]["pairs_won"] == 8
    assert not got["throughput"]["claim_met"]
