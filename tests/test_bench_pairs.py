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
                                  "BENCH_one_elimination.json"])
def test_summary_of_the_recorded_runs(name):
    record = json.loads((ROOT / name).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert _bench_pairs().summarize(record["runs"], better) == \
        record["summary"]
