"""Tests of the benchmark itself (about 15 s):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coxglue import homology, pairing, smith, verify  # noqa: E402
from spans import Tracer  # noqa: E402


def _arrays(workload, seed):
    return [(op.kind, op.mid, op.arr and op.arr.entries)
            for op in workloads.make_ops(workload, seed, 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert _arrays(workload, 3) == _arrays(workload, 3)
    assert _arrays(workload, 3) != _arrays(workload, 4)


def test_search_relabelings_put_each_copy_first():
    rng = workloads.random.Random(0)
    for row in range(8):
        perm = workloads._first_row(row, rng)
        assert sorted(perm) == list(range(8)) and perm[row] == 0


SITES = [(m, name) for m in (homology, pairing, smith, verify)
         for name in dir(m) if callable(getattr(m, name))]


def test_wrappers_are_restored():
    before = {(m.__name__, n): getattr(m, n) for m, n in SITES}
    t = Tracer()
    with t.installed(layers.op_plan):
        assert verify.face_cycles_proper is not before[("coxglue.verify",
                                                        "face_cycles_proper")]
    with pytest.raises(RuntimeError):
        with t.installed(layers.setup_plan):
            raise RuntimeError("interrupted")
    after = {(m.__name__, n): getattr(m, n) for m, n in SITES}
    assert after == before


def test_emitted_metrics_are_declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    op = workloads.Op("solve", 1, None)
    assert run.end_to_end([(op, 0.5, 1, [])], [0.1], 50.0).keys() == e2e.keys()
    assert run.END_TO_END == e2e
    t = Tracer()
    emitted = {**layers.setup_metrics(t, 0.1),
               **layers.op_metrics(t, 0, [], [])}
    assert emitted.keys() == per_layer.keys() == layers.PER_LAYER.keys()
    assert layers.PER_LAYER == per_layer


def test_times_are_converted_to_the_nominal_speed():
    clock = run.Clock()
    clock._burst = lambda: 2 * run.REF_NOMINAL_S  # a machine at half speed
    clock.mark()
    clock.lap()
    time.sleep(0.01)
    clock.mark()
    assert clock.raw_s >= 0.01
    assert clock.factor() == pytest.approx(0.5)
    units = {"a": "s", "b": "s/op", "c": "1/s", "d": "count/op"}
    assert run.scaled(dict.fromkeys(units, 4.0), units, 0.5) == \
        {"a": 2.0, "b": 2.0, "c": 8.0, "d": 4.0}


def test_self_times_account_for_the_operation():
    run.cold_setup("search")
    ops = [op for op in workloads.make_ops("search", 2, 1) if op.mid == 9][:2]
    t = Tracer()
    with t.installed(layers.op_plan):
        records, op_spans = run.run_ops(ops, run.Clock(t), t)
    assert not any(problems for *_, problems in records)
    m = layers.op_metrics(t, 0, op_spans, [r[1] for r in records])
    wall = sum(t.spans[i][2] - t.spans[i][1] for i in op_spans)
    parts = [v for k, v in m.items() if layers.OP_METRICS[k] == "s/op"]
    assert sum(parts) * len(ops) == pytest.approx(wall)
    assert m["verify.proper_calls"] >= 1 and m["pairing.search_nodes"] > 0


def test_wrong_expectations_raise_the_error_rate():
    run.cold_setup("search")
    solve = next(op for op in workloads.make_ops("search", 5, 1)
                 if op.mid == 9)
    m9 = pairing.published_pairing(9)
    spliced = pairing.EightPPairing(
        solve.arr.entries[:1] + pairing.published_pairing(5).entries[1:])
    wrong_target = workloads.Op("solve", 9, spliced, solve.expect)
    mutant = workloads.Op(
        "certify", 9, pairing.mutated_pairing(m9, workloads.random.Random(0)),
        solve.expect)
    wrong_code = workloads.Op("certify", 9, m9,
                              dict(solve.expect, code=solve.expect["code"][::-1]))
    ops = [solve, wrong_target, mutant, wrong_code]
    records, _ = run.run_ops(ops, run.Clock())
    failed = [op for op, *_, problems in records if problems]
    assert failed == ops[1:]
