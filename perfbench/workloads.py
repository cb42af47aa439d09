"""Seeded inputs, the operations that run them through coxglue's public
functions, and the oracle that checks each result against the published
records in coxglue.tables.

Every run is a fixed number of rounds with the same make-up, so runs with
different seeds, and the same seed on two commits, do the same kind and
amount of work:

certify  one round certifies gluings m5, m7 and m8 under fresh copy
         relabelings: the three cheapest, of both extension classes.
         m5 and m7 cost about the same, so the median of a round does
         not depend on the order.  All nine take about 110 s, more than
         a run can spend.
search   one round rediscovers m1 once and m9 twice from the first row,
         each time with each of their eight copies as the first copy and
         the other copies relabeled afresh; a run starts with one
         fixed-budget unconstrained probe.  The search tree depends
         mostly on which copy comes first (m1 takes 10k or 18k nodes, m9
         5.2k or 5.4k), so every round covers all eight.  With m9 twice,
         the median of a round falls inside the group of m9 searches of
         equal size, not between two groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from coxglue import homology, pairing, tables, verify

WORKLOADS = ("certify", "search")
CERTIFY_ROUND = (5, 7, 8)
SEARCH_ROUND = (1, 9, 9)
# published extension split: the order-8 extension is certified torsion
# free for these manifolds and inconclusive for the others
EXTENSION_CERTIFIED = frozenset({1, 3, 4, 5, 6})
PROBE_NODES = 10_000
SEARCH_NODE_CAP = 10 ** 6


@dataclass
class Op:
    """One operation: its kind, the manifold it derives from, the input
    array and the expected results read from coxglue.tables."""

    kind: str
    mid: int
    arr: pairing.EightPPairing | None
    expect: dict = field(default_factory=dict)


# -- set-up ---------------------------------------------------------------


def build_caches(workload: str) -> None:
    """Fill the lru caches the workload's operations read.  build_q(6),
    which development rebuilds on every call, is deliberately not
    prewarmed."""
    tables.manifold_records()
    pairing.standard_context()
    verify.lattice_context()
    if workload == "certify":
        homology.truncated_cells()
    elif workload == "search":
        pairing.search_pairings(None, node_budget=0)


# -- inputs ----------------------------------------------------------------


def _expected(mid: int) -> dict:
    rec = tables.manifold_record(mid)
    return {
        "code": rec.code,
        "orientable": rec.orientable,
        "extension": "certified" if mid in EXTENSION_CERTIFIED
        else "inconclusive",
        "euler": Fraction(-1),
        "homology": tuple(rec.homology),
        "cusps": rec.cusps,
        "cusp_homology": tuple(sorted(rec.cusp_homology)),
    }


def _relabeled(arr: pairing.EightPPairing, rng: random.Random):
    return arr.relabeled(rng.sample(range(8), 8))


def _first_row(row: int, rng: random.Random) -> list[int]:
    """A relabeling that makes copy `row` the first copy."""
    rest = rng.sample(range(1, 8), 7)
    return rest[:row] + [0] + rest[row:]


def make_ops(workload: str, seed: int, n_rounds: int) -> list[Op]:
    """Inputs for one run, all derived from the seed: the search probe,
    then n_rounds rounds, each in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    published = {mid: pairing.published_pairing(mid) for mid in range(1, 10)}
    expect = {mid: _expected(mid) for mid in range(1, 10)}
    ops: list[Op] = []
    if workload == "search":
        ops.append(Op("probe", 0, None, {"nodes": PROBE_NODES}))
    for _ in range(n_rounds):
        if workload == "certify":
            round_ = [Op("certify", m, _relabeled(published[m], rng), expect[m])
                      for m in CERTIFY_ROUND]
        else:
            round_ = [Op("solve", m, published[m].relabeled(_first_row(r, rng)),
                         expect[m])
                      for m in SEARCH_ROUND for r in range(8)]
        rng.shuffle(round_)
        ops += round_
    return ops


# -- operations and oracle -------------------------------------------------


def run_op(op: Op, mark=lambda: None) -> tuple[list[str], int]:
    """Run one operation; returns the oracle's list of problems (empty
    when every output is as published) and the units of work done:
    one per certification, the nodes of a search.  A certification calls mark() between its stages, so that
    the benchmark can time it in parts."""
    if op.kind == "certify":
        return _certify(op, mark)
    if op.kind == "solve":
        return _solve(op)
    if op.kind == "probe":
        return _probe(op)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _certify(op: Op, mark) -> tuple[list[str], int]:
    want = op.expect
    cert = verify.certify_manifold(op.arr, want["code"])
    mark()
    cx = homology.build_quotient_complex(op.arr)
    mark()
    groups = homology.homology_groups(cx)
    mark()
    sections = homology.cusp_sections(cx)
    got = {
        "code": cert.code,
        "proper": cert.proper.proper,
        "orientable": cert.orientable,
        "torsion_full": cert.torsion_full.h_torsion_free,
        "torsion_reduced": cert.torsion_reduced.h_torsion_free,
        "extension": cert.extension["status"],
        "euler": cert.euler_characteristic,
        "homology": tuple(groups[d].encode() for d in range(1, 6)),
        "cusps": len(sections),
        "cusp_homology": tuple(sorted(
            tuple(sec[d].encode(powers=(2, 4)) for d in range(1, 6))
            for sec in sections)),
    }
    want = dict(want, proper=True, torsion_full=True, torsion_reduced=True)
    return ([f"m{op.mid} {key}: got {got[key]!r}, want {want[key]!r}"
             for key in got if got[key] != want[key]], 1)


def _solve(op: Op) -> tuple[list[str], int]:
    fixed = {(0, j): op.arr.entries[0][j] for j in range(27)}
    res = pairing.search_pairings(fixed, node_budget=SEARCH_NODE_CAP)
    problems = []
    if not res.complete:
        problems.append(f"m{op.mid}: search incomplete after "
                        f"{res.nodes_used} nodes")
    if all(s.entries != op.arr.entries for s in res.solutions):
        problems.append(f"m{op.mid}: target not among "
                        f"{len(res.solutions)} solutions")
    return problems, res.nodes_used


def _probe(op: Op) -> tuple[list[str], int]:
    want = op.expect["nodes"]
    res = pairing.search_pairings(None, node_budget=want)
    if res.nodes_used != want or not res.budget_exhausted:
        return [f"probe used {res.nodes_used} of {want} nodes, exhausted="
                f"{res.budget_exhausted}"], res.nodes_used
    return [], res.nodes_used
