"""Compare two commits on the coxglue benchmark by alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --seed 2701 --out BENCH_name.json

Ten pairs: pair i runs `perfbench/run.py --workload W --seed (seed + i)`
once on each side, for each workload and with the run length that
BENCHMARK.json declares: the parent first when i is even, the change
first when i is odd.  Every run gets a fresh copy of its side's
committed `src/`, `perfbench/` and `BENCHMARK.json` (`git archive`), in
a temporary directory that is removed afterwards.  Then five alternating
traced pairs (`--trace 1`) of the certify workload on seed 501 give the
medians of the per-layer times in LAYERS: seconds per operation, and per
run for `trace.setup_s` and the four set-up builders it is made of.

The output file holds the settings, every run's result, and a summary
per workload and end-to-end metric: the quartiles and median of each
side and the number of pairs the change won, with the failed and
attempted operations of each side.  Beside the summary, a verdict reads
it against BENCHMARK.json: per metric the pairs won, the change of the
median, the parent's quartile distance, whether the change stays within
the metric's bound, and whether a claimed gain would be met (at least 9
of 10 pairs won and a median better by more than that distance).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("src", "perfbench", "BENCHMARK.json")
PAIRS = 10
CLAIM_SHARE = 0.9  # of the pairs, that a claimed gain must win
TRACED_PAIRS = 5
TRACED_SEED = 501
LAYERS = ("trace.op_s_p50", "homology.homology_s", "homology.complex_s",
          "verify.proper_s", "trace.uncovered_s", "trace.setup_s",
          "polytope.face_lattice_s", "homology.truncated_cells_s",
          "pairing.standard_context_s", "verify.lattice_context_s")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_once(commit: str, workload: str, seed: int, seconds: float,
             trace: int, workdir: str) -> dict:
    """One benchmark run in a fresh copy of the commit's files."""
    where = tempfile.mkdtemp(prefix="side-", dir=workdir)
    try:
        archive = subprocess.run(["git", "archive", commit, *FILES], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", where], input=archive, check=True)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=where, capture_output=True, text=True)
    finally:
        shutil.rmtree(where)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": out.returncode,
            "correct": result.get("correct", False),
            "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0),
            "metrics": {k: v["value"]
                        for k, v in result.get("metrics", {}).items()}}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles and the pairs the
    change won; and each side's failed and attempted operations."""
    summary: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: sorted((r for r in mine if r["side"] == s),
                          key=lambda r: r["pair"])
                for s in ("parent", "change")}
        out = {}
        for name, way in better.items():
            vals = {s: [r["metrics"][name] for r in rs]
                    for s, rs in side.items()}
            sign = -1 if way == "lower" else 1
            won = sum(sign * (c - p) > 0
                      for p, c in zip(vals["parent"], vals["change"]))
            out[name] = {"better": way,
                         **{s: quartiles(v) for s, v in vals.items()},
                         "change_better_pairs": won,
                         "pairs": len(vals["parent"])}
        for key, field in (("ops_failed", "failed"),
                           ("ops_attempted", "attempted")):
            out[key] = {s: sum(r[field] for r in rs)
                        for s, rs in side.items()}
        summary[workload] = out
    return summary


def verdict(summary: dict, end_to_end: list[dict]) -> dict:
    """The summary read against the end-to-end metrics of BENCHMARK.json.
    A median change is the change's median less the parent's; it stays
    within the bound unless it is worse than the parent's median by more
    than the bound's share of it.  A claim is met when the change won at
    least CLAIM_SHARE of the pairs and its median is better by more than
    the parent's quartile distance."""
    out: dict = {}
    for workload, got in summary.items():
        out[workload] = {}
        for metric in end_to_end:
            s = got[metric["name"]]
            parent, change = s["parent"]["median"], s["change"]["median"]
            gain = (change - parent) * (-1 if s["better"] == "lower" else 1)
            spread = s["parent"]["q3"] - s["parent"]["q1"]
            won = s["change_better_pairs"]
            out[workload][metric["name"]] = {
                "pairs_won": won, "pairs": s["pairs"],
                "median_change": change - parent,
                "parent_quartile_distance": spread,
                "within_bound": -gain <= metric["bound"] * abs(parent),
                "claim_met": won >= CLAIM_SHARE * s["pairs"] and gain > spread}
    return out


def alternate(sides: dict[str, str], workload: str, seeds: list[int],
              seconds: float, trace: int, workdir: str) -> list[dict]:
    runs = []
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for n, side in enumerate(order):
            run = run_once(sides[side], workload, seed, seconds, trace,
                           workdir)
            run.update(side=side, pair=pair, ran_first=n == 0)
            print(f"{workload} pair {pair} seed {seed} {side}: exit "
                  f"{run['exit_code']}, failed {run['failed']}, "
                  f"{json.dumps(run['metrics'])[:200]}", file=sys.stderr)
            runs.append(run)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {side: git("rev-parse", "--verify", rev + "^{commit}")
             for side, rev in (("parent", args.parent),
                               ("change", args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed, args.seed + PAIRS))
    workdir = tempfile.mkdtemp()
    try:
        runs = []
        for workload in workloads:
            runs += alternate(sides, workload, seeds, seconds, 0, workdir)
        traced = alternate(sides, "certify", [TRACED_SEED] * TRACED_PAIRS,
                           seconds, 1, workdir)
    finally:
        shutil.rmtree(workdir)
    result = {
        "what": git("log", "-1", "--format=%s", sides["change"]),
        "parent_commit": sides["parent"],
        "change_commit": sides["change"],
        "command": f"python3 perfbench/run.py --workload "
                   f"{{{','.join(workloads)}}} --seed N --seconds "
                   f"{seconds} --trace {{0,1}}",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"{platform.system()}, Python {platform.python_version()}"
                   f"; times at the benchmark's nominal speed "
                   f"(perfbench/README.md, Speed)",
        "method": f"{PAIRS} alternating pairs per workload: pair i runs "
                  f"the parent first when i is even and the change first "
                  f"when i is odd; each run in a fresh copy of its side's "
                  f"src/, perfbench/ and BENCHMARK.json; traced certify: "
                  f"{TRACED_PAIRS} alternating pairs on seed {TRACED_SEED} "
                  f"(scripts/bench_pairs.py)",
        "seeds": {w: seeds for w in workloads},
        "summary": (summary := summarize(
            runs, {m["name"]: m["better"] for m in spec["end_to_end"]})),
        "verdict": verdict(summary, spec["end_to_end"]),
        "traced_certify_s_per_op": {
            name: {s: {"runs": (v := [r["metrics"][name] for r in traced
                                      if r["side"] == s]),
                       "median": statistics.median(v)}
                   for s in ("parent", "change")}
            for name in LAYERS},
        "runs": runs,
        "traced_runs": traced,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    bad = [r for r in runs + traced if r["exit_code"] or not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
