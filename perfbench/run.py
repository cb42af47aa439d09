"""coxglue benchmark: one serial caller runs seeded operations in a closed
loop (the next operation starts when the previous one has finished) and
checks every result against the published records.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run; the last line of standard output is
one JSON object with the result.  Workloads, metrics, the layers they
map to and the speed normalisation are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Seconds one round takes at the nominal speed.  A run does the whole
# rounds that fill --seconds at that speed, so its work depends neither
# on how fast the machine happens to be nor on how fast coxglue is.
ROUND_S = {"certify": 28.0, "search": 16.0}
SETUP_SAMPLES = 5  # cold set-ups per run, each in a fresh interpreter
REF_BURST = 5  # reference-kernel timings at each mark
# Median time of reference_kernel() on the two-core 2.0 GHz Xeon virtual
# machine the figures in perfbench/README.md come from; it defines the
# nominal speed.
REF_NOMINAL_S = 0.0035

END_TO_END = {
    "op_s_p50": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def reference_kernel() -> int:
    """A fixed piece of pure-Python work of the kind coxglue does
    (integer arithmetic, tuples and dict lookups), timed to track the
    speed of the machine."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(8000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 1009
        acc += table[key] // (1 + i % 7)
    return acc


class Clock:
    """Times work at the nominal speed.

    The host's CPU speed switches between states that differ by up to a
    factor of two, every few seconds: one search operation on the same
    input takes 0.36 s or 0.77 s.  The clock therefore times the
    reference kernel at every mark, and converts each segment of work
    between two marks into seconds at the nominal speed with the
    kernel's mean time at its two ends.  Segments are short: one search
    or set-up, or one stage of a certification.  The kernel's own time
    is not in any segment."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.kernel_s: list[float] = []
        self._ref = self._burst()
        self.lap()

    def _burst(self) -> float:
        """Median time of REF_BURST kernel runs; a span of its own when
        traced, so that no layer is charged for it."""
        def burst():
            times = []
            for _ in range(REF_BURST):
                t0 = time.perf_counter()
                reference_kernel()
                times.append(time.perf_counter() - t0)
            self.kernel_s += times
            return statistics.median(times)
        if self.tracer is None:
            return burst()
        return self.tracer.call("bench.reference", burst)

    def lap(self) -> None:
        """Start counting from zero, with a new segment."""
        self.raw_s = self.nominal_s = 0.0
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        """End the current segment and start the next one."""
        seconds = time.perf_counter() - self._t0
        ref = self._burst()
        self.raw_s += seconds
        self.nominal_s += seconds * 2 * REF_NOMINAL_S / (self._ref + ref)
        self._ref = ref
        self._t0 = time.perf_counter()

    def factor(self) -> float:
        """Nominal over raw seconds since the last lap."""
        return self.nominal_s / self.raw_s


def scaled(metrics: dict[str, float], units: dict[str, str],
           factor: float) -> dict[str, float]:
    """Times and rates at the nominal speed."""
    out = {}
    for name, value in metrics.items():
        if units[name] in ("s", "s/op"):
            value *= factor
        elif units[name] == "1/s":
            value /= factor
        out[name] = value
    return out


def cold_setup(workload: str, before_build=None) -> float:
    """Seconds from importing coxglue to warm caches, in this process."""
    t0 = time.perf_counter()
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import coxglue
    import workloads
    if os.path.dirname(os.path.abspath(coxglue.__file__)) != \
            os.path.join(SRC, "coxglue"):
        raise BenchError(f"coxglue imported from {coxglue.__file__}, "
                         f"not from {SRC}")
    if before_build is not None:
        before_build()
    workloads.build_caches(workload)
    return time.perf_counter() - t0


def timed_setup(workload: str) -> tuple[float, float]:
    """Raw and nominal seconds of a cold set-up in this process, with
    the reference kernel timed in this process too: the machine's two
    cores do not always run at the same speed."""
    clock = Clock()
    setup_s = cold_setup(workload)
    clock.mark()
    return setup_s, setup_s * clock.factor()


def probe_setup(workload: str) -> tuple[float, float]:
    """timed_setup in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         workload], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
    raw, nominal = out.stdout.split()[-2:]
    return float(raw), float(nominal)


def run_ops(ops, clock: Clock, tracer=None):
    """Closed loop over ops; returns per-op records (op, raw seconds,
    nominal seconds, work, problems) and the indices of the operation
    spans when traced."""
    import workloads
    records, op_spans = [], []
    for op in ops:
        clock.lap()
        try:
            if tracer is None:
                problems, work = workloads.run_op(op, clock.mark)
            else:
                op_spans.append(len(tracer.spans))
                problems, work = tracer.call("bench.op", workloads.run_op,
                                             op, clock.mark)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems, work = [f"{op.kind} m{op.mid}: {type(exc).__name__}: "
                              f"{exc}"], 0
        clock.mark()
        records.append((op, clock.raw_s, clock.nominal_s, work, problems))
    return records, op_spans


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(records, setup_samples, rss_mb) -> dict[str, float]:
    """records are (op, seconds, work, problems); the probe is not in the
    latency median."""
    latencies = [s for op, s, _, _ in records if op.kind != "probe"]
    return {
        "op_s_p50": statistics.median(latencies),
        "throughput": sum(w for _, _, w, _ in records)
        / sum(s for _, s, _, _ in records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=ROUND_S)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=ROUND_S,
                    help="time one cold set-up and print the seconds")
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(*timed_setup(args.setup_probe))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    e2e_units, layer_units = declared()
    if e2e_units != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end metrics differ from "
                         "the ones this benchmark reports")
    if not traced:
        cold_setup(workload)
        setups = [probe_setup(workload) for _ in range(SETUP_SAMPLES)]
        clock = Clock()
        import workloads
        ops = workloads.make_ops(workload, seed, n_rounds(workload, seconds))
        records, _ = run_ops(ops, clock)
        rss_mb = peak_rss_mb()
        raw = end_to_end([(op, r, w, p) for op, r, _, w, p in records],
                         [r for r, _ in setups], rss_mb)
        metrics = end_to_end([(op, n, w, p) for op, _, n, w, p in records],
                             [n for _, n in setups], rss_mb)
        units = e2e_units
    else:
        from spans import Tracer
        tracer = Tracer()
        clock = Clock(tracer)

        def install_setup():
            import layers
            layers.setup_plan(tracer)
        try:
            setup_s = cold_setup(workload, install_setup)
        finally:
            tracer.restore()
        clock.mark()
        import layers
        import workloads
        if layers.PER_LAYER != layer_units:
            raise BenchError("BENCHMARK.json per_layer metrics differ from "
                             "the ones this benchmark reports")
        units = layer_units
        raw = layers.setup_metrics(tracer, setup_s)
        metrics = scaled(raw, units, clock.factor())
        ops = workloads.make_ops(workload, seed, n_rounds(workload, seconds))
        first = len(tracer.spans)
        with tracer.installed(layers.op_plan):
            records, op_spans = run_ops(ops, clock, tracer)
        walls = [r for op, r, _, _, _ in records if op.kind != "probe"]
        per_op = layers.op_metrics(tracer, first, op_spans, walls)
        raw.update(per_op)
        factor = sum(r[2] for r in records) / sum(r[1] for r in records)
        metrics.update(scaled(per_op, units, factor))
        write_trace(workload, seed, tracer, metrics)

    failed = [r for r in records if r[4]]
    for op, _, _, _, problems in failed:
        for p in problems:
            print(f"FAILED {op.kind}: {p}")
    n_timed = sum(1 for r in records if r[0].kind != "probe")
    print(f"workload {workload}, seed {seed}: {len(records)} operations, "
          f"{n_timed} of them in the latency median; closed loop, one caller")
    print(f"reference kernel: {len(clock.kernel_s)} timings, median "
          f"{statistics.median(clock.kernel_s):.6g} s, nominal {REF_NOMINAL_S} "
          f"s; values are at the nominal speed, raw ones in brackets")
    if not traced:
        print(f"setup_s is the median of {len(setups)} cold set-ups")
    print(f"error_rate = {len(failed) / len(records):.4f} ratio "
          f"({len(failed)} of {len(records)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({raw[name]:.6g})")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_trace(workload, seed, tracer, metrics) -> None:
    """Spans keep the machine's own seconds; metrics are at the nominal
    speed."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   **tracer.to_json()}, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
