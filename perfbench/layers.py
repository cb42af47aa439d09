"""Which coxglue functions the traced run wraps, and how its spans and
counts become the per-layer metrics.

Time metrics are self times: a span's duration minus its child spans.
Over the timed operations they sum, with trace.uncovered_s (the self
time of the operation span itself), to the operations' wall time less
the reference kernel the benchmark's clock runs between stages.
homology.cusp_s is the exception that keeps this exact: it is the whole
duration of cusp_sections, and the spans below it are not counted again.
Per-operation metrics are averages over the timed operations; set-up
metrics are totals over the one cold set-up of the traced process.
"""

from __future__ import annotations

import statistics

from coxglue import homology, pairing, smith, verify

from spans import END, INFO, NAME, PARENT, START, Tracer

DEGREES = range(1, 7)
# Sparse elimination reduces the boundary matrices of degrees 1 and 6
# completely on the benchmark's gluings, so only these leave dense cores.
DENSE_DEGREES = range(2, 6)

SETUP_METRICS = {
    "trace.setup_s": "s",
    "pairing.standard_context_s": "s",
    "verify.lattice_context_s": "s",
    "polytope.face_lattice_s": "s",
    "polytope.faces": "count",
    "homology.truncated_cells_s": "s",
}

# span name -> per-operation self-time metric
SELF_TIME = {
    "bench.op": "trace.uncovered_s",
    "verify.certify_manifold": "verify.certify_s",
    "pairing.develop": "pairing.develop_s",
    "pairing.build_q": "pairing.build_q_s",
    "verify.face_cycles_proper": "verify.proper_s",
    "verify.torsion": "verify.torsion_s",
    "homology.build_quotient_complex": "homology.complex_s",
    "homology.homology_groups": "homology.homology_s",
    "smith.smith_normal_form": "smith.dense_core_s",
    "pairing.search_pairings": "pairing.search_s",
}

OP_METRICS = {
    "trace.op_s_p50": "s",
    "trace.uncovered_share": "ratio",
    **{m: "s/op" for m in SELF_TIME.values()},
    **{f"smith.invariant_factors_s_d{d}": "s/op" for d in DEGREES},
    "homology.cusp_s": "s/op",
    "pairing.develop_calls": "count/op",
    "verify.proper_calls": "count/op",
    "lorentz.mat_mul_calls": "count/op",
    "lorentz.det_calls": "count/op",
    "gf2.calls": "count/op",
    **{f"homology.cells_d{d}": "count/op" for d in range(7)},
    **{f"homology.boundary_nnz_d{d}": "count/op" for d in DEGREES},
    **{f"smith.dense_core_rows_d{d}": "count/op" for d in DENSE_DEGREES},
    **{f"smith.dense_core_cols_d{d}": "count/op" for d in DENSE_DEGREES},
    "pairing.search_nodes": "count/op",
    "pairing.search_nodes_per_s": "1/s",
}

PER_LAYER = {**SETUP_METRICS, **OP_METRICS}


# -- what to wrap -----------------------------------------------------------


def _faces(span, lat) -> None:
    span[INFO]["faces"] = len(lat.faces)


def setup_plan(t: Tracer) -> None:
    t.patch([(pairing, "standard_context"), (verify, "standard_context"),
             (homology, "standard_context")],
            lambda f: t.spanned("pairing.standard_context", f))
    t.patch([(verify, "lattice_context"), (homology, "lattice_context")],
            lambda f: t.spanned("verify.lattice_context", f))
    t.patch([(verify, "face_lattice")],
            lambda f: t.spanned("polytope.face_lattice", f, on_result=_faces))
    t.patch([(homology, "truncated_cells")],
            lambda f: t.spanned("homology.truncated_cells", f))


def _complex_result(span, cx) -> None:
    span[INFO]["cells"] = cx.counts()
    span[INFO]["nnz"] = {d: len(m) for d, m in cx.boundaries.items()}


def _homology_shapes(t, span, args, kwargs) -> None:
    """Map each boundary matrix shape to its degree, so that the
    invariant-factor span below can name the degree it works on."""
    cx = args[0]
    subset = args[1] if len(args) > 1 else kwargs.get("cell_subset")
    size = {d: sum(1 for i in ix if subset is None or i in subset)
            for d, ix in cx.by_dim.items()}
    span[INFO]["degree_of"] = {
        f"{size.get(d - 1, 0)}x{size.get(d, 0)}": d for d in DEGREES}


def _factor_degree(t, span, args, kwargs) -> None:
    shape = args[1] if len(args) > 1 else kwargs.get("shape")
    parent = t.spans[span[PARENT]] if span[PARENT] >= 0 else None
    if parent is not None and "degree_of" in parent[INFO]:
        rows, cols = shape
        span[INFO]["degree"] = parent[INFO]["degree_of"].get(f"{rows}x{cols}")


def _dense_shape(t, span, args, kwargs) -> None:
    a = args[0]
    span[INFO]["shape"] = (len(a), len(a[0]) if a else 0)


def _search_result(span, res) -> None:
    span[INFO]["nodes"] = res.nodes_used


def op_plan(t: Tracer) -> None:
    t.patch([(verify, "certify_manifold")],
            lambda f: t.spanned("verify.certify_manifold", f))
    t.patch([(pairing, "develop"), (verify, "develop")],
            lambda f: t.spanned("pairing.develop", f))
    t.patch([(pairing, "build_q")],
            lambda f: t.spanned("pairing.build_q", f))
    t.patch([(verify, "face_cycles_proper"), (homology, "face_cycles_proper")],
            lambda f: t.spanned("verify.face_cycles_proper", f))
    for name in ("build_code_matrix", "torsion_free_H", "pair_space_action",
                 "extension_torsion_certificate"):
        t.patch([(verify, name)], lambda f: t.spanned("verify.torsion", f))
    t.patch([(homology, "build_quotient_complex")],
            lambda f: t.spanned("homology.build_quotient_complex", f,
                                on_result=_complex_result))
    t.patch([(homology, "homology_groups")],
            lambda f: t.spanned("homology.homology_groups", f,
                                info=_homology_shapes))
    t.patch([(homology, "cusp_sections")],
            lambda f: t.spanned("homology.cusp_sections", f))
    t.patch([(homology, "invariant_factors")],
            lambda f: t.spanned("smith.invariant_factors", f,
                                info=_factor_degree))
    t.patch([(smith, "smith_normal_form")],
            lambda f: t.spanned("smith.smith_normal_form", f,
                                info=_dense_shape))
    t.patch([(pairing, "search_pairings")],
            lambda f: t.spanned("pairing.search_pairings", f,
                                on_result=_search_result))
    t.patch([(pairing, "mat_mul"), (verify, "mat_mul")],
            lambda f: t.counted("lorentz.mat_mul_calls", f))
    t.patch([(homology, "det")], lambda f: t.counted("lorentz.det_calls", f))
    t.patch([(verify, "columns_independent")],
            lambda f: t.counted("gf2.calls", f))
    t.patch([(verify, "gf2_solve")], lambda f: t.counted("gf2.calls", f))


# -- aggregation ---------------------------------------------------------------


def setup_metrics(t: Tracer, setup_s: float) -> dict[str, float]:
    out = dict.fromkeys(SETUP_METRICS, 0.0)
    out["trace.setup_s"] = setup_s
    own = t.self_times()
    for i, span in enumerate(t.spans):
        if span[NAME] + "_s" in out:
            out[span[NAME] + "_s"] += own[i]
        if span[NAME] == "polytope.face_lattice":
            out["polytope.faces"] += span[INFO].get("faces", 0)
    return out


def op_metrics(t: Tracer, first: int, op_spans: list[int],
               op_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over the spans recorded from index first on;
    op_spans index the operation spans, op_walls are the latencies that
    enter the median.  Only op_plan counts calls, so t.counts covers
    the operations alone."""
    n = len(op_spans)
    out = dict.fromkeys(OP_METRICS, 0.0)
    own = t.self_times()
    search_s = search_nodes = kernel_s = 0.0
    for i in range(first, len(t.spans)):
        span = t.spans[i]
        name, info = span[NAME], span[INFO]
        if name == "bench.reference":
            if span[PARENT] >= 0:
                kernel_s += span[END] - span[START]
            continue
        under_cusp = any(a[NAME] == "homology.cusp_sections"
                         for a in t.ancestors(i))
        if under_cusp:
            continue
        if name == "homology.cusp_sections":
            out["homology.cusp_s"] += span[END] - span[START]
        elif name == "smith.invariant_factors":
            d = info.get("degree")
            if d is not None:
                out[f"smith.invariant_factors_s_d{d}"] += own[i]
            else:
                out["homology.homology_s"] += own[i]
        else:
            out[SELF_TIME[name]] += own[i]
        if name == "pairing.develop":
            out["pairing.develop_calls"] += 1
        elif name == "verify.face_cycles_proper":
            out["verify.proper_calls"] += 1
        elif name == "homology.build_quotient_complex":
            for d, c in info.get("cells", {}).items():
                out[f"homology.cells_d{d}"] += c
            for d, c in info.get("nnz", {}).items():
                out[f"homology.boundary_nnz_d{d}"] += c
        elif name == "smith.smith_normal_form":
            d = t.spans[span[PARENT]][INFO].get("degree")
            if d in DENSE_DEGREES:
                rows, cols = info["shape"]
                out[f"smith.dense_core_rows_d{d}"] += rows
                out[f"smith.dense_core_cols_d{d}"] += cols
        elif name == "pairing.search_pairings":
            search_s += span[END] - span[START]
            search_nodes += info.get("nodes", 0)
    for key in ("lorentz.mat_mul_calls", "lorentz.det_calls", "gf2.calls"):
        out[key] = t.counts[key]
    out["pairing.search_nodes"] = search_nodes
    for key in out:
        out[key] /= max(n, 1)
    out["pairing.search_nodes_per_s"] = search_nodes / search_s if search_s else 0.0
    wall = sum(t.spans[i][END] - t.spans[i][START] for i in op_spans) \
        - kernel_s
    out["trace.uncovered_share"] = (
        sum(own[i] for i in op_spans) / wall if wall else 0.0)
    out["trace.op_s_p50"] = statistics.median(op_walls) if op_walls else 0.0
    return out
