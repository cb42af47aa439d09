"""Quotient cell complexes of glued eight-copy manifolds and their
integral homology.

The polytope is truncated at every ideal vertex by an exact, symmetry
equivariant flat cut (the hyperplane <x, w> = <x, z>/8, with z the fixed
center of the symmetry group and w the primitive lightlike vertex), so
every cell of the truncated polytope is a flat convex polytope with
integer homogeneous vertex coordinates.  Cut corners contribute cube
cells: one (k-1)-cube for each ideal vertex of each k-face.

Cells of the glued manifold are orbits of the eight copies' cells under
the side-pairing identifications; orientations are transported through
the exact isometries (powers of the order-8 symmetry), and boundary
matrices are assembled with signs from exact determinants.

Homology reduces the whole complex along its +-1 incidences, which
leaves about 90 of a gluing's 8,891 cells, and takes a dense Smith
normal form of each residual degree; cusp sections likewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .lorentz import (
    RowSpan,
    Vec,
    det,
    lorentz_inner,
    mat_vec,
    primitive,
)
from .pairing import EightPPairing, standard_context
from .smith import eliminate_units, invariant_factors
from .verify import (
    TransportUnionFind,
    _exp_compose,
    _exp_inverse,
    face_cycles_proper,
    lattice_context,
)


class ComplexError(RuntimeError):
    pass


# -- the truncated polytope ----------------------------------------------


@lru_cache(maxsize=1)
def truncated_cells():
    """Cell structure of the truncated polytope, with the exact action of
    the order-8 symmetry on points and cells."""
    p6, sigma, reflections, powers, sigma_pows = standard_context()
    lat, vperm, fperm, _ = lattice_context()
    n = p6.dim
    verts = p6.vertices
    n_act = p6.n_actual

    points: list[Vec] = [v for v in p6.actual_vertices]
    point_id: dict[Vec, int] = {v: i for i, v in enumerate(points)}
    cut_point: dict[tuple[int, int], int] = {}

    def add_point(v: Vec) -> int:
        got = point_id.get(v)
        if got is None:
            got = len(points)
            points.append(v)
            point_id[v] = got
        return got

    # cut points along the edges, one per (edge, ideal endpoint)
    for f in lat.faces:
        if f.dim != 1 or f.ideal_point:
            continue
        ids = lat.vertex_ids(f)
        for wid in ids:
            if wid < n_act:
                continue
            w = verts[wid]
            other = verts[ids[0] if ids[1] == wid else ids[1]]
            if lorentz_inner(other, other) < 0:
                a = -lorentz_inner(other, w)
                cut = tuple(2 * p + (8 * a - 3) * q for p, q in zip(other, w))
            else:
                m = -lorentz_inner(other, w)
                cut = tuple(p + (4 * m - 1) * q for p, q in zip(other, w))
            cut_point[(f.index, wid)] = add_point(primitive(cut))

    # cells: ('f', face) for truncated faces, ('l', wid, face) for cut cubes
    cells: list[tuple] = []
    cell_id: dict[tuple, int] = {}
    cell_dim: list[int] = []

    def add_cell(key: tuple, dim: int) -> int:
        idx = len(cells)
        cells.append(key)
        cell_id[key] = idx
        cell_dim.append(dim)
        return idx

    for f in lat.faces:
        if f.ideal_point:
            continue
        add_cell(("f", f.index), f.dim)
    for f in lat.faces:
        if f.ideal_point or f.dim == 0:
            continue
        for wid in lat.ideal_vertex_ids(f):
            add_cell(("l", wid, f.index), f.dim - 1)

    # point sets
    cell_points: list[tuple[int, ...]] = []
    for key in cells:
        if key[0] == "f":
            f = lat.faces[key[1]]
            pts = [vid for vid in lat.vertex_ids(f) if vid < n_act]
            for eidx in lat.sub_faces(f, 1):
                e = lat.faces[eidx]
                if e.ideal_point:
                    continue
                for wid in lat.vertex_ids(e):
                    if wid >= n_act:
                        pts.append(cut_point[(eidx, wid)])
        else:
            _, wid, fidx = key
            f = lat.faces[fidx]
            pts = []
            for eidx in lat.sub_faces(f, 1):
                e = lat.faces[eidx]
                if not e.ideal_point and wid in lat.vertex_ids(e):
                    pts.append(cut_point[(eidx, wid)])
        cell_points.append(tuple(sorted(set(pts))))

    # facets
    cell_facets: list[tuple[int, ...]] = []
    for key in cells:
        out = []
        if key[0] == "f":
            f = lat.faces[key[1]]
            for g in f.covers:
                if not lat.faces[g].ideal_point:
                    out.append(cell_id[("f", g)])
            if f.dim >= 1:
                for wid in lat.ideal_vertex_ids(f):
                    out.append(cell_id[("l", wid, f.index)])
        else:
            _, wid, fidx = key
            f = lat.faces[fidx]
            if f.dim >= 2:
                for g in f.covers:
                    gf = lat.faces[g]
                    if not gf.ideal_point and (gf.vertex_mask >> wid) & 1:
                        out.append(cell_id[("l", wid, g)])
        cell_facets.append(tuple(out))

    # frames and their pivot data
    frames: list[tuple[int, ...]] = []
    pivot_cols: list[tuple[int, ...]] = []
    frame_sign: list[int] = []
    for idx, key in enumerate(cells):
        d = cell_dim[idx]
        span = RowSpan()
        frame = []
        for pid in cell_points[idx]:
            if span.add(points[pid]):
                frame.append(pid)
            if len(frame) == d + 1:
                break
        if len(frame) != d + 1:
            raise ComplexError(f"cell {key} does not span dimension {d}")
        cols = _pivot_columns([points[p] for p in frame])
        sgn = _restricted_det_sign([points[p] for p in frame], cols)
        frames.append(tuple(frame))
        pivot_cols.append(cols)
        frame_sign.append(sgn)

    # symmetry action on points and cells
    pt_perm = []
    for p in range(8):
        perm = []
        for v in points:
            perm.append(point_id[primitive(mat_vec(powers[p], v))])
        pt_perm.append(tuple(perm))
    cell_perm = []
    for p in range(8):
        perm = []
        for key in cells:
            if key[0] == "f":
                img = ("f", fperm[p][key[1]])
            else:
                img = ("l", vperm[p][key[1]], fperm[p][key[2]])
            perm.append(cell_id[img])
        cell_perm.append(tuple(perm))
    for p in range(8):
        for idx in range(len(cells)):
            want = tuple(sorted(pt_perm[p][q] for q in cell_points[idx]))
            if want != cell_points[cell_perm[p][idx]]:
                raise ComplexError("symmetry action disagrees on points")

    sides_cells: list[list[int]] = [[] for _ in range(27)]
    for idx, key in enumerate(cells):
        f = lat.faces[key[1]] if key[0] == "f" else lat.faces[key[2]]
        for s in f.sides:
            sides_cells[s].append(idx)

    return {
        "lattice": lat,
        "points": tuple(points),
        "cells": tuple(cells),
        "cell_dim": tuple(cell_dim),
        "cell_points": tuple(cell_points),
        "cell_facets": tuple(cell_facets),
        "frames": tuple(frames),
        "pivot_cols": tuple(pivot_cols),
        "frame_sign": tuple(frame_sign),
        "pt_perm": tuple(pt_perm),
        "cell_perm": tuple(cell_perm),
        "sides_cells": tuple(tuple(x) for x in sides_cells),
    }


def _pivot_columns(rows: Sequence[Vec]) -> tuple[int, ...]:
    """Column subset on which the row collection is nonsingular."""
    k = len(rows)
    cols: list[int] = []
    col_vectors = list(zip(*rows))
    cspan = RowSpan()
    for c in range(len(rows[0])):
        if cspan.add(col_vectors[c]):
            cols.append(c)
            if len(cols) == k:
                break
    if len(cols) != k:
        raise ComplexError("rows are dependent")
    return tuple(cols)


def _restricted_det_sign(rows: Sequence[Vec], cols: Sequence[int]) -> int:
    d = det(tuple(tuple(r[c] for c in cols) for r in rows))
    if d == 0:
        raise ComplexError("degenerate frame")
    return 1 if d > 0 else -1


# -- quotient complex -----------------------------------------------------


@dataclass
class QuotientCell:
    index: int
    dim: int
    copy: int
    cell: int
    boundary_flag: bool
    orbit_size: int


@dataclass
class QuotientCellComplex:
    """Cells of the glued manifold with signed boundary matrices."""

    cells: list[QuotientCell]
    by_dim: dict[int, list[int]]
    boundaries: dict[int, dict[tuple[int, int], int]]

    def counts(self) -> dict[int, int]:
        return {d: len(ix) for d, ix in sorted(self.by_dim.items())}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(ix) for d, ix in self.by_dim.items())

    def boundary_cell_indices(self) -> list[int]:
        return [c.index for c in self.cells if c.boundary_flag]

    def check_dd_zero(self) -> None:
        for d in sorted(self.boundaries):
            if d + 1 not in self.boundaries:
                continue
            lower = self.boundaries[d]
            upper = self.boundaries[d + 1]
            by_middle: dict[int, list[tuple[int, int]]] = {}
            for (r, c), v in lower.items():
                by_middle.setdefault(c, []).append((r, v))
            acc: dict[tuple[int, int], int] = {}
            for (r, c), v in upper.items():
                for rr, vv in by_middle.get(r, ()):
                    key = (rr, c)
                    acc[key] = acc.get(key, 0) + vv * v
            if any(val for val in acc.values()):
                raise ComplexError(f"boundary squared is nonzero at dim {d + 1}")

    def to_json(self) -> dict:
        return {
            "counts": {str(d): c for d, c in self.counts().items()},
            "euler_characteristic": self.euler_characteristic(),
            "boundary_cells": len(self.boundary_cell_indices()),
            "boundaries": {
                str(d): sorted([r, c, v] for (r, c), v in mat.items())
                for d, mat in self.boundaries.items()},
            "cells": [
                {"index": c.index, "dim": c.dim, "copy": c.copy + 1,
                 "cell": list(truncated_cells()["cells"][c.cell]),
                 "boundary": c.boundary_flag, "orbit": c.orbit_size}
                for c in self.cells],
        }


def build_quotient_complex(arr: EightPPairing,
                           check_proper: bool = True) -> QuotientCellComplex:
    """Glue eight truncated copies along the pairing and assemble the
    signed boundary matrices of the quotient cell complex."""
    if check_proper:
        cert = face_cycles_proper(arr)
        if not cert.proper:
            raise ComplexError(f"side-pairing is not proper: {cert.violation}")
    tc = truncated_cells()
    cells = tc["cells"]
    ncells = len(cells)
    dim_of = tc["cell_dim"]
    cperm = tc["cell_perm"]
    sides_cells = tc["sides_cells"]

    uf = TransportUnionFind(8 * ncells, _exp_compose, _exp_inverse, 0)
    for i in range(8):
        for j in range(27):
            k, p = arr.entry(i, j)
            for cidx in sides_cells[j]:
                a = i * ncells + cidx
                b = k * ncells + cperm[p][cidx]
                if not uf.union(a, b, p):
                    raise ComplexError(
                        "orientation transport inconsistency at "
                        f"copy {i + 1}, side {j + 1}")

    roots: dict[int, int] = {}
    qcells: list[QuotientCell] = []
    by_dim: dict[int, list[int]] = {}
    orbit_size: dict[int, int] = {}
    for node in range(8 * ncells):
        r, _ = uf.find(node)
        orbit_size[r] = orbit_size.get(r, 0) + 1
    for node in range(8 * ncells):
        r, _ = uf.find(node)
        if r in roots or r != node:
            continue
        copy, cidx = divmod(r, ncells)
        q = QuotientCell(len(qcells), dim_of[cidx], copy, cidx,
                         cells[cidx][0] == "l", orbit_size[r])
        roots[r] = q.index
        qcells.append(q)
        by_dim.setdefault(q.dim, []).append(q.index)

    points = tc["points"]
    cpoints = tc["cell_points"]
    facets = tc["cell_facets"]
    frames = tc["frames"]
    pcols = tc["pivot_cols"]
    fsign = tc["frame_sign"]
    ptperm = tc["pt_perm"]

    boundaries: dict[int, dict[tuple[int, int], int]] = {
        d: {} for d in by_dim if d > 0}
    for q in qcells:
        if q.dim == 0:
            continue
        mat = boundaries[q.dim]
        base = q.copy * ncells
        parent_pts = set(cpoints[q.cell])
        cols = pcols[q.cell]
        psign = fsign[q.cell]
        for b0 in facets[q.cell]:
            r, t = uf.find(base + b0)
            beta = roots[r]
            rep_cell = qcells[beta].cell
            perm = ptperm[t]
            tuple_pts = [perm[pid] for pid in frames[rep_cell]]
            bset = set(cpoints[b0])
            o = min(parent_pts - bset)
            rows = [points[o]] + [points[p] for p in tuple_pts]
            dd = det(tuple(tuple(row[c] for c in cols) for row in rows))
            if dd == 0:
                raise ComplexError("degenerate incidence frame")
            sign = (1 if dd > 0 else -1) * psign
            key = (beta, q.index)
            val = mat.get(key, 0) + sign
            if val:
                mat[key] = val
            elif key in mat:
                del mat[key]
    cx = QuotientCellComplex(qcells, by_dim, boundaries)
    cx.check_dd_zero()
    return cx


# -- homology -------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroups:
    """Free rank plus torsion coefficients (each dividing the next)."""

    rank: int
    torsion: tuple[int, ...]

    def encode(self, powers: Sequence[int] = (2, 4, 8)) -> str:
        counts = [self.rank] + [self.torsion.count(p) for p in powers]
        if sum(counts[1:]) != len(self.torsion):
            raise ComplexError(
                f"torsion {self.torsion} does not fit the encoding")
        return "".join(str(c) for c in counts)

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        for t in self.torsion:
            parts.append(f"Z/{t}")
        return " + ".join(parts) if parts else "0"


def homology_groups(cx: QuotientCellComplex,
                    cell_subset: set[int] | None = None) -> list[HomologyGroups]:
    """Integral homology per degree 0..top (optionally of a full
    subcomplex): `eliminate_units` on the whole complex, then
    `invariant_factors` of each residual degree."""
    top = max(cx.by_dim)
    bd: dict[int, dict[int, int]] = {
        c: {} for ix in cx.by_dim.values() for c in ix
        if cell_subset is None or c in cell_subset}
    for mat in cx.boundaries.values():
        for (r, c), v in mat.items():
            if c in bd and r in bd:
                bd[c][r] = v
    eliminate_units(bd)
    cells_at: dict[int, list[int]] = {d: [] for d in range(top + 1)}
    for c in sorted(bd):
        cells_at[cx.cells[c].dim].append(c)
    factors = {}
    for d in range(1, top + 1):
        rindex = {r: i for i, r in enumerate(cells_at[d - 1])}
        sparse = {(rindex[r], j): v for j, c in enumerate(cells_at[d])
                  for r, v in bd[c].items()}
        factors[d] = invariant_factors(
            sparse, (len(cells_at[d - 1]), len(cells_at[d])))
    out = []
    for d in range(top + 1):
        above = factors.get(d + 1, ())
        betti = len(cells_at[d]) - len(factors.get(d, ())) - len(above)
        if betti < 0:
            raise ComplexError("negative Betti number")
        out.append(HomologyGroups(betti, tuple(f for f in above if f != 1)))
    return out


def boundary_components(cx: QuotientCellComplex) -> list[set[int]]:
    """Connected components of the boundary subcomplex."""
    bset = set(cx.boundary_cell_indices())
    parent = {i: i for i in bset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d, mat in cx.boundaries.items():
        for (r, c), _ in mat.items():
            if r in bset and c in bset:
                rr, rc = find(r), find(c)
                if rr != rc:
                    parent[rr] = rc
    comps: dict[int, set[int]] = {}
    for i in bset:
        comps.setdefault(find(i), set()).add(i)
    return sorted(comps.values(), key=lambda s: sorted(s))


def cusp_sections(cx: QuotientCellComplex) -> list[list[HomologyGroups]]:
    """Homology of each boundary component (the cusp cross-sections)."""
    return [homology_groups(cx, comp) for comp in boundary_components(cx)]
