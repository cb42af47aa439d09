"""Quotient cell complexes of glued eight-copy manifolds and their
integral homology.

The polytope is truncated at every ideal vertex by an exact, symmetry
equivariant flat cut (the hyperplane <x, w> = <x, z>/8, with z the fixed
center of the symmetry group and w the primitive lightlike vertex), so
every cell of the truncated polytope is a flat convex polytope with
integer homogeneous vertex coordinates.  Cut corners contribute cube
cells: one (k-1)-cube for each ideal vertex of each k-face.

Cells of the glued manifold are orbits of the eight copies' cells under
the side-pairing identifications, and orientations are transported
through the exact isometries (powers of the order-8 symmetry).  The
orbits are lifted from the face classes that the properness check
traced: a cell's class is the class of the face it lies over, with the
same transport, so assembling the complex needs no union-find.  Each
boundary sign is a product of two gluing-independent signs, both fixed
once by exact determinants on the truncated polytope: the incidence of
a facet in its cell, and the orientation change of a cell under a power
of the symmetry.  Assembling a gluing's complex is table lookups.

Homology reduces the complex once along its +-1 incidences, boundary
cells first, which leaves each cusp section's own residue, then the
rest; a dense Smith normal form of each residual degree finishes both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
from .verify import PropernessCertificate, face_cycles_proper, lattice_context


class ComplexError(RuntimeError):
    pass


# -- the truncated polytope ----------------------------------------------


@dataclass(frozen=True)
class TruncatedCells:
    """Cells of the truncated polytope and the symmetry's action on them."""

    points: tuple[Vec, ...]
    cells: tuple[tuple, ...]
    cell_dim: tuple[int, ...]
    cell_points: tuple[tuple[int, ...], ...]
    cell_facets: tuple[tuple[int, ...], ...]
    frames: tuple[tuple[int, ...], ...]
    pivot_cols: tuple[tuple[int, ...], ...]
    frame_sign: tuple[int, ...]
    pt_perm: tuple[tuple[int, ...], ...]
    cell_perm: tuple[tuple[int, ...], ...]
    orient: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]
    cell_face: tuple[int, ...]


@lru_cache(maxsize=1)
def truncated_cells() -> TruncatedCells:
    """Cell structure of the truncated polytope: `points`, the actual
    vertices then the cut points; cell i, `cells[i]` = ('f', face) or
    ('l', ideal vertex, face), of dimension `cell_dim[i]` over face
    `cell_face[i]`, with `cell_points[i]`, `cell_facets[i]`, and a frame
    `frames[i]` of d + 1 points, nonsingular on columns `pivot_cols[i]`
    with sign `frame_sign[i]`; the symmetry's power t on points
    `pt_perm[t]`, on cells `cell_perm[t]`, and its orientation signs
    `orient[t]`; and the facet signs `incidence[i]`."""
    ctx, lctx = standard_context(), lattice_context()
    p6, powers = ctx.polytope, ctx.powers
    lat, vperm, fperm = lctx.lattice, lctx.vperm, lctx.fperm
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
    ends = {f.index: lat.vertex_ids(f) for f in lat.faces
            if f.dim == 1 and not f.ideal_point}
    for eidx, ids in ends.items():
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
            cut_point[(eidx, wid)] = add_point(primitive(cut))

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
                for wid in ends.get(eidx, ()):
                    if wid >= n_act:
                        pts.append(cut_point[(eidx, wid)])
        else:
            _, wid, fidx = key
            f = lat.faces[fidx]
            pts = []
            for eidx in lat.sub_faces(f, 1):
                if wid in ends.get(eidx, ()):
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

    ncells = len(cells)
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
        move = pt_perm[p].__getitem__
        for pts, img in zip(cell_points, cell_perm[p]):
            if tuple(sorted(map(move, pts))) != cell_points[img]:
                raise ComplexError("symmetry action disagrees on points")

    # orient[t][R]: sign of the change of basis from sigma^t(frame of R)
    # to the frame of cell_perm[t][R]; the signs compose along the orbit
    orient1 = []
    for idx in range(ncells):
        img = cell_perm[1][idx]
        rows = [points[pt_perm[1][q]] for q in frames[idx]]
        orient1.append(_restricted_det_sign(rows, pivot_cols[img])
                       * frame_sign[img])
    orient = [(1,) * ncells, tuple(orient1)]
    for t in range(1, 7):
        prev, perm = orient[t], cell_perm[t]
        orient.append(tuple(orient1[perm[r]] * prev[r] for r in range(ncells)))

    # incidence[X][i]: sign of the frame of X's i-th facet b, led by a
    # point o of X off b, in the frame of X.  Determinants on one cell of
    # each sigma-orbit; sigma carries the signs along the orbit.
    incidence: list[tuple[int, ...] | None] = [None] * ncells
    for x in range(ncells):
        if incidence[x] is not None:
            continue
        own = set(cell_points[x])
        signs = []
        for b in cell_facets[x]:
            o = min(own.difference(cell_points[b]))
            rows = [points[o]] + [points[q] for q in frames[b]]
            signs.append(_restricted_det_sign(rows, pivot_cols[x])
                         * frame_sign[x])
        incidence[x] = tuple(signs)
        y, z = x, cell_perm[1][x]
        while z != x:
            pos = {b: i for i, b in enumerate(cell_facets[z])}
            moved = [0] * len(signs)
            for b, sgn in zip(cell_facets[y], incidence[y]):
                moved[pos[cell_perm[1][b]]] = orient1[y] * sgn * orient1[b]
            incidence[z] = tuple(moved)
            y, z = z, cell_perm[1][z]

    return TruncatedCells(
        points=tuple(points), cells=tuple(cells), cell_dim=tuple(cell_dim),
        cell_points=tuple(cell_points), cell_facets=tuple(cell_facets),
        frames=tuple(frames), pivot_cols=tuple(pivot_cols),
        frame_sign=tuple(frame_sign), pt_perm=tuple(pt_perm),
        cell_perm=tuple(cell_perm), orient=tuple(orient),
        incidence=tuple(incidence), cell_face=tuple(k[-1] for k in cells))


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
        raise AssertionError("rows are dependent")
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
    """Cells of the glued manifold with signed boundary matrices.  The
    homology is kept from the first `homology_groups` or `cusp_sections`:
    change no cell or boundary entry after that."""

    cells: list[QuotientCell]
    by_dim: dict[int, list[int]]
    boundaries: dict[int, dict[tuple[int, int], int]]

    @cached_property
    def _homology(self):
        # boundary cells pivot first, and are closed under faces
        bd: dict[int, dict[int, int]] = {c.index: {} for c in self.cells}
        for mat in self.boundaries.values():
            for (r, c), v in mat.items():
                bd[c][r] = v
        comps = boundary_components(self)
        eliminate_units(bd, {c for comp in comps for c in comp})
        parts = [{c: dict(bd[c]) for c in comp if c in bd} for comp in comps]
        eliminate_units(bd)
        return (_residue_homology(self, bd),
                [_residue_homology(self, part) for part in parts])

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
            faces_of: dict[int, list[tuple[int, int]]] = {}
            for (r, c), v in self.boundaries[d].items():
                faces_of.setdefault(c, []).append((r, v))
            columns: dict[int, dict[int, int]] = {}  # column c of dd
            for (r, c), v in self.boundaries[d + 1].items():
                acc = columns.setdefault(c, {})
                for rr, vv in faces_of.get(r, ()):
                    acc[rr] = acc.get(rr, 0) + vv * v
            if any(any(acc.values()) for acc in columns.values()):
                raise AssertionError(f"boundary squared is nonzero at dim {d + 1}")

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
                 "cell": list(truncated_cells().cells[c.cell]),
                 "boundary": c.boundary_flag, "orbit": c.orbit_size}
                for c in self.cells],
        }


def build_quotient_complex(
        arr: EightPPairing,
        proper: PropernessCertificate | None = None) -> QuotientCellComplex:
    """Glue eight truncated copies along the pairing and assemble the
    signed boundary matrices of the quotient cell complex.  Cell classes
    are the classes of the faces under them in `proper` (or in a new
    `face_cycles_proper(arr)`): if X's face has root in copy r and
    transport sigma^t, X's root is cell cell_perm[-t][X] of copy r."""
    if proper is None:
        proper = face_cycles_proper(arr)
    if not proper.proper:
        raise ComplexError(f"side-pairing is not proper: {proper.violation}")
    face_root, face_t = proper.roots, proper.transports
    nf = len(lattice_context().lattice.faces)
    if len(face_root or ()) != 8 * nf:
        raise ComplexError("certificate has no eight-copy face classes")
    tc = truncated_cells()
    cells, cell_face, orient = tc.cells, tc.cell_face, tc.orient
    dim_of, facets, incidence = tc.cell_dim, tc.cell_facets, tc.incidence
    ncells = len(cells)
    back = [tc.cell_perm[-t] for t in range(8)]
    class_size = Counter(face_root)

    # one quotient cell per class, the root, keyed by (face root, cell)
    roots: dict[tuple[int, int], int] = {}
    qcells: list[QuotientCell] = []
    by_dim: dict[int, list[int]] = {}
    for copy in range(8):
        base = copy * nf
        for cidx in range(ncells):
            f = base + cell_face[cidx]
            if face_root[f] != f:
                continue
            q = QuotientCell(len(qcells), dim_of[cidx], copy, cidx,
                             cells[cidx][0] == "l", class_size[f])
            roots[f, cidx] = q.index
            qcells.append(q)
            by_dim.setdefault(q.dim, []).append(q.index)

    # facet b0 of a copy carries the orientation of its class root moved
    # by sigma^t, so its sign is incidence * orient[t][root cell]
    boundaries: dict[int, dict[tuple[int, int], int]] = {
        d: {} for d in by_dim if d > 0}
    for q in qcells:
        if q.dim == 0:
            continue
        mat = boundaries[q.dim]
        base = q.copy * nf
        for b0, sign in zip(facets[q.cell], incidence[q.cell]):
            f = base + cell_face[b0]
            r, t = face_root[f], face_t[f]
            rcell = back[t][b0]
            key = (roots[r, rcell], q.index)
            val = mat.get(key, 0) + sign * orient[t][rcell]
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


def homology_groups(cx: QuotientCellComplex) -> list[HomologyGroups]:
    """Integral homology per degree 0..top: the reduction `cusp_sections`
    shares, then `invariant_factors` of each residual degree."""
    return list(cx._homology[0])


def _residue_homology(cx: QuotientCellComplex,
                      bd: dict[int, dict[int, int]]) -> list[HomologyGroups]:
    """Homology per degree 0..top of `cx`, read from `bd`, a residue of
    `eliminate_units` on some of the cells of `cx`."""
    top = max(cx.by_dim)
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
    groups = []
    for d in range(top + 1):
        above = factors.get(d + 1, ())
        betti = len(cells_at[d]) - len(factors.get(d, ())) - len(above)
        if betti < 0:
            raise AssertionError("negative Betti number")
        groups.append(HomologyGroups(betti, tuple(f for f in above if f > 1)))
    return groups


def boundary_components(cx: QuotientCellComplex) -> list[set[int]]:
    """Connected components of the boundary subcomplex."""
    parent = [c.index if c.boundary_flag else -1 for c in cx.cells]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mat in cx.boundaries.values():
        for r, c in mat:
            if parent[r] >= 0 and parent[c] >= 0:
                rr, rc = find(r), find(c)
                if rr != rc:
                    parent[rr] = rc
    comps: dict[int, set[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            comps.setdefault(find(i), set()).add(i)
    return sorted(comps.values(), key=lambda s: sorted(s))


def cusp_sections(cx: QuotientCellComplex) -> list[list[HomologyGroups]]:
    """Homology of each boundary component (the cusp cross-sections),
    from what the shared reduction leaves of it before the interior."""
    return [list(groups) for groups in cx._homology[1]]
