"""An oracle for the sign tables of coxglue.homology.truncated_cells: the
truncated polytope cut by exact flat cuts, with integer cut points, cell
frames and determinants.

The cut at an ideal vertex w is the symmetry-equivariant hyperplane
<x, w> = <x, z>/8, with z the fixed center of the symmetry group and w
the primitive lightlike vertex, so every cell of the truncated polytope
is a flat convex polytope with integer homogeneous vertex coordinates.
coxglue orients each cell by its walls and reads every sign off the
face lattice; the tests check those signs, and the boundary matrices
assembled from them, against the frames of these points, up to one
change of orientation per cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from coxglue import homology as hm
from coxglue.lorentz import (RowSpan, Vec, det, lorentz_inner,
                             mat_vec, primitive)
from coxglue.pairing import standard_context
from coxglue.polytope import Face, FaceLattice
from coxglue.verify import lattice_context

from group_elements import SIGMA_POWERS


@dataclass(frozen=True)
class TruncatedGeometry:
    """Exact points of the cells of `truncated_cells()`, in its order:
    `points`, the actual vertices then the cut points; the points
    `cell_points[i]` of cell i, and a frame `frames[i]` of d + 1 of them,
    nonsingular on columns `pivot_cols[i]` with sign `frame_sign[i]`; and
    the symmetry's power t on points, `pt_perm[t]`."""

    points: tuple[Vec, ...]
    cell_points: tuple[tuple[int, ...], ...]
    frames: tuple[tuple[int, ...], ...]
    pivot_cols: tuple[tuple[int, ...], ...]
    frame_sign: tuple[int, ...]
    pt_perm: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def truncated_geometry() -> TruncatedGeometry:
    tc = hm.truncated_cells()
    ctx, lat = standard_context(), lattice_context().lattice
    p6 = ctx.polytope
    verts, n_act = p6.vertices, p6.n_actual

    # cut points along the edges, one per (edge, ideal endpoint), listed
    # per ideal endpoint with the edge's vertex mask
    points: list[Vec] = list(p6.actual_vertices)
    cuts_at: dict[int, list[tuple[int, int]]] = {}
    for e in lat.faces:
        if e.dim != 1 or e.ideal_point:
            continue
        ids = lat.vertex_ids(e)
        for wid in ideal_vertex_ids(lat, e):
            w = verts[wid]
            other = verts[ids[0] if ids[1] == wid else ids[1]]
            if lorentz_inner(other, other) < 0:
                a = -lorentz_inner(other, w)
                cut = tuple(2 * p + (8 * a - 3) * q for p, q in zip(other, w))
            else:
                m = -lorentz_inner(other, w)
                cut = tuple(p + (4 * m - 1) * q for p, q in zip(other, w))
            cuts_at.setdefault(wid, []).append((e.vertex_mask, len(points)))
            points.append(primitive(cut))

    # a face keeps its actual vertices and the cuts of its edges; a cut
    # cube has the cuts at its ideal vertex of the edges of its face
    cell_points: list[tuple[int, ...]] = []
    for key in tc.cells:
        f = lat.faces[key[-1]]
        if key[0] == "f":
            pts = [v for v in lat.vertex_ids(f) if v < n_act]
            ideal = ideal_vertex_ids(lat, f)
        else:
            pts, ideal = [], (key[1],)
        pts += [pid for wid in ideal for emask, pid in cuts_at[wid]
                if emask & ~f.vertex_mask == 0]
        cell_points.append(tuple(sorted(pts)))

    frames, pivot_cols, frame_sign = [], [], []
    for key, d, pts in zip(tc.cells, tc.cell_dim, cell_points):
        span, frame = RowSpan(), []
        for pid in pts:
            if span.add(points[pid]):
                frame.append(pid)
                if len(frame) == d + 1:
                    break
        if len(frame) != d + 1:
            raise AssertionError(f"cell {key} does not span dimension {d}")
        rows = [points[p] for p in frame]
        cols = pivot_columns(rows)
        frames.append(tuple(frame))
        pivot_cols.append(cols)
        frame_sign.append(det_sign(rows, cols))

    point_id = {v: i for i, v in enumerate(points)}
    pt_perm = tuple(tuple(point_id[primitive(mat_vec(m, v))] for v in points)
                    for m in SIGMA_POWERS)
    for perm, cperm in zip(pt_perm, tc.cell_perm):
        for pts, img in zip(cell_points, cperm):
            if tuple(sorted(perm[p] for p in pts)) != cell_points[img]:
                raise AssertionError("symmetry action disagrees on points")
    return TruncatedGeometry(tuple(points), tuple(cell_points), tuple(frames),
                             tuple(pivot_cols), tuple(frame_sign), pt_perm)


def ideal_vertex_ids(lat: FaceLattice, face: Face) -> tuple[int, ...]:
    """The ideal vertices of a face, ascending."""
    return tuple(v for v in lat.vertex_ids(face)
                 if v >= lat.polytope.n_actual)


def pivot_columns(rows: Sequence[Vec]) -> tuple[int, ...]:
    """Column subset on which the row collection is nonsingular."""
    cols: list[int] = []
    cspan = RowSpan()
    for c, column in enumerate(zip(*rows)):
        if cspan.add(column):
            cols.append(c)
            if len(cols) == len(rows):
                return tuple(cols)
    raise AssertionError("rows are dependent")


def det_sign(rows: Sequence[Vec], cols: Sequence[int]) -> int:
    d = det(tuple(tuple(r[c] for c in cols) for r in rows))
    if d == 0:
        raise AssertionError("degenerate frame")
    return 1 if d > 0 else -1


def facet_sign(geo: TruncatedGeometry, x: int, b: int, r: int | None = None,
               t: int = 0) -> int:
    """Sign of the frame of cell r (default b) moved by sigma^t onto
    facet b of cell x, led by a point of x off b, in the frame of x."""
    o = min(set(geo.cell_points[x]).difference(geo.cell_points[b]))
    rows = [geo.points[o]] + [geo.points[geo.pt_perm[t][v]]
                              for v in geo.frames[b if r is None else r]]
    return det_sign(rows, geo.pivot_cols[x]) * geo.frame_sign[x]


def orient_sign(geo: TruncatedGeometry, x: int, t: int) -> int:
    """Sign of the frame of cell x moved by sigma^t in the frame of its
    image."""
    img = hm.truncated_cells().cell_perm[t][x]
    rows = [geo.points[geo.pt_perm[t][q]] for q in geo.frames[x]]
    return det_sign(rows, geo.pivot_cols[img]) * geo.frame_sign[img]


@lru_cache(maxsize=1)
def cell_gauge() -> tuple[tuple[int, ...], int]:
    """Signs c with incidence[X][i] = c[X] c[b] facet_sign(X, b) for each
    facet b = cell_facets[X][i], found by a breadth-first search of the
    facet graph of `truncated_cells()`, and the number of incidences and
    orientation signs orient[t][X] = c[X] c[sigma^t X] orient_sign(X, t)
    that contradict them."""
    tc, geo = hm.truncated_cells(), truncated_geometry()
    n = len(tc.cells)
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for b, sign in zip(tc.cell_facets[x], tc.incidence[x]):
            rel = sign * facet_sign(geo, x, b)
            links[x].append((b, rel))
            links[b].append((x, rel))
    gauge = [0] * n
    conflicts = 0
    for start in range(n):
        if gauge[start]:
            continue
        gauge[start] = 1
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, rel in links[x]:
                if not gauge[y]:
                    gauge[y] = gauge[x] * rel
                    queue.append(y)
                elif gauge[y] != gauge[x] * rel:
                    conflicts += 1
    for t in range(8):
        for x, img in enumerate(tc.cell_perm[t]):
            conflicts += (tc.orient[t][x]
                          != gauge[x] * gauge[img] * orient_sign(geo, x, t))
    return tuple(gauge), conflicts
