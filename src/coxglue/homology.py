"""Quotient cell complexes of glued eight-copy manifolds and their
integral homology.

The polytope is truncated at every ideal vertex by a cut wall that the
symmetry permutes with the vertices.  The truncated polytope is simple:
a cell of dimension d lies in exactly 6 - d walls, among the 27 sides
and the cut walls.  Its cells are the faces ('f', face), cut back, and
the cut corners ('l', ideal vertex, face), one (k-1)-cube for each ideal
vertex of each k-face.

Each cell is oriented by the sorted tuple of its walls (the normals of
the walls in that order, then the cell, orient the polytope, up to a
sign per dimension), so every sign is combinatorial.  The facet of X on
wall j has the Koszul sign (-1)^#(walls of X below j), which makes
boundary squared zero by construction, and the power sigma^t carries X
onto its image with sign (-1)^t (det sigma = -1) times the sign of the
permutation by which it reorders the walls of X.

Cells of the glued manifold are orbits of the eight copies' cells under
the side-pairing identifications, and orientations are transported
through the powers of the order-8 symmetry.  The orbits are lifted from
the face classes that the properness check traced: a cell's class is
the class of the face it lies over, with the same transport, so
assembling the complex needs no union-find.  Each face class gives its
cells at its root face, the truncated face and its cut corners, each with
the face's cycle length of members.  The cusps are the classes of the
ideal points in that pass, and a cut corner's cusp is the class of its
ideal vertex, so the cusp cross-sections are read off the cells.
Each boundary sign is a product of the two gluing-independent signs
above, so assembling a gluing's complex is table lookups.

The complex is stored by columns, the boundary {face: coefficient} of
each cell: assembly writes them, the reduction reads them, and the
per-degree boundary matrices are derived from them only when asked for.

No pass checks boundary squared zero on a gluing, as the assembly is
a chain map.  If cell Y of copy c lies over a face with root copy r and
transport t, and R = cell_perm[-t][Y], assembly sends Y to pi(c, Y) =
orient[t][R] [class of (r, R)] and gives the root (r, R) the column
pi(boundary (r, R)).  Then boundary pi = pi boundary on every copy and
cell, so boundary squared of a root is pi(boundary squared of (r, R)) =
0, given: P1, boundary squared is zero on one truncated copy; P2,
incidence[sigma X][sigma b] = orient[1][X] incidence[X][b] orient[1][b]
and cell_face[cell_perm[t][X]] = fperm[t][cell_face[X]]; P3, orient is
a cocycle, orient[s + t][X] = orient[s][X] orient[t][cell_perm[s][X]],
which extends P2 to every power; P4, the face pass is proper, so each
subface of a face carries that face's transport.  P1 to P3 depend on
the polytope alone and are tested once, on every cell;
`build_quotient_complex` refuses an improper gluing, which is P4.

Homology matches the cells on the columns as built, boundary cells
first and only with each other, for a Morse complex of 215 to 249
critical cells on the nine gluings.  So each cusp's critical cells, 18
to 36, form its section's own Morse complex; `eliminate_units` reduces
the whole one to 73 to 87 cells, and a dense Smith normal form of each
degree finishes both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

from .errors import CoxglueError
from .gf2 import bits
# det is unused here but stays importable: perfbench/layers.py patches it
from .lorentz import det  # noqa: F401
from .pairing import EightPPairing, sigma_powers, standard_context
from .smith import eliminate_units, invariant_factors
from .verify import face_cycles_proper, lattice_context


class ComplexError(CoxglueError, RuntimeError):
    pass


# -- the truncated polytope ----------------------------------------------


@dataclass(frozen=True)
class TruncatedCells:
    """Cells of the truncated polytope, their facets with signs, and the
    symmetry's action on them."""

    cells: tuple[tuple, ...]
    cell_dim: tuple[int, ...]
    cell_facets: tuple[tuple[int, ...], ...]
    cell_perm: tuple[tuple[int, ...], ...]
    orient: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]
    cell_face: tuple[int, ...]
    face_corners: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=1)
def truncated_cells() -> TruncatedCells:
    """Cell structure of the truncated polytope, from the face lattice:
    cell i, `cells[i]` = ('f', face) or ('l', ideal vertex, face), of
    dimension `cell_dim[i]` over face `cell_face[i]`, with facets
    `cell_facets[i]` and their signs `incidence[i]`; the symmetry's power
    t on cells `cell_perm[t]`, composed from sigma's (sigma^8 is checked to
    be the identity), and its orientation signs `orient[t]`, one per face.
    The lattice numbers the ideal points last, so each other face f is
    cell f; its cut corners are `face_corners[f]`, (corner cell, ideal
    point) pairs.
    Each facet sign is read once per cover pair (f, g): ('l', w, f) ->
    ('l', w, g) has the sign of ('f', f) -> ('f', g), and ('f', f) ->
    ('l', w, f), whose new wall is the cut wall, last, (-1)^|sides(f)|."""
    ctx, lctx = standard_context(), lattice_context()
    lat, vperm, fperm = lctx.lattice, lctx.vperm, lctx.fperm
    faces = lat.faces
    actual = (1 << ctx.polytope.n_actual) - 1

    # cells: ('f', face) for the truncated faces, then ('l', w, face) for
    # the cut corners; face f's corner at w is cell corner[f][w]
    tops = [f.index for f in faces if not f.ideal_point]
    corners = [(w, f.index) for f in faces if f.dim and not f.ideal_point
               for w in bits(f.vertex_mask & ~actual)]
    corner: list[dict[int, int]] = [{} for _ in faces]
    for i, (w, f) in enumerate(corners, len(tops)):
        corner[f][w] = i
    point = {w: lat.by_vertex_mask[1 << w] for w in {w for w, _ in corners}}

    # down[f]: the truncated covers g of face f; signs[f]: the signs of
    # ('f', f) -> ('f', g), (-1)^#(sides of f below g's one new wall)
    down = [[g for g in f.covers if not faces[g].ideal_point] for f in faces]
    signs = []
    for f, face in enumerate(faces):
        own = face.side_mask
        new = [faces[g].side_mask & ~own for g in down[f]]
        if set(map(int.bit_count, new)) - {1}:
            raise ComplexError(f"a cover of face {f} adds other than one wall")
        signs.append([-1 if (own & b - 1).bit_count() % 2 else 1 for b in new])

    cell_facets: list[tuple[int, ...]] = []
    incidence: list[tuple[int, ...]] = []
    for f in tops:
        cut = -1 if len(faces[f].sides) % 2 else 1
        cell_facets.append(tuple(down[f] + list(corner[f].values())))
        incidence.append(tuple(signs[f] + [cut] * len(corner[f])))
    for w, f in corners:
        cell_facets.append(tuple([corner[g][w] for g in down[f]
                                  if w in corner[g]]))
        incidence.append(tuple([s for g, s in zip(down[f], signs[f])
                                if w in corner[g]]))

    # sigma's permutation of the cells, composed into its powers
    fs, vs = fperm[1], vperm[1]
    cell_perm = sigma_powers([fs[f] for f in tops] + [
        corner[fs[f]][vs[w]] for w, f in corners])

    # orient[t][X]: det sigma^t = (-1)^t times the sign of the permutation
    # that sorts sigma^t(walls of X); sigma^t keeps the cut walls after
    # the sides, so only the sides of X's face can come out of order.
    # Along sigma^t = sigma sigma^(t-1) these signs multiply: sigma^t's
    # parity on face f sums sigma's on f, sigma f, ..., sigma^(t-1) f
    cell_face = tuple(tops + [f for _, f in corners])
    flips = [sum(a > b for a, b in combinations(
        [ctx.sigma[s] for s in sorted(f.sides)], 2)) % 2 for f in faces]
    orient, parity = [], [0] * len(faces)
    for t, fp in enumerate(fperm):
        sign = [-1 if (t + p) % 2 else 1 for p in parity]
        orient.append(tuple(map(sign.__getitem__, cell_face)))
        parity = [p ^ flips[fp[f]] for f, p in enumerate(parity)]

    return TruncatedCells(
        cells=tuple([("f", f) for f in tops]
                    + [("l", w, f) for w, f in corners]),
        cell_dim=tuple([faces[f].dim for f in tops]
                       + [faces[f].dim - 1 for _, f in corners]),
        cell_facets=tuple(cell_facets), cell_perm=cell_perm,
        orient=tuple(orient), incidence=tuple(incidence), cell_face=cell_face,
        face_corners=tuple([tuple([(c, point[w]) for w, c in cs.items()])
                            for cs in corner]))


# -- quotient complex -----------------------------------------------------


@dataclass(slots=True)
class QuotientCell:
    index: int
    dim: int
    copy: int
    cell: int
    cusp: int  # a cut corner's: its ideal point's class root; else -1
    orbit_size: int


@dataclass
class QuotientCellComplex:
    """Cells of the glued manifold and their signed boundaries, stored by
    columns: `columns[c]` is the boundary {face: coefficient} of cell c,
    and `boundaries` derives the per-degree matrices from them.  The
    homology is kept from the first `homology_groups` or
    `cusp_sections`: change no cell or column after that."""

    cells: list[QuotientCell]
    by_dim: dict[int, list[int]]
    columns: list[dict[int, int]]

    @property
    def boundaries(self) -> dict[int, dict[tuple[int, int], int]]:
        """The boundary matrices {(face, cell): coefficient} per degree,
        derived anew from the columns on each call."""
        mats: dict = {d: {} for d in self.by_dim if d > 0}
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                mats[self.cells[c].dim][r, c] = v
        return mats

    @cached_property
    def _homology(self):
        # boundary cells pair first and only with each other, so each
        # cusp's critical cells are its section's Morse complex; read them
        # before eliminate_units rewrites bd in place
        bd = morse_complex(self)[1]
        cusps = [_residue_homology(self, {c: bd[c] for c in comp if c in bd})
                 for comp in boundary_components(self)]
        eliminate_units(bd)
        return _residue_homology(self, bd), cusps

    def counts(self) -> dict[int, int]:
        return {d: len(ix) for d, ix in sorted(self.by_dim.items())}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(ix) for d, ix in self.by_dim.items())

    def boundary_cell_indices(self) -> list[int]:
        return [c.index for c in self.cells if c.cusp >= 0]

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
                 "boundary": c.cusp >= 0, "orbit": c.orbit_size}
                for c in self.cells],
        }


def build_quotient_complex(arr: EightPPairing) -> QuotientCellComplex:
    """Glue eight truncated copies along the pairing and assemble the
    signed boundary columns of the quotient cell complex.  Cell classes
    are the classes of the faces under them in `face_cycles_proper(arr)`,
    cached for the last gluing, so no second pass after certification
    (the complex pays for their walk): if X's face has root in copy r and
    transport sigma^t, X's root is cell cell_perm[-t][X] of copy r.  A cut
    corner ('l', w, face) is on the cusp of the class of ideal point w."""
    if not isinstance(arr, EightPPairing):
        raise ComplexError(f"the quotient complex needs an EightPPairing, "
                           f"not a {type(arr).__name__}")
    proper = face_cycles_proper(arr)
    if not proper.proper:
        raise ComplexError(f"side-pairing is not proper: {proper.violation}")
    face_root, face_t = proper.roots, proper.transports
    lctx = lattice_context()
    nf = len(lctx.lattice.faces)
    tc = truncated_cells()
    cell_face, orient, dim_of = tc.cell_face, tc.orient, tc.cell_dim
    facets, incidence = tc.cell_facets, tc.incidence
    dims, corners = lctx.dims, tc.face_corners
    cycle = lctx.cycle_lengths  # the class sizes of a proper gluing
    ncells = len(tc.cells)
    back = [tc.cell_perm[-t] for t in range(8)]

    # one quotient cell per class, the root: per copy, its root faces'
    # truncated cells, then their cut corners; qindex[copy * ncells + cell]
    qindex = [-1] * (8 * ncells)
    qcells: list[QuotientCell] = []
    by_dim: dict[int, list[int]] = {}
    for copy in range(8):
        base = copy * nf
        own = [f for f in range(nf) if face_root[base + f] == base + f]
        # the ideal points are numbered last, so truncated face f is cell f
        made = [(f, -1, f) for f in own if dims[f] is not None]
        made += [(c, face_root[base + w], f) for f in own
                 for c, w in corners[f]]
        for cidx, cusp, f in made:
            q = QuotientCell(len(qcells), dim_of[cidx], copy, cidx, cusp,
                             cycle[f])
            qindex[copy * ncells + cidx] = q.index
            qcells.append(q)
            by_dim.setdefault(q.dim, []).append(q.index)

    # facet b0 of a copy carries the orientation of its class root moved
    # by sigma^t, so its sign is incidence * orient[t][root cell]; the
    # root of face instance f lies in the copy whose cells start at offset[f]
    offset = [r // nf * ncells for r in face_root]
    columns: list[dict[int, int]] = []
    for q in qcells:
        col: dict[int, int] = {}
        base = q.copy * nf
        for b0, sign in zip(facets[q.cell], incidence[q.cell]):
            f = base + cell_face[b0]
            t = face_t[f]
            rcell = back[t][b0]
            r = qindex[offset[f] + rcell]
            val = sign * orient[t][rcell]
            if r not in col:
                col[r] = val
            elif col[r] + val:
                col[r] += val
            else:
                del col[r]
        columns.append(col)
    return QuotientCellComplex(qcells, by_dim, columns)


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
        for name, c in zip(["rank"] + [f"Z/{p} count" for p in powers],
                           counts):
            if c > 9:
                raise ComplexError(f"{name} {c} of {self} does not fit one "
                                   f"digit of the encoding")
        return "".join(str(c) for c in counts)

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        for t in self.torsion:
            parts.append(f"Z/{t}")
        return " + ".join(parts) if parts else "0"


def homology_groups(cx: QuotientCellComplex) -> list[HomologyGroups]:
    """Integral homology per degree 0..top: the Morse complex that
    `cusp_sections` shares, reduced by `eliminate_units`, then
    `invariant_factors` of each residual degree."""
    return list(cx._homology[0])


def morse_complex(cx: QuotientCellComplex) -> tuple[list, dict]:
    """An acyclic matching of the cells of `cx`, as the steps in which they
    leave, (a, b) for a pair and (c,) for a critical cell, and the Morse
    boundary {critical face: value} of each c.  Coreductions (Mrozek and
    Batko, Discrete Comput. Geom. 41, 2009) pair b with its one live face
    a if [b:a] = +-1; when none can, the least live cell by (dim, index)
    is critical.  Boundary cells leave first.  A pair's other faces left
    before it (Forman, Adv. Math. 134, 1998), so the flow is swept as
    cells leave (Harker, Mischaikow, Mrozek and Nanda, Found. Comput.
    Math. 14, 2014): phi(c) = c, phi(b) = 0, phi(a) = -[b:a] sum over
    y != a of [b:y] phi(y), and c's boundary sums [c:x] phi(x)."""
    columns = cx.columns
    boundary = [c.cusp >= 0 for c in cx.cells]
    cofaces: list[list[int]] = [[] for _ in columns]
    for b, col in enumerate(columns):
        for a in col:
            cofaces[a].append(b)
    live = [len(col) for col in columns]  # live faces; < 0 once left
    flow: list[dict[int, int]] = [{}] * len(columns)
    steps: list[tuple[int, ...]] = []

    def push(col: dict[int, int], unit: int) -> dict[int, int]:
        out: dict[int, int] = {}  # a live face adds nothing: phi is 0
        get = out.get
        for x, v in col.items():
            if fx := flow[x]:
                v *= unit
                for c, w in fx.items():
                    out[c] = get(c, 0) + v * w
        return out if all(out.values()) else {
            c: w for c, w in out.items() if w}

    for phase in (True, False):
        queue = deque(c for c, n in enumerate(live)
                      if n == 1 and boundary[c] == phase)
        popleft, append = queue.popleft, queue.append
        for c in [c for d in sorted(cx.by_dim) for c in cx.by_dim[d]
                  if boundary[c] == phase]:
            while queue or live[c] >= 0:
                if not queue:  # no cell pairs, and c has no live face
                    flow[c] = {c: 1}
                    step: tuple[int, ...] = (c,)
                elif live[b := popleft()] != 1:
                    continue
                else:
                    col = columns[b]
                    for a in col:
                        if live[a] >= 0:
                            break
                    if col[a] not in (1, -1):
                        continue
                    flow[a] = push(col, -col[a])
                    step = (a, b)
                steps.append(step)  # the cells of step leave
                for x in step:
                    live[x] = -1
                    for y in cofaces[x]:
                        n = live[y] = live[y] - 1
                        if n == 1 and boundary[y] == phase:
                            append(y)
    return steps, {s[0]: push(columns[s[0]], 1) for s in steps if len(s) < 2}


def _residue_homology(cx: QuotientCellComplex,
                      bd: dict[int, dict[int, int]]) -> list[HomologyGroups]:
    """Homology per degree 0..top of the chain complex `bd` on some of the
    cells of `cx`: a Morse complex of them, or its residue after
    `eliminate_units`."""
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
    """The cells of each cusp, in order of their first cells: the
    components of the boundary subcomplex, which is closed under faces."""
    comps: dict[int, set[int]] = {}
    for c in cx.cells:
        if c.cusp >= 0:
            comps.setdefault(c.cusp, set()).add(c.index)
    return list(comps.values())


def cusp_sections(cx: QuotientCellComplex) -> list[list[HomologyGroups]]:
    """Homology of each boundary component (the cusp cross-sections),
    from its critical cells in the Morse complex that homology shares."""
    return [list(groups) for groups in cx._homology[1]]
