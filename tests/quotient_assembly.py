"""Oracles for coxglue.homology.build_quotient_complex: the assembly of
the quotient cell complex into per-degree boundary matrices
{(face, cell): coefficient}, through a dict of class roots keyed by
(face root, truncated cell); the boundary-squared check on such
matrices, which regroups each degree by columns; and the check that the
assembly is a chain map from the eight copies' cells.

coxglue stores the complex by columns and runs no boundary-squared pass
of its own: the assembly is a chain map, and the premises that make it
one are tested on the truncated polytope.  The tests compare the cells,
their order and each column's item order with `instance_complex`, the
columns with the matrices of `assemble`, run `check_dd_zero` on
complexes built from published, relabeled and searched gluings, and
`check_chain_map` on some of them.
"""

from __future__ import annotations

from collections import Counter

from coxglue import homology as hm
from coxglue.verify import PropernessCertificate, lattice_context

Matrices = dict[int, dict[tuple[int, int], int]]


def assemble(proper: PropernessCertificate
             ) -> tuple[list[hm.QuotientCell], dict[int, list[int]], Matrices]:
    """Cells, cell indices per dimension and boundary matrices of the
    quotient complex whose face classes `proper` traced."""
    cx = instance_complex(proper)
    mats: Matrices = {d: {} for d in cx.by_dim if d > 0}
    for q, col in zip(cx.cells, cx.columns):
        for r, val in col.items():
            mats[q.dim][r, q.index] = val
    return cx.cells, cx.by_dim, mats


def instance_complex(proper: PropernessCertificate) -> hm.QuotientCellComplex:
    """The complex walked cell instance by cell instance, copy by copy:
    each class root's cell in that order, and its column, the entries
    added up in the order of the cell's facets, an entry that cancels
    removed."""
    face_root, face_t = proper.roots, proper.transports
    lat = lattice_context().lattice
    nf = len(lat.faces)
    tc = hm.truncated_cells()
    back = [tc.cell_perm[-t] for t in range(8)]
    class_size = Counter(face_root)

    roots: dict[tuple[int, int], int] = {}
    cells: list[hm.QuotientCell] = []
    by_dim: dict[int, list[int]] = {}
    for copy in range(8):
        for x in range(len(tc.cells)):
            f = copy * nf + tc.cell_face[x]
            if face_root[f] != f:
                continue
            # a cut corner ('l', w, face) is on the cusp of ideal point w
            cusp = -1
            if tc.cells[x][0] == "l":
                w = lat.by_vertex_mask[1 << tc.cells[x][1]]
                cusp = face_root[copy * nf + w]
            q = hm.QuotientCell(len(cells), tc.cell_dim[x], copy, x, cusp,
                                class_size[f])
            roots[f, x] = q.index
            cells.append(q)
            by_dim.setdefault(q.dim, []).append(q.index)

    columns = []
    for q in cells:
        col: dict[int, int] = {}
        for b0, sign in zip(tc.cell_facets[q.cell], tc.incidence[q.cell]):
            f = q.copy * nf + tc.cell_face[b0]
            r, t = face_root[f], face_t[f]
            rcell = back[t][b0]
            key = roots[r, rcell]
            val = col.get(key, 0) + sign * tc.orient[t][rcell]
            if val:
                col[key] = val
            else:
                del col[key]
        columns.append(col)
    return hm.QuotientCellComplex(cells, by_dim, columns)


def check_dd_zero(cells: list[hm.QuotientCell], mats: Matrices) -> None:
    """Raise AssertionError, worded as the complex's own check, on the
    first column by degree, then by first entry, where boundary squared
    is nonzero."""
    for d in sorted(mats):
        if d + 1 not in mats:
            continue
        faces_of: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in mats[d].items():
            faces_of.setdefault(c, []).append((r, v))
        columns: dict[int, dict[int, int]] = {}  # column c of dd
        for (r, c), v in mats[d + 1].items():
            acc = columns.setdefault(c, {})
            for rr, vv in faces_of.get(r, ()):
                acc[rr] = acc.get(rr, 0) + vv * v
        for c, acc in columns.items():
            if any(acc.values()):
                q = cells[c]
                raise AssertionError(
                    f"boundary squared is nonzero on column {c} (copy "
                    f"{q.copy + 1}, cell {hm.truncated_cells().cells[q.cell]})"
                    f" at dim {d + 1}")


def check_chain_map(proper: PropernessCertificate,
                    cx: hm.QuotientCellComplex) -> None:
    """Raise AssertionError on the first copy and cell Y, in that order,
    where the columns of `cx` break boundary pi(Y) = pi(boundary Y).  Y
    over a face with root r and transport t goes to pi(Y) =
    orient[t][R] (class of R = cell_perm[-t][Y] in the copy of r), the
    quotient cell whose copy and truncated cell are those of that root."""
    nf = len(lattice_context().lattice.faces)
    tc = hm.truncated_cells()
    n = len(tc.cells)
    index = {(q.copy, q.cell): q.index for q in cx.cells}

    def pi(copy: int, x: int) -> tuple[int, int]:
        f = copy * nf + tc.cell_face[x]
        t = proper.transports[f]
        root = tc.cell_perm[-t][x]
        return index[proper.roots[f] // nf, root], tc.orient[t][root]

    for copy in range(8):
        for x in range(n):
            q, sign = pi(copy, x)
            want = {r: sign * v for r, v in cx.columns[q].items()}
            got: dict[int, int] = {}
            for b, v in zip(tc.cell_facets[x], tc.incidence[x]):
                r, s = pi(copy, b)
                got[r] = got.get(r, 0) + v * s
            if {r: v for r, v in got.items() if v} != want:
                raise AssertionError(
                    f"the assembly is no chain map at copy {copy + 1}, "
                    f"cell {tc.cells[x]}")
