"""Smith normal form over the integers.

`eliminate_units` reduces a sparse chain complex along its +-1
incidences; homology runs it boundary cells first, and finishes the
small residues, which have no unit entries, with the dense
`smith_normal_form` (with unimodular transforms; also the reference the
tests use).  `invariant_factors` does the same for one matrix.
All arithmetic is on Python ints, so entry growth is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from math import gcd
from typing import Container, Mapping, Sequence


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = diag(diagonal) padded to source_shape."""

    diagonal: tuple[int, ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    source_shape: tuple[int, int]

    def verify(self, a: Sequence[Sequence[int]]) -> bool:
        rows, cols = self.source_shape
        prod = _mul(_mul(self.u, [list(r) for r in a]), self.v)
        for i in range(rows):
            for j in range(cols):
                want = self.diagonal[i] if i == j and i < len(self.diagonal) else 0
                if prod[i][j] != want:
                    return False
        for d, dn in zip(self.diagonal, self.diagonal[1:]):
            if d == 0 or dn % d:
                return False
        return True


def _mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Dense SNF with transforms, classical pivot reduction."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[int(x) for x in row] for row in a]
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # find a nonzero pivot of least magnitude
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while True:
            i, j = best
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if m[t][t] < 0:
                negate_row(t)
            p = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    add_row(t, i, -(m[i][t] // p))
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    add_col(t, j, -(m[t][j] // p))
                    if m[t][j]:
                        dirty = True
            if not dirty:
                break
            best = (t, t)
            for i in range(t, rows):
                for j in range(t, cols):
                    x = m[i][j]
                    if x and abs(x) < abs(m[best[0]][best[1]]):
                        best = (i, j)
        t += 1

    diag = [m[i][i] for i in range(limit) if m[i][i]]
    # enforce the divisibility chain: gcd/lcm sweeps move factors left
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a_, b_ = diag[i], diag[i + 1]
            if b_ % a_:
                g = gcd(a_, b_)
                l = a_ * b_ // g
                _chain_fix(m, u, v, i, i + 1, g, l)
                diag[i], diag[i + 1] = g, l
                changed = True
    return SmithDecomposition(tuple(diag), tuple(tuple(r) for r in u),
                              tuple(tuple(r) for r in v), (rows, cols))


def _chain_fix(m, u, v, i, j, g, l):
    """Replace diag entries (a, b) at i, j by (gcd, lcm) via unimodular ops."""
    a, b = m[i][i], m[j][j]
    # x*a + y*b = g
    x, y = _bezout(a, b)
    # row_i += row_j ; col arrangement mirrors the 2x2 identity
    # [[x, y], [-b/g, a/g]] * diag(a,b) * [[1, -y*b/g], [1, x*a/g]] = diag(g, l)
    bg, ag = b // g, a // g
    for col in range(len(m[0])):
        ri, rj = m[i][col], m[j][col]
        m[i][col] = x * ri + y * rj
        m[j][col] = -bg * ri + ag * rj
    for col in range(len(u[0])):
        ri, rj = u[i][col], u[j][col]
        u[i][col] = x * ri + y * rj
        u[j][col] = -bg * ri + ag * rj
    for row in range(len(m)):
        ci, cj = m[row][i], m[row][j]
        m[row][i] = ci + cj
        m[row][j] = -y * bg * ci + x * ag * cj
    for row in range(len(v)):
        ci, cj = v[row][i], v[row][j]
        v[row][i] = ci + cj
        v[row][j] = -y * bg * ci + x * ag * cj


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def eliminate_units(bd: dict[int, dict[int, int]],
                    pivots: Container[int] | None = None) -> int:
    """Reduce a chain complex in place along its +-1 incidences.

    `bd` maps every cell to its boundary {face: coefficient}, and every
    face is a key too.  Cells are taken shortest boundary first; a cell
    b pairs with its +-1 face a of fewest cofaces.  The Schur update
    clears a from the other cofaces of a, then b leaves the boundaries
    of its cofaces and a its own.  Homology is unchanged; on return `bd`
    holds the residue.  Only cells in `pivots` (default: all) pair, and
    none of them keeps a +-1 face.  Returns the pair count.  An update
    adds faces of b only, so if `pivots` is closed under faces, the
    pivots left in `bd` are the residue of their subcomplex alone.
    """
    cobd: dict[int, dict[int, int]] = {c: {} for c in bd}
    for b, faces in bd.items():
        for a, v in faces.items():
            cobd[a][b] = v
    allowed = bd if pivots is None else pivots  # every live cell is in bd
    heap = [(len(f), b) for b, f in bd.items() if f and b in allowed]
    heapq.heapify(heap)
    pairs = 0
    while heap:
        size, b = heapq.heappop(heap)
        faces = bd.get(b)
        if faces is None or len(faces) != size:
            continue  # stale: the cell left or its boundary changed
        a = min((x for x, v in faces.items() if v == 1 or v == -1),
                key=lambda x: len(cobd[x]), default=None)
        if a is None:
            continue  # re-enters the heap if its boundary ever changes
        u = faces[a]
        for b2, c in list(cobd[a].items()):
            if b2 == b:
                continue
            f = -c * u  # c + f * u == 0 as u * u == 1: a leaves row b2
            row = bd[b2]
            for a2, v in faces.items():
                x = row.get(a2, 0) + f * v
                if x:
                    row[a2] = cobd[a2][b2] = x
                else:
                    del row[a2], cobd[a2][b2]
            if b2 in allowed:
                heapq.heappush(heap, (len(row), b2))
        for a2 in bd.pop(b):
            del cobd[a2][b]
        for e in cobd.pop(b):
            row = bd[e]
            del row[b]
            if e in allowed:
                heapq.heappush(heap, (len(row), e))
        for a2 in bd.pop(a):
            del cobd[a2][a]
        del cobd[a]
        pairs += 1
    return pairs


def invariant_factors(
    entries: Mapping[tuple[int, int], int],
    shape: tuple[int, int],
) -> tuple[int, ...]:
    """Invariant factors (nonzero SNF diagonal) without transforms.

    Takes a sparse {(row, col): value} mapping inside the (rows, columns)
    shape of the matrix, else ValueError; rows and columns with no entry
    add no factor.  The matrix is reduced by `eliminate_units` as a
    two-term complex, and its residue by `smith_normal_form`.
    """
    # column j is cell j, row i is cell ~i (negative, so they never meet)
    bd: dict[int, dict[int, int]] = {}
    for (i, j), val in entries.items():
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise ValueError(f"entry {(i, j)} lies outside the shape {shape}")
        if val:
            bd.setdefault(j, {})[~i] = int(val)
            bd.setdefault(~i, {})
    factors = [1] * eliminate_units(bd)
    cols = [faces for faces in bd.values() if faces]
    if cols:
        rows = sorted({i for faces in cols for i in faces})
        dense = [[faces.get(i, 0) for faces in cols] for i in rows]
        factors.extend(abs(d) for d in smith_normal_form(dense).diagonal)
    factors.sort()
    return tuple(factors)
