"""Smith normal form over the integers.

`eliminate_units` reduces a sparse chain complex along its +-1
incidences by a heap; homology runs it once, on the Morse complex of a
gluing.  The small residues, which have no unit entries, are finished
by `invariant_factors`, a sparse-to-dense wrapper around
`smith_normal_form`: one pass of pivot reduction on one matrix, whose
identity blocks carry the unimodular transforms when they are asked
for; homology asks for the diagonal alone.  Entries are ints, and all
arithmetic is on them, so entry growth is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from typing import Mapping, Sequence

from .errors import DimensionMismatch


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


def smith_normal_form(a: Sequence[Sequence[int]], *,
                      transforms: bool = True) -> SmithDecomposition:
    """Dense SNF with transforms, by one pass of pivot reduction; with
    transforms=False, u and v hold no entries.

    One matrix, [[A, I], [I]], carries the transforms: u is the block
    right of A, which A's row operations update, and v the block below,
    which its column operations update; without transforms it is A alone.
    Each pivot is the least nonzero entry left.  Once it has cleared its
    row and column, a pivot above 1 that does not divide some entry of
    the rest has that entry's row added to its own, and the step repeats
    with a smaller remainder.  So each pivot divides all that is left and
    the diagonal, all positive, meets the divisibility chain as it comes.
    A ragged matrix raises DimensionMismatch, an entry not an int (bools
    too) ValueError.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = []
    for i, row in enumerate(a):
        if len(row) != cols:
            raise DimensionMismatch(f"ragged matrix at row {i}")
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"entry ({i}, {j}) is {x!r}, not an int")
        m.append([*row, *(int(i == k) for k in range(rows * transforms))])
    m += [[int(i == j) for j in range(cols)]
          for i in range(cols * transforms)]

    def least(t):
        """The first nonzero entry of least magnitude in the rest."""
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        best = least(t)
        if best is None:
            break
        while best is not None:
            i, j = best
            if i != t:
                m[t], m[i] = m[i], m[t]
            if j != t:
                for r in m:
                    r[t], r[j] = r[j], r[t]
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            p = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    c = -(m[i][t] // p)
                    m[i] = [x + c * y for x, y in zip(m[i], m[t])]
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    c = -(m[t][j] // p)
                    for r in m:
                        r[j] += c * r[t]
                    if m[t][j]:
                        dirty = True
            if not dirty and p > 1:
                bad = next((i for i in range(t + 1, rows)
                            if any(x % p for x in m[i][t + 1:cols])), None)
                if bad is not None:
                    m[t] = [x + y for x, y in zip(m[t], m[bad])]
                    dirty = True
            best = least(t) if dirty else None

    diag = tuple(m[i][i] for i in range(min(rows, cols)) if m[i][i])
    return SmithDecomposition(diag, tuple(tuple(r[cols:]) for r in m[:rows]),
                              tuple(tuple(r) for r in m[rows:]), (rows, cols))


def eliminate_units(bd: dict[int, dict[int, int]]) -> int:
    """Reduce a chain complex in place along its +-1 incidences.

    `bd` maps every cell to its boundary {face: coefficient}, and every
    face is a key too.  A heap takes the cells b shortest boundary first,
    each with its +-1 face a of fewest cofaces, and the pair leaves by a
    Schur update: a is cleared from its other cofaces, then b leaves the
    boundaries of its cofaces and a its own.  Homology is unchanged; on
    return `bd` holds the residue, in which no cell keeps a +-1 face.
    Returns the pair count: 67 to 84 on the Morse complexes of the nine
    gluings, which leaves 73 to 87 cells.
    """
    cobd: dict[int, dict[int, int]] = {c: {} for c in bd}
    for b, faces in bd.items():
        for a, v in faces.items():
            cobd[a][b] = v
    heap = [(len(f), b) for b, f in bd.items() if f]
    heapq.heapify(heap)
    cells = len(bd)
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
        for a2 in bd.pop(b):
            del cobd[a2][b]
        for b2, c in list(cobd[a].items()):
            f = -c * u  # c + f * u == 0 as u * u == 1: a leaves row b2
            row = bd[b2]
            for a2, v in faces.items():
                x = row.get(a2, 0) + f * v
                if x:
                    row[a2] = cobd[a2][b2] = x
                else:
                    del row[a2], cobd[a2][b2]
            heapq.heappush(heap, (len(row), b2))
        for e in cobd.pop(b):
            del bd[e][b]
            heapq.heappush(heap, (len(bd[e]), e))
        for a2 in bd.pop(a):
            del cobd[a2][a]
        del cobd[a]
    return (cells - len(bd)) // 2


def invariant_factors(
    entries: Mapping[tuple[int, int], int],
    shape: tuple[int, int],
) -> tuple[int, ...]:
    """Invariant factors (nonzero SNF diagonal, ascending) of one matrix.

    Takes a sparse {(row, col): value} mapping of ints inside the (rows,
    columns) shape of the matrix; a key outside it raises
    DimensionMismatch, a key not a pair, or an index or value not an int
    (bools too), ValueError.  The rows and columns with an entry are made
    dense and reduced by `smith_normal_form`; the others add no factor.
    """
    for key, val in entries.items():
        if type(key) is not tuple or [*map(type, key), type(val)] != [int] * 3:
            raise ValueError(f"entry {key}: {val!r} is not an int entry")
        if not (0 <= key[0] < shape[0] and 0 <= key[1] < shape[1]):
            raise DimensionMismatch(
                f"entry {key} lies outside the shape {shape}")
    nonzero = {k: val for k, val in entries.items() if val}
    rows = {i: n for n, i in enumerate(sorted({i for i, _ in nonzero}))}
    cols = {j: n for n, j in enumerate(sorted({j for _, j in nonzero}))}
    dense = [[0] * len(cols) for _ in rows]
    for (i, j), val in nonzero.items():
        dense[rows[i]][cols[j]] = val
    return smith_normal_form(dense, transforms=False).diagonal
