"""An oracle for the homology of coxglue.homology: the reduction of a
chain complex along its +-1 incidences, pivoting in (dim, index) order,
with no Morse matching in front of it.

It shares neither the pivot order nor the update with
coxglue.smith.eliminate_units, which takes shortest boundaries first off
a heap and updates whole rows: here each pair leaves by the entrywise
Schur complement [y:x] -= [y:a] [b:a] [b:x] (Kaczynski, Mrozek and
Slusarek, Comput. Math. Appl. 35, 1998).  The tests reduce whole
complexes and each cusp apart with it, on the columns as assembled, and
compare the homology with what the shared Morse route gives.
"""

from __future__ import annotations

from typing import Sequence


def ordered_elimination(bd: dict[int, dict[int, int]],
                        dim: Sequence[int]) -> int:
    """Reduce a chain complex in place along its +-1 incidences.

    `bd` maps every cell to its boundary {face: coefficient}, and every
    face is a key too; cell c has dimension dim[c].  The cells are swept
    in (dim, index) order, and each cell b still there pairs with its
    +-1 face a of fewest cofaces, the least such a on a tie.  Sweeps
    repeat until one makes no pair; then no cell keeps a +-1 face.
    Returns the pair count.
    """
    cofaces: dict[int, set[int]] = {c: set() for c in bd}
    for b, faces in bd.items():
        for a in faces:
            cofaces[a].add(b)
    order = sorted(bd, key=lambda c: (dim[c], c))
    pairs = 0
    while True:
        made = 0
        for b in order:
            units = [a for a, v in bd.get(b, {}).items() if v in (1, -1)]
            if units:
                a = min(units, key=lambda a: (len(cofaces[a]), a))
                _cancel(bd, cofaces, a, b)
                made += 1
        if not made:
            return pairs
        pairs += made


def _cancel(bd: dict[int, dict[int, int]], cofaces: dict[int, set[int]],
            a: int, b: int) -> None:
    """Remove the pair (a, b), [b:a] = +-1, keeping the homology: each
    other coface y of a and each other face x of b get [y:x] -=
    [y:a] [b:a] [b:x], as [b:a] is its own inverse; then a and b leave
    every boundary."""
    u = bd[b][a]
    ups = [(y, bd[y][a]) for y in cofaces[a] if y != b]
    downs = [(x, v) for x, v in bd[b].items() if x != a]
    for y, ya in ups:
        row = bd[y]
        for x, bx in downs:
            w = row.get(x, 0) - ya * u * bx
            if w:
                row[x] = w
                cofaces[x].add(y)
            else:
                row.pop(x, None)
                cofaces[x].discard(y)
    for c in (a, b):
        for x in bd.pop(c):
            cofaces[x].discard(c)
        for y in cofaces.pop(c):
            del bd[y][c]
