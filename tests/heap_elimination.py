"""An oracle for the homology of coxglue.homology: the reduction of a
chain complex along its +-1 incidences by a heap alone, shortest
boundary first, with no Morse matching in front of it.

The tests reduce whole complexes and each cusp apart with this kernel,
on the columns as assembled, and compare the homology with what the
shared Morse route of coxglue.homology gives.
"""

from __future__ import annotations

import heapq
from typing import Container


def heap_elimination(bd: dict[int, dict[int, int]],
                     pivots: Container[int] | None = None) -> int:
    """Reduce a chain complex in place along its +-1 incidences.

    `bd` maps every cell to its boundary {face: coefficient}, and every
    face is a key too.  Cells are taken shortest boundary first; a cell
    b pairs with its +-1 face a of fewest cofaces.  The Schur update
    clears a from the other cofaces of a, then b leaves the boundaries
    of its cofaces and a its own.  Only cells in `pivots` (default: all)
    pair, and none of them keeps a +-1 face.  Returns the pair count.
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
