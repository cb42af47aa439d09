"""An oracle for coxglue.homology.boundary_components: the connected
components of the boundary subcomplex, found by a union-find with path
halving over the boundary cells' columns.

coxglue reads each boundary cell's cusp off the ideal-point classes of
the eight-copy face pass and groups the cells by it; the tests check
those groups against this walk of the incidences, and the small random
complexes of the homology tests take their cusp labels from it.
"""

from __future__ import annotations

from typing import Sequence


def boundary_components(boundary: Sequence[bool],
                        columns: Sequence[dict[int, int]]) -> list[set[int]]:
    """Components of the cells c with boundary[c], joined by the entries
    of their columns (a subcomplex closed under faces has all its
    incidences there), in order of their first cells."""
    parent = [c if flag else -1 for c, flag in enumerate(boundary)]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, col in enumerate(columns):
        if parent[c] >= 0:
            for r in col:
                if parent[r] >= 0:
                    parent[find(r)] = find(c)
    comps: dict[int, set[int]] = {}
    for c, p in enumerate(parent):
        if p >= 0:
            comps.setdefault(find(c), set()).add(c)
    return sorted(comps.values(), key=min)
