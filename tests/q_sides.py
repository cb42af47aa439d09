"""Test-local lookups on the sides of a reflected union: the sides of one
group, and each side's index by its normal; and the union's vertices and
generic face lattice, the oracle for the faces coxglue lists off the base
polytope's lattice (`QPolytope.faces`)."""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from coxglue.lorentz import Vec
from coxglue.polytope import (
    FaceLattice,
    QPolytope,
    QSide,
    RightAngledPolytope,
    build_polytope,
    build_q,
)


def group_members(q: QPolytope, group: int) -> list[QSide]:
    return [s for s in q.sides if s.group == group]


def normal_index(q: QPolytope) -> dict[tuple[int, ...], int]:
    return {s.normal: s.index for s in q.sides}


@lru_cache(maxsize=None)
def q_vertices(n: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """The union's actual vertices, the sign images of the base's actual
    vertices on no coordinate wall, and its ideal vertices, the sign
    images of all the base's ideal vertices; each sorted."""
    base = build_polytope(n)
    patterns = list(product((1, -1), repeat=n))

    def images(vertices):
        return tuple(sorted({tuple(s * c for s, c in zip(signs, v)) + v[-1:]
                             for v in vertices for signs in patterns}))

    return (images(v for v in base.actual_vertices if all(v[:-1])),
            images(base.ideal_vertices))


@lru_cache(maxsize=None)
def q_lattice(n: int) -> FaceLattice:
    """The generic face lattice of the union, from its side normals and
    vertices; built once per process (Q6: 56,761 faces in about 2 s)."""
    actual, ideal = q_vertices(n)
    normals = tuple(s.normal for s in build_q(n).sides)
    return FaceLattice(RightAngledPolytope(n, normals, actual, ideal))
