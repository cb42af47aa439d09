"""Right-angled hyperbolic polytopes and their exact face lattices.

The polytope in dimension n is assembled as the orbit of the Coxeter
simplex under its finite symmetry group: side normals are the orbit of the
n-th coordinate reflection normal, vertices the orbits of the time basis
vector (actual) and of the first ideal simplex vertex (lightlike).

The non-ideal faces of a right-angled polytope are exactly the sets of
pairwise perpendicular sides whose intersection holds a vertex; the
polytope itself is the empty set. The faces of codimension k + 1 come from
extending each face S of codimension k by every side a > max(S) that is
perpendicular to all of S and meets it. Faces are numbered by codimension,
then lexicographically by sorted sides, with the ideal points last in
vertex order, so every cover list comes out ascending. A face's dimension
is the rank of its vertices less 1, and the sides containing those
vertices must be exactly S. The sides of S are spacelike (checked once)
and pairwise perpendicular, so independent, and hold every vertex of the
face: the rank is at most min(n + 1 - |S|, number of vertices). The rank
of the vertices reduced mod 2 is at most the rank, so a face whose rank
mod 2 reaches that bound has it exactly; only the other faces are counted
by exact integer elimination, which stops at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Iterable, Sequence

from . import tables
from .coxeter import group_orbit, outward_canonical, symmetry_generators
from .errors import CoxglueError
from .gf2 import _basis, bits
from .lorentz import RowSpan, Vec, lorentz_inner


class LatticeError(CoxglueError, RuntimeError):
    """Face lattice construction met inconsistent incidence data."""


class DimensionError(CoxglueError, ValueError):
    """No polytope of the requested kind exists in that dimension."""


@dataclass(frozen=True)
class RightAngledPolytope:
    """Outward unit side normals plus exact vertex data."""

    dim: int
    normals: tuple[Vec, ...]
    actual_vertices: tuple[Vec, ...]
    ideal_vertices: tuple[Vec, ...]

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return self.actual_vertices + self.ideal_vertices

    @property
    def n_actual(self) -> int:
        return len(self.actual_vertices)

    def incidence_masks(self) -> list[int]:
        """Per side, the bitmask of incident vertices."""
        return [sum(1 << vid for vid, v in enumerate(self.vertices)
                    if lorentz_inner(u, v) == 0) for u in self.normals]

    def side_masks(self, incidence: list[int]) -> list[int]:
        """Per vertex, the bitmask of incident sides, transposed from
        `incidence` (per side, as incidence_masks gives)."""
        out = [0] * len(self.vertices)
        for j, m in enumerate(incidence):
            for vid in bits(m):
                out[vid] |= 1 << j
        return out

    def perpendicular_pairs(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j in combinations(range(len(self.normals)), 2)
                if lorentz_inner(self.normals[i], self.normals[j]) == 0}


def _side_sort_key(u: Vec) -> tuple:
    support = [i for i, c in enumerate(u[:-1]) if c]
    return (u[-1], tuple(sorted(support, reverse=True)))


@lru_cache(maxsize=None)
def build_polytope(n: int) -> RightAngledPolytope:
    """The right-angled polytope in dimension n, 2 <= n <= 7, built once
    per process.

    For n = 6 the generated data is cross-checked entry by entry against
    the embedded canonical tables.
    """
    if not 2 <= n <= 7:
        raise DimensionError("dimension must be between 2 and 7")
    gens = symmetry_generators(n)
    e_time = tuple([0] * n + [1])
    actual = group_orbit(gens, [e_time])
    ideal_seed = tuple(1 if i in (0, n) else 0 for i in range(n + 1))
    ideal = group_orbit(gens, [ideal_seed])
    vertices = actual + ideal
    # the orbit meets each normal once per generator: take its products once
    canon = lru_cache(maxsize=None)(partial(outward_canonical,
                                            vertices=vertices))
    seeds = [tuple((-1 if i == n - 1 else 0) for i in range(n + 1))]
    if n == 2:
        seeds.append((1, 1, 1))
    normals = group_orbit(gens, seeds, canonical=canon)
    normals = tuple(sorted(normals, key=_side_sort_key))
    # codes rely on this layout: sides 0..n-1 are the coordinate walls
    # -e_1..-e_n, and each later side s spans the union's group s - n
    walls = tuple(tuple(-int(i == c) for i in range(n + 1)) for c in range(n))
    if normals[:n] != walls or any(
            sum(map(bool, u[:-1])) < 2 for u in normals[n:]):
        raise LatticeError(f"sides 1..{n} are not the coordinate walls "
                           f"-e_1..-e_{n} alone")
    poly = RightAngledPolytope(n, normals, actual, ideal)
    if n == 6:
        want_normals = tables.p6_side_normals()
        if normals != want_normals:
            raise LatticeError("generated normals disagree with embedded table")
        want_actual, want_ideal = tables.p6_vertices()
        if set(actual) != set(want_actual) or set(ideal) != set(want_ideal):
            raise LatticeError("generated vertices disagree with embedded table")
    return poly


@dataclass
class Face:
    """A face of the lattice; dim-0 entries at ideal vertices are tagged.
    `side_mask` holds its sides as a bitmask."""

    index: int
    dim: int
    sides: frozenset[int]
    side_mask: int
    vertex_mask: int
    ideal_point: bool = False
    edge_kind: str | None = None
    covers: list[int] = field(default_factory=list)


class FaceLattice:
    """Complete poset of faces of a right-angled polytope."""

    def __init__(self, polytope: RightAngledPolytope) -> None:
        self.polytope = polytope
        self.faces: list[Face] = []
        self.by_vertex_mask: dict[int, int] = {}
        self._build()

    # -- construction ---------------------------------------------------
    def _build(self) -> None:
        poly = self.polytope
        n = poly.dim
        nsides = len(poly.normals)
        for j, u in enumerate(poly.normals):
            if lorentz_inner(u, u) <= 0:
                raise LatticeError(f"side {j + 1} is not spacelike")
        all_sides = (1 << nsides) - 1
        inc = poly.incidence_masks()
        smask = poly.side_masks(inc)
        homog = poly.vertices
        mod2 = [sum((c & 1) << i for i, c in enumerate(v)) for v in homog]
        actual = (1 << poly.n_actual) - 1
        perp = [0] * nsides
        for i, j in poly.perpendicular_pairs():
            perp[i] |= 1 << j
            perp[j] |= 1 << i

        def add_face(vmask: int, sbits: int | None = None) -> int:
            """Record a face: a non-ideal one with its sides `sbits`, which
            must be all sides at its vertices; an ideal point with those."""
            closure = all_sides
            vids = list(bits(vmask))
            for vid in vids:
                closure &= smask[vid]
            bound = min(n + 1 - (sbits or 0).bit_count(), len(vids))
            rank = len(_basis([mod2[vid] for vid in vids]))
            if rank < bound:  # not certified mod 2: count exactly
                span = RowSpan()
                for vid in vids:
                    if span.rank < bound:
                        span.add(homog[vid])
                rank = span.rank
            dim = rank - 1
            ideal_point = sbits is None
            sides = frozenset(bits(closure if ideal_point else sbits))
            if sbits == 0 and dim != n:
                raise _face_error(sides, dim, "vertex set does not span the "
                                  "ambient space")
            if not ideal_point and closure != sbits:
                raise _face_error(sides, dim, "its vertices lie in sides "
                                  f"{_one_based(bits(closure))}")
            if not ideal_point and len(sides) != n - dim:
                raise _face_error(sides, dim, f"expected dim {n - len(sides)}")
            if dim == 1 and vmask.bit_count() != 2:
                raise _face_error(sides, dim,
                                  f"edge with {vmask.bit_count()} vertices")
            # closure == sbits on a face, checked above
            face = Face(len(self.faces), dim, sides, closure, vmask,
                        ideal_point)
            if dim == 1:
                face.edge_kind = ("line", "ray", "segment")[
                    (vmask & actual).bit_count()]
            if vmask in self.by_vertex_mask:
                other = self.faces[self.by_vertex_mask[vmask]]
                raise _face_error(sides, dim, "shares its vertex set with the "
                                  f"face on sides {_one_based(other.sides)}")
            self.faces.append(face)
            self.by_vertex_mask[vmask] = face.index
            return face.index

        # level k: the codim-k faces S in order, with the sides perpendicular
        # to all of S; S + {a} is new if a > max(S), else made from a smaller S
        level = [(add_face((1 << len(homog)) - 1, 0), 0, all_sides)]
        for _ in range(n):
            nxt = []
            for fidx, sbits, common in level:
                face = self.faces[fidx]
                for a in bits(common):
                    vmask = face.vertex_mask & inc[a]
                    if not vmask:
                        continue
                    if 1 << a > sbits:
                        gidx = add_face(vmask, sbits | 1 << a)
                        nxt.append((gidx, sbits | 1 << a, common & perp[a]))
                    else:
                        gidx = self.by_vertex_mask[vmask]
                    face.covers.append(gidx)
            level = nxt
        # no perpendicular extension reaches an ideal vertex (its sides pair
        # up non-perpendicularly): add them last, below their edges
        for vid in range(poly.n_actual, len(homog)):
            add_face(1 << vid)
        for face in self.faces:
            if face.dim == 1:
                face.covers.extend(self.by_vertex_mask[1 << v]
                                   for v in bits(face.vertex_mask & ~actual))

    # -- queries ---------------------------------------------------------
    def counts(self) -> dict[int, int]:
        """Faces of the open polytope per dimension (ideal points excluded)."""
        out: dict[int, int] = {}
        for f in self.faces:
            if not f.ideal_point:
                out[f.dim] = out.get(f.dim, 0) + 1
        return out

    def census(self) -> dict[str, int]:
        n = self.polytope.dim
        c = self.counts()
        kinds = [f.edge_kind for f in self.faces]
        return {
            "dim": n,
            "sides": c.get(n - 1, 0),
            "actual_vertices": c.get(0, 0),
            "ideal_vertices": sum(1 for f in self.faces if f.ideal_point),
            "ray_edges": kinds.count("ray"),
            "line_edges": kinds.count("line"),
            **{f"faces_{d}": c.get(d, 0) for d in range(n + 1)},
        }

    def vertex_ids(self, face: Face) -> tuple[int, ...]:
        return tuple(bits(face.vertex_mask))


def _one_based(sides: Iterable[int]) -> list[int]:
    """Side indices as error messages print them."""
    return sorted(s + 1 for s in sides)


def _face_error(sides: Iterable[int], dim: int, why: str) -> LatticeError:
    return LatticeError(
        f"face on sides {_one_based(sides)} of dim {dim}: {why}")


@lru_cache(maxsize=None)
def face_lattice(poly: RightAngledPolytope) -> FaceLattice:
    """The face lattice of a right-angled polytope, built once per process
    for each.  The reflected union has none: it lists its faces off its
    base polytope's lattice, in `QPolytope.faces`."""
    return FaceLattice(poly)


# -- the doubled polytope ----------------------------------------------


@dataclass(frozen=True)
class QSide:
    """One side of the reflected union, tagged by its generating data."""

    index: int
    signs: tuple[int, ...]
    normal: Vec
    group: int
    large: bool


@dataclass(frozen=True)
class QPolytope:
    """Union of the polytope's reflections along the coordinate walls."""

    base: RightAngledPolytope
    sides: tuple[QSide, ...]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_groups(self) -> int:
        return self.sides[-1].group + 1

    @cached_property
    def flips(self) -> tuple[tuple[int, ...], ...]:
        """flips[k][s]: the side that the sign flip with digit value k
        carries side s to, a symmetry of the union."""
        index = {s.normal: s.index for s in self.sides}
        return tuple(tuple(index[_apply_signs(signs, s.normal)]
                           for s in self.sides)
                     for signs in _sign_patterns(self.dim))

    @cached_property
    def faces(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(dim, sorted sides) of every face but the ideal points, numbered
        as a face lattice numbers them: by codimension, then by sorted
        sides.  Each is a face of the base polytope on no coordinate wall
        moved by a sign flip k, which carries base side s to the union's
        side flips[k][u], u the unflipped side of group s - n."""
        n, flips = self.dim, self.flips
        unflipped = [s.index for s in self.sides if -1 not in s.signs]
        faces = {(f.dim, tuple(sorted(flips[k][unflipped[s - n]]
                                      for s in f.sides)))
                 for f in face_lattice(self.base).faces
                 if not f.ideal_point and min(f.sides, default=n) >= n
                 for k in range(1 << n)}
        return tuple(sorted(faces, key=lambda f: (-f[0], f[1])))


def _apply_signs(signs: Sequence[int], v: Vec) -> Vec:
    return tuple(s * c for s, c in zip(signs, v)) + (v[-1],)


def _sign_patterns(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2^n sign flips on n coordinates, by digit value: bit i of the
    value flips coordinate i."""
    return tuple(tuple(1 - 2 * ((k >> i) & 1) for i in range(n))
                 for k in range(1 << n))


@lru_cache(maxsize=None)
def build_q(n: int) -> QPolytope:
    """The reflected union with its standard side order, built once per
    process; its faces, in `QPolytope.faces`, come from the base
    polytope's lattice when first read.

    Sides come in groups, group g for base side n + g, listing sign
    patterns on the nonzero coordinates in ascending binary order with
    the lowest coordinate as the least significant bit.
    """
    if n not in (5, 6):
        raise DimensionError("the reflected union is built in dimension 5 or 6")
    base = build_polytope(n)
    sides: list[QSide] = []
    for group, u in enumerate(base.normals[n:]):
        support = [i for i, c in enumerate(u[:-1]) if c]
        z = len(support)
        for m in range(1 << z):
            signs = [1] * n
            for bit in range(z):
                if (m >> bit) & 1:
                    signs[support[bit]] = -1
            normal = _apply_signs(signs, u)
            sides.append(QSide(len(sides), tuple(signs), normal,
                               group, z == 2))
    return QPolytope(base, tuple(sides))
