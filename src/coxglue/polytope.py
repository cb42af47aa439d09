"""Right-angled hyperbolic polytopes and their exact face lattices.

The polytope in dimension n is assembled as the orbit of the Coxeter
simplex under its finite symmetry group: side normals are the orbit of the
n-th coordinate reflection normal, vertices the orbits of the time basis
vector (actual) and of the first ideal simplex vertex (lightlike).

Faces are enumerated top down: a face is recorded via the closed set of
sides containing it, extensions add one perpendicular side at a time, and
the affine dimension of every face is certified by an exact rank check on
its incident vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Iterable, Sequence

from . import tables
from .coxeter import group_orbit, outward_canonical, symmetry_generators
from .lorentz import RowSpan, Vec, lorentz_inner


class LatticeError(RuntimeError):
    """Face lattice construction met inconsistent incidence data."""


class DimensionError(ValueError):
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

    def is_actual(self, vertex_id: int) -> bool:
        return vertex_id < len(self.actual_vertices)

    def incidence_masks(self) -> list[int]:
        """Per side, the bitmask of incident vertices."""
        out = []
        for u in self.normals:
            m = 0
            for vid, v in enumerate(self.vertices):
                if lorentz_inner(u, v) == 0:
                    m |= 1 << vid
            out.append(m)
        return out

    def side_masks(self, incidence: list[int] | None = None) -> list[int]:
        """Per vertex, the bitmask of incident sides, transposed from
        `incidence` (per side, as incidence_masks gives) when at hand."""
        inc = self.incidence_masks() if incidence is None else incidence
        out = [0] * len(self.vertices)
        for j, m in enumerate(inc):
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= 1 << j
                m ^= low
        return out

    def perpendicular_pairs(self) -> set[tuple[int, int]]:
        pairs = set()
        for i in range(len(self.normals)):
            for j in range(i + 1, len(self.normals)):
                if lorentz_inner(self.normals[i], self.normals[j]) == 0:
                    pairs.add((i, j))
        return pairs

    def validate(self) -> None:
        for u in self.normals:
            if lorentz_inner(u, u) != 1:
                raise LatticeError("side normal is not a unit vector")
            for v in self.vertices:
                if lorentz_inner(u, v) > 0:
                    raise LatticeError("normal is not outward")
        for v in self.actual_vertices:
            if lorentz_inner(v, v) >= 0:
                raise LatticeError("actual vertex is not timelike")
        for v in self.ideal_vertices:
            if lorentz_inner(v, v) != 0:
                raise LatticeError("ideal vertex is not lightlike")


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
    canon = partial(outward_canonical, vertices=vertices)
    seeds = [tuple((-1 if i == n - 1 else 0) for i in range(n + 1))]
    if n == 2:
        seeds.append((1, 1, 1))
    normals = group_orbit(gens, seeds, canonical=canon)
    normals = tuple(sorted(normals, key=_side_sort_key))
    poly = RightAngledPolytope(n, normals, actual, ideal)
    poly.validate()
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
    """A face of the lattice; dim-0 entries at ideal vertices are tagged."""

    index: int
    dim: int
    sides: frozenset[int]
    vertex_mask: int
    ideal_point: bool = False
    edge_kind: str | None = None
    covers: list[int] = field(default_factory=list)


class FaceLattice:
    """Complete poset of faces of a right-angled polytope."""

    def __init__(self, polytope) -> None:
        self.polytope = polytope
        self.faces: list[Face] = []
        self.by_sides: dict[frozenset, int] = {}
        self.by_vertex_mask: dict[int, int] = {}
        self._build()

    # -- construction ---------------------------------------------------
    def _build(self) -> None:
        poly = self.polytope
        n = poly.dim
        nsides = len(poly.normals)
        inc = poly.incidence_masks()
        smask = poly.side_masks(inc)
        nv = len(poly.vertices)
        all_verts = (1 << nv) - 1
        perp = [0] * nsides
        for i, j in poly.perpendicular_pairs():
            perp[i] |= 1 << j
            perp[j] |= 1 << i

        homog = list(poly.vertices)

        def face_dim(vmask: int) -> int:
            span = RowSpan()
            m = vmask
            while m:
                low = m & -m
                span.add(homog[low.bit_length() - 1])
                if span.rank == n + 1:
                    break
                m ^= low
            return span.rank - 1

        def closure_sides(vmask: int) -> int:
            out = (1 << nsides) - 1
            m = vmask
            while m and out:
                low = m & -m
                out &= smask[low.bit_length() - 1]
                m ^= low
            return out

        def add_face(smask_bits: int, vmask: int) -> int:
            sides = frozenset(_bits(smask_bits))
            dim = face_dim(vmask)
            idx = len(self.faces)
            face = Face(idx, dim, sides, vmask)
            if dim == 0:
                vid = vmask.bit_length() - 1
                face.ideal_point = not poly.is_actual(vid)
            elif dim == 1:
                ids = list(_bits(vmask))
                acts = sum(1 for v in ids if poly.is_actual(v))
                if len(ids) != 2:
                    raise LatticeError("edge with unexpected vertex count")
                face.edge_kind = ("line", "ray", "segment")[acts]
            if not face.ideal_point and len(sides) != n - dim:
                raise LatticeError(
                    f"face of dim {dim} lies in {len(sides)} sides")
            self.faces.append(face)
            self.by_sides[sides] = idx
            if vmask in self.by_vertex_mask:
                raise LatticeError("two faces share a vertex set")
            self.by_vertex_mask[vmask] = idx
            return idx

        cand_of: dict[int, int] = {}
        root = add_face(0, all_verts)
        if self.faces[root].dim != n:
            raise LatticeError("vertex set does not span the ambient space")
        cand_of[root] = (1 << nsides) - 1
        frontier = [root]
        seen_pairs: set[tuple[int, int]] = set()
        while frontier:
            nxt: list[int] = []
            for fidx in frontier:
                face = self.faces[fidx]
                if face.dim == 0:
                    continue
                fsmask = 0
                for s in face.sides:
                    fsmask |= 1 << s
                cand = cand_of[fidx] & ~fsmask
                m = cand
                while m:
                    low = m & -m
                    m ^= low
                    a = low.bit_length() - 1
                    vmask = face.vertex_mask & inc[a]
                    if not vmask:
                        continue
                    csides = closure_sides(vmask)
                    key = frozenset(_bits(csides))
                    gidx = self.by_sides.get(key)
                    if gidx is None:
                        gidx = add_face(csides, vmask)
                        new_cand = cand & perp[a]
                        for s in _bits(csides & ~fsmask & ~low):
                            new_cand &= perp[s]
                        cand_of[gidx] = new_cand
                        nxt.append(gidx)
                    g = self.faces[gidx]
                    if g.dim == face.dim - 1 and (fidx, gidx) not in seen_pairs:
                        seen_pairs.add((fidx, gidx))
                        face.covers.append(gidx)
            frontier = nxt
        # ideal vertices are not reachable through perpendicular extensions
        # (their incident sides pair up non-perpendicularly); add them now
        # and hook them below their incident edges
        for vid, v in enumerate(poly.vertices):
            if poly.is_actual(vid):
                continue
            vmask = 1 << vid
            if vmask in self.by_vertex_mask:
                continue
            add_face(closure_sides(vmask), vmask)
        for face in self.faces:
            if face.dim == 1 and not face.ideal_point:
                for vid in _bits(face.vertex_mask):
                    if not poly.is_actual(vid):
                        face.covers.append(self.by_vertex_mask[1 << vid])
        for face in self.faces:
            face.covers.sort()

    # -- queries ---------------------------------------------------------
    def genuine_faces(self, dim: int) -> list[Face]:
        return [f for f in self.faces
                if f.dim == dim and not f.ideal_point]

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
        edges = self.genuine_faces(1)
        return {
            "dim": n,
            "sides": c.get(n - 1, 0),
            "actual_vertices": c.get(0, 0),
            "ideal_vertices": sum(1 for f in self.faces if f.ideal_point),
            "ray_edges": sum(1 for f in edges if f.edge_kind == "ray"),
            "line_edges": sum(1 for f in edges if f.edge_kind == "line"),
            **{f"faces_{d}": c.get(d, 0) for d in range(n + 1)},
        }

    def vertex_ids(self, face: Face) -> tuple[int, ...]:
        return tuple(_bits(face.vertex_mask))

    def ideal_vertex_ids(self, face: Face) -> tuple[int, ...]:
        poly = self.polytope
        return tuple(v for v in _bits(face.vertex_mask)
                     if not poly.is_actual(v))

    def validate(self) -> None:
        poly = self.polytope
        for f in self.faces:
            if f.ideal_point:
                continue
            sides = sorted(f.sides)
            for i in range(len(sides)):
                for j in range(i + 1, len(sides)):
                    if lorentz_inner(poly.normals[sides[i]],
                                     poly.normals[sides[j]]) != 0:
                        raise LatticeError("side set is not perpendicular")


def _bits(m: int) -> Iterable[int]:
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@lru_cache(maxsize=None)
def face_lattice(poly: RightAngledPolytope | "QPolytope") -> FaceLattice:
    """The face lattice of a polytope or reflected union, built once per
    process for each."""
    if isinstance(poly, QPolytope):
        return FaceLattice(poly.as_polytope())
    return FaceLattice(poly)


# -- the doubled polytope ----------------------------------------------


@dataclass(frozen=True)
class QSide:
    """One side of the reflected union, tagged by its generating data."""

    index: int
    base_side: int
    signs: tuple[int, ...]
    normal: Vec
    group: int
    large: bool


@dataclass(frozen=True)
class QPolytope:
    """Union of the polytope's reflections along the coordinate walls."""

    base: RightAngledPolytope
    sides: tuple[QSide, ...]
    actual_vertices: tuple[Vec, ...]
    ideal_vertices: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_groups(self) -> int:
        return self.sides[-1].group + 1

    def group_members(self, group: int) -> list[QSide]:
        return [s for s in self.sides if s.group == group]

    def side_index_of_normal(self, normal: Vec) -> int:
        return self._normal_index[normal]

    @cached_property
    def _normal_index(self) -> dict[Vec, int]:
        return {s.normal: s.index for s in self.sides}

    def as_polytope(self) -> RightAngledPolytope:
        return RightAngledPolytope(
            self.dim, tuple(s.normal for s in self.sides),
            self.actual_vertices, self.ideal_vertices)


def _apply_signs(signs: Sequence[int], v: Vec) -> Vec:
    return tuple(s * c for s, c in zip(signs, v)) + (v[-1],)


@lru_cache(maxsize=None)
def build_q(n: int) -> QPolytope:
    """The reflected union with its standard side order, built once per
    process.

    Sides come in groups, one group per non-coordinate base side, listing
    sign patterns on the nonzero coordinates in ascending binary order with
    the lowest coordinate as the least significant bit.
    """
    if n not in (5, 6):
        raise DimensionError("the reflected union is built in dimension 5 or 6")
    base = build_polytope(n)
    sides: list[QSide] = []
    group = -1
    for b, u in enumerate(base.normals):
        support = [i for i, c in enumerate(u[:-1]) if c]
        if len(support) <= 1:
            continue
        group += 1
        z = len(support)
        for m in range(1 << z):
            signs = [1] * n
            for bit in range(z):
                if (m >> bit) & 1:
                    signs[support[bit]] = -1
            normal = _apply_signs(signs, u)
            sides.append(QSide(len(sides), b, tuple(signs), normal,
                               group, z == 2))
    actual: set[Vec] = set()
    for v in base.actual_vertices:
        if all(c != 0 for c in v[:-1]):
            for m in range(1 << n):
                signs = [1 - 2 * ((m >> i) & 1) for i in range(n)]
                actual.add(_apply_signs(signs, v))
    ideal: set[Vec] = set()
    for v in base.ideal_vertices:
        for m in range(1 << n):
            signs = [1 - 2 * ((m >> i) & 1) for i in range(n)]
            ideal.add(_apply_signs(signs, v))
    return QPolytope(base, tuple(sides), tuple(sorted(actual)),
                     tuple(sorted(ideal)))


# -- face count identities -------------------------------------------


def verify_face_identities(lattices: dict[int, FaceLattice]) -> dict:
    """Check the side-recursion count identity and the low-dimensional
    Euler characteristic formulas; raises LatticeError on violation."""
    report: dict = {"identities": [], "euler": {}}
    for n, lat in sorted(lattices.items()):
        prev = lattices.get(n - 1)
        if prev is None:
            continue
        counts = lat.counts()
        pcounts = prev.counts()
        for k in range(1, n - 1):
            lhs = counts.get(k, 0) * (n - k)
            rhs = counts.get(n - 1, 0) * pcounts.get(k, 0)
            ok = lhs == rhs
            report["identities"].append(
                {"dim": n, "k": k, "ok": ok,
                 "count": counts.get(k, 0),
                 "sides_times_subcount": rhs, "n_minus_k": n - k})
            if not ok:
                raise LatticeError(f"face count identity fails at n={n} k={k}")
    if 2 in lattices:
        c = lattices[2].counts()
        chi = Fraction(4 - 2 * c.get(1, 0) + c.get(0, 0), 4)
        report["euler"][2] = chi
    if 4 in lattices:
        c = lattices[4].counts()
        chi = Fraction(16 - 8 * c.get(3, 0) + 4 * c.get(2, 0)
                       - 2 * c.get(1, 0) + c.get(0, 0), 16)
        report["euler"][4] = chi
    return report
