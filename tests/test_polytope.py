from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

import pytest

from coxglue import polytope, tables
from coxglue.lorentz import RowSpan, lorentz_inner
from coxglue.polytope import (
    FaceLattice,
    LatticeError,
    build_polytope,
    build_q,
    face_lattice,
)

from q_sides import group_members, q_lattice, q_vertices


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


def _spec_lattices():
    """The lattices of P2..P7 and Q5, each built once per process."""
    for n in range(2, 8):
        yield face_lattice(build_polytope(n))
    yield q_lattice(5)


def test_polytope6_matches_published_tables():
    p6 = build_polytope(6)
    assert p6.normals == tables.p6_side_normals()
    want_actual, want_ideal = tables.p6_vertices()
    assert p6.actual_vertices == want_actual
    assert p6.ideal_vertices == want_ideal


def test_polytope6_census():
    c = face_lattice(build_polytope(6)).census()
    assert c["actual_vertices"] == 72
    assert c["ideal_vertices"] == 27
    assert c["ray_edges"] == 432
    assert c["line_edges"] == 216
    assert c["faces_2"] == 1080
    assert c["faces_3"] == 720
    assert c["faces_4"] == 216
    assert c["sides"] == 27


def test_polytope2_is_a_right_triangle():
    lat = face_lattice(build_polytope(2))
    c = lat.census()
    assert c["sides"] == 3
    assert c["actual_vertices"] == 1
    assert c["ideal_vertices"] == 2
    assert c["ray_edges"] == 2 and c["line_edges"] == 1


def test_side_counts():
    for n, sides in ((2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56)):
        assert len(build_polytope(n).normals) == sides
    with pytest.raises(ValueError):
        build_polytope(8)


def test_normal_inner_products_and_perpendicular_pairs():
    p6 = build_polytope(6)
    values = set()
    for i in range(27):
        for j in range(i + 1, 27):
            values.add(lorentz_inner(p6.normals[i], p6.normals[j]))
    assert values == {0, -1}
    assert len(p6.perpendicular_pairs()) == 216


def test_side_adjacency_graph_is_16_regular():
    p6 = build_polytope(6)
    degree = {i: 0 for i in range(27)}
    for i, j in p6.perpendicular_pairs():
        degree[i] += 1
        degree[j] += 1
    assert set(degree.values()) == {16}


def test_vertex_side_counts():
    p6 = build_polytope(6)
    smask = p6.side_masks(p6.incidence_masks())
    for vid in range(len(p6.vertices)):
        count = bin(smask[vid]).count("1")
        assert count == (6 if vid < p6.n_actual else 10)


@pytest.mark.parametrize("n", range(2, 8))
def test_normals_are_outward_units_and_vertices_are_time_or_lightlike(n):
    """The normals are an orbit of a unit seed, the vertices orbits of a
    timelike and a lightlike seed, all under integral isometries."""
    poly = build_polytope(n)
    assert all(lorentz_inner(u, u) == 1 for u in poly.normals)
    assert all(lorentz_inner(u, v) <= 0
               for u in poly.normals for v in poly.vertices)
    assert all(lorentz_inner(v, v) < 0 for v in poly.actual_vertices)
    assert all(lorentz_inner(v, v) == 0 for v in poly.ideal_vertices)


def test_face_side_sets_are_perpendicular():
    for lat in _spec_lattices():
        normals = lat.polytope.normals
        for f in lat.faces:
            if not f.ideal_point:
                assert not any(lorentz_inner(normals[a], normals[b])
                               for a, b in combinations(f.sides, 2)), f


def test_covers_are_graded():
    for lat in _spec_lattices():
        for f in lat.faces:
            for g in f.covers:
                assert lat.faces[g].dim == f.dim - 1
                assert lat.faces[g].sides > f.sides


def test_lattice_meets_its_specification():
    """Read off the incidence data alone: the non-ideal faces are the sets
    of pairwise perpendicular sides that share a vertex, sorted by
    codimension and then by sorted sides; the ideal points follow in
    vertex order; a face covers its extensions by one side, and an edge
    also its ideal endpoints, in ascending order; each face holds its
    sides as a bitmask too."""
    for lat in _spec_lattices():
        poly = lat.polytope
        nsides, nv = len(poly.normals), len(poly.vertices)
        inc = poly.incidence_masks()
        perp = [sum(1 << b for b in range(nsides)
                    if lorentz_inner(poly.normals[a], poly.normals[b]) == 0)
                for a in range(nsides)]
        real = [f for f in lat.faces if not f.ideal_point]
        by_sides = {f.sides: f.index for f in real}
        keys = [(len(f.sides), sorted(f.sides)) for f in real]
        assert keys == sorted(keys) and keys[0] == (0, [])
        assert [f.vertex_mask for f in lat.faces[len(real):]] == [
            1 << v for v in range(poly.n_actual, nv)]
        for f in lat.faces:
            assert lat.by_vertex_mask[f.vertex_mask] == f.index
            assert f.side_mask == sum(1 << s for s in f.sides)
        for f in real:
            vmask, common = (1 << nv) - 1, (1 << nsides) - 1
            for s in f.sides:
                vmask &= inc[s]
                common &= perp[s]
            assert f.vertex_mask == vmask
            want = []
            for a in range(nsides):
                if not common >> a & 1:
                    continue
                g = by_sides.get(f.sides | {a})
                assert (g is not None) == bool(vmask & inc[a])
                if g is not None:
                    want.append(g)
            if f.dim == 1:
                want += [lat.by_vertex_mask[1 << v] for v in range(nv)
                         if vmask >> v & 1 and v >= poly.n_actual]
            assert f.covers == sorted(want)


@pytest.mark.parametrize("name, exact_counts",
                         [(f"P{n}", 0) for n in range(2, 8)] + [("Q5", 80)])
def test_face_dimensions_certified_mod_2(name, exact_counts, monkeypatch):
    """Each face's dimension is its vertices' rank, less 1.  The lattice
    counts that rank exactly only where the rank mod 2 falls short: on
    none of P2..P7, and on the Q5 faces whose vertices are sign flips of
    each other, equal mod 2."""
    poly = (q_lattice(5).polytope if name == "Q5"
            else build_polytope(int(name[1:])))
    made = []
    monkeypatch.setattr(polytope, "RowSpan",
                        lambda: made.append(1) or RowSpan())
    lat = FaceLattice(poly)
    assert len(made) == exact_counts
    homog = lat.polytope.vertices
    for f in lat.faces:
        span = RowSpan()
        for v in lat.vertex_ids(f):
            span.add(homog[v])
        assert f.dim == span.rank - 1, f


@pytest.mark.parametrize("edit, message", [
    (lambda p: {"actual_vertices": p.actual_vertices[:1],
                "ideal_vertices": ()},
     "face on sides [] of dim 0: vertex set does not span the ambient space"),
    (lambda p: {"normals": p.normals + p.normals[:1]},
     "face on sides [1] of dim 2: its vertices lie in sides [1, 7]"),
    (lambda p: {"ideal_vertices": ()},
     "face on sides [] of dim 1: vertex set does not span the ambient space"),
    (lambda p: {"normals": p.normals[:2] + ((1, 0, 0, 1),) + p.normals[3:]},
     "side 3 is not spacelike"),
], ids=["one-vertex", "duplicate-side", "no-ideal-vertices", "lightlike-side"])
def test_malformed_polytope_names_the_face(edit, message):
    p3 = build_polytope(3)
    with pytest.raises(LatticeError) as err:
        FaceLattice(dataclasses.replace(p3, **edit(p3)))
    assert str(err.value) == message


def test_face_identities():
    lats = {n: face_lattice(build_polytope(n)) for n in range(2, 7)}
    report = verify_face_identities(lats)
    assert all(item["ok"] for item in report["identities"])
    assert report["euler"][2] == Fraction(-1, 4)
    assert report["euler"][4] == Fraction(1, 16)
    lookup = {(i["dim"], i["k"]): i for i in report["identities"]}
    ridge = lookup[(6, 4)]
    assert ridge["count"] == 216 and ridge["sides_times_subcount"] == 27 * 16


def test_reflected_union_structure():
    q6 = build_q(6)
    assert len(q6.sides) == 252
    assert q6.n_groups == 21
    assert sum(1 for s in q6.sides if s.large) == 60
    assert [s.normal for s in q6.sides[:4]] == [
        (1, 1, 0, 0, 0, 0, 1), (-1, 1, 0, 0, 0, 0, 1),
        (1, -1, 0, 0, 0, 0, 1), (-1, -1, 0, 0, 0, 0, 1)]
    assert len(q_vertices(6)[0]) == 1344
    for g in range(15):
        assert len(group_members(q6, g)) == 4
    for g in range(15, 21):
        assert len(group_members(q6, g)) == 32


def test_reflected_union_face_counts():
    counts = q_lattice(6).counts()
    assert [counts[d] for d in range(6)] == [1344, 14208, 23040, 13920, 3360, 252]


@pytest.mark.parametrize("n", [5, 6])
def test_reflected_union_faces_match_the_generic_lattice(n):
    """The faces listed off the base polytope's lattice, as (dim, sorted
    sides), are the generic lattice's faces but the ideal points, in its
    order: by codimension, then by sorted sides.  A face's sides lie in
    distinct groups, which come in side order, so a sign flip, keeping
    each side in its group, maps sorted sides to sorted sides."""
    q = build_q(n)
    want = [(f.dim, tuple(sorted(f.sides))) for f in q_lattice(n).faces
            if not f.ideal_point]
    assert list(q.faces) == want
    group = [s.group for s in q.sides]
    assert group == sorted(group)
    assert all(len({group[s] for s in sides}) == len(sides)
               for _, sides in q.faces)


def test_reflected_union_dim5():
    q5 = build_q(5)
    assert len(q5.sides) == 72
    assert q5.n_groups == 11
    with pytest.raises(ValueError):
        build_q(4)


def test_polytope7_counts():
    lat = face_lattice(build_polytope(7))
    c = lat.census()
    assert c["actual_vertices"] == 576
    assert c["line_edges"] == 2016
    assert c["sides"] == 56


def test_actual_line_counts_match_conjugacy_table():
    want = {2: (1, 1), 3: (2, 3), 4: (5, 10), 5: (16, 40), 6: (72, 216)}
    for n, (a, l) in want.items():
        c = face_lattice(build_polytope(n)).census()
        assert (c["actual_vertices"], c["line_edges"]) == (a, l)


def test_side_layout_puts_the_coordinate_walls_first(monkeypatch):
    """Codes read digit s - n off base side s, so a side order that
    moves the coordinate walls from sides 1..n is refused."""
    from coxglue import polytope
    key = polytope._side_sort_key
    assert list(build_polytope(5).normals[:5]) == [
        tuple(-int(i == c) for i in range(6)) for c in range(5)]
    monkeypatch.setattr(polytope, "_side_sort_key", cmp_to_key(
        lambda u, v: (key(u) < key(v)) - (key(v) < key(u))))
    with pytest.raises(LatticeError, match=re.escape(
            "sides 1..5 are not the coordinate walls -e_1..-e_5 alone")):
        build_polytope.__wrapped__(5)
