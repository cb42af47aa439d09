from __future__ import annotations

import ast
import collections
import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxglue import pairing as pg
from coxglue import tables
from coxglue import verify as vf
from coxglue.coxeter import sigma_permutation
from coxglue.gf2 import Gf2Matrix
from coxglue.lorentz import identity, lorentz_inner, mat_mul
from coxglue.polytope import build_polytope
from coxglue.search import search_pairings

from cycle_report import instance_walk_report
from group_elements import SIGMA_POWERS
from q_face_map import vertex_image_targets
from q_lattice_route import flip_targets, lattice_route
from transport_union_find import TransportUnionFind


def _exp_compose(a: int, b: int) -> int:
    return (a + b) % 8


def _exp_inverse(a: int) -> int:
    return -a % 8


def test_transport_union_find_exponents():
    uf = TransportUnionFind(4, _exp_compose, _exp_inverse, 0)
    assert uf.union(0, 1, 3)
    assert uf.union(1, 2, 2)
    root0, t0 = uf.find(0)
    root2, t2 = uf.find(2)
    assert root0 == root2
    assert (t2 - t0) % 8 == 5
    assert uf.union(0, 2, 5)
    assert not uf.union(0, 2, 6)


def test_transport_union_find_matrices():
    a = ((0, 1), (1, 0))
    i2 = identity(2)
    uf = TransportUnionFind(3, mat_mul, lambda m: m, i2)
    assert uf.union(0, 1, a)
    assert uf.union(1, 2, a)
    _, t = uf.find(2)
    _, t0 = uf.find(0)
    assert uf.union(0, 2, i2)
    assert not uf.union(0, 2, a)


N_UF = 10
element = st.integers(0, N_UF - 1)
union_op = st.tuples(element, element, st.integers(0, 7))
unions = st.lists(union_op, max_size=30)
# each a union (x, y, d, c) counting c crossings on its class, or c
# crossings (x, c) counted on x's class by a union of x with itself
cycle_ops = st.lists(st.one_of(
    st.tuples(element, element, st.integers(0, 7), st.sampled_from((0, 1, 2))),
    st.tuples(element, st.sampled_from((1, 2)))), max_size=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(unions)
def test_face_cycles_match_transport_union_find(ops):
    fc = vf.FaceCycles(N_UF)
    uf = TransportUnionFind(N_UF, _exp_compose, _exp_inverse, 0)
    for x, y, d in ops:
        root = fc.union(x, y, d)
        assert (root >= 0) == uf.union(x, y, d)
        if root >= 0:
            assert root == uf.find(x)[0]
    finds = [uf.find(x) for x in range(N_UF)]
    assert [fc.find(x) for x in range(N_UF)] == finds
    assert [fc.size[r] for r, _ in finds] == [uf.size[r] for r, _ in finds]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cycle_ops, cycle_ops)
def test_face_cycles_rollback_restores_state(before, after):
    """Each class holds the crossings counted on its members, and
    rollback to a mark restores every field."""
    fc = vf.FaceCycles(N_UF)
    counted = [0] * N_UF

    def run(ops):
        for op in ops:
            x, y, d, c = op if len(op) == 4 else (op[0], op[0], 0, op[1])
            if fc.union(x, y, d, c) >= 0:
                counted[x] += c
        for r in range(N_UF):
            if fc.parent[r] == r:
                assert fc.asg[r] == sum(
                    counted[x] for x in range(N_UF) if fc.find(x)[0] == r)

    run(before)
    mark = len(fc.journal)
    state = (fc.parent[:], fc.pot[:], fc.size[:], fc.asg[:])
    run(after)
    fc.rollback(mark)
    assert (fc.parent, fc.pot, fc.size, fc.asg) == state
    assert len(fc.journal) == mark


def test_union_links_and_counts_in_one_journal_entry():
    fc = vf.FaceCycles(4)
    assert fc.union(0, 1, 3, 1) == 0
    mark = len(fc.journal)
    state = (fc.parent[:], fc.pot[:], fc.size[:], fc.asg[:])
    # 1 = sigma^3 0 and 1 = sigma^5 2 give 2 = sigma^6 0
    root = fc.union(2, 1, 5, 2)
    assert root == 0 and fc.find(2) == (0, 6)
    assert fc.size[0] == 3 and fc.asg[0] == 3
    assert len(fc.journal) == mark + 1
    # a holonomy conflict counts nothing and journals nothing
    assert fc.union(0, 2, 5, 2) == -1
    assert fc.asg[0] == 3 and len(fc.journal) == mark + 1
    assert fc.union(0, 2, 6, 1) == 0 and fc.asg[0] == 4
    fc.rollback(mark)
    assert (fc.parent, fc.pot, fc.size, fc.asg) == state


# glue on 3 copies of 5 faces, against the faces one at a time
GLUE_FACES, GLUE_COPIES = 5, 3
N_GLUE = GLUE_FACES * GLUE_COPIES
glue_table = st.lists(st.integers(0, 8), min_size=GLUE_FACES,
                      max_size=GLUE_FACES)
glue_op = st.tuples(
    st.integers(0, GLUE_COPIES - 1), st.integers(0, GLUE_COPIES - 1),
    st.lists(st.integers(0, GLUE_FACES - 1), max_size=GLUE_FACES + 2),
    st.permutations(range(GLUE_FACES)), st.integers(0, 7),
    st.integers(0, 2), st.none() | st.tuples(glue_table, glue_table))


class _PerFaceGlue:
    """glue's oracle: one TransportUnionFind union per face, the
    crossings counted per instance, and the two prune rules read off the
    class of the face's instance after its union."""

    def __init__(self) -> None:
        self.uf = TransportUnionFind(N_GLUE, _exp_compose, _exp_inverse, 0)
        self.counted = [0] * N_GLUE

    def crossings(self, root: int) -> int:
        return sum(c for x, c in enumerate(self.counted)
                   if self.uf.find(x)[0] == root)

    def glue(self, xb, yb, faces, fp, d, c, caps, walls) -> int:
        for f in faces:
            if not self.uf.union(xb + f, yb + fp[f], d):
                return f
            self.counted[xb + f] += c
            if caps is not None:
                root = self.uf.find(xb + f)[0]
                n = self.uf.size[root]
                if n > caps[f] or (n != caps[f] and
                                   self.crossings(root) == walls[f] * n):
                    return f
        return -1


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(glue_op, max_size=8))
def test_glue_matches_a_union_per_face(ops):
    """glue fails at the face the per-face oracle fails at, leaves the
    same classes, transports, sizes and crossing counts, and a rollback
    to a mark taken before a glue that failed part-way restores every
    field, as the search relies on."""
    fc = vf.FaceCycles(N_GLUE)
    kept: list[tuple] = []  # the glues that passed, which the oracle replays
    for cx, cy, faces, fp, d, c, tables in ops:
        args = (cx * GLUE_FACES, cy * GLUE_FACES, faces, fp, d, c,
                *(tables or (None, None)))
        oracle = _PerFaceGlue()
        for done in kept:
            assert oracle.glue(*done) == -1
        mark = len(fc.journal)
        state = (fc.parent[:], fc.pot[:], fc.size[:], fc.asg[:])
        failed = fc.glue(*args)
        assert failed == oracle.glue(*args)
        finds = [oracle.uf.find(x) for x in range(N_GLUE)]
        assert [fc.find(x) for x in range(N_GLUE)] == finds
        for r in {r for r, _ in finds}:
            assert fc.size[r] == oracle.uf.size[r]
            assert fc.asg[r] == oracle.crossings(r)
        if failed >= 0:
            fc.rollback(mark)
            assert (fc.parent, fc.pot, fc.size, fc.asg) == state
            assert len(fc.journal) == mark
        else:
            kept.append(args)


def test_lattice_numbers_faces_highest_dimension_first():
    """The search's fail-fast order: on each side, the faces with the
    shortest cycles come first."""
    ctx = vf.lattice_context()
    dims = [f.dim for f in ctx.lattice.faces]
    assert dims == sorted(dims, reverse=True)
    ideal = [f.ideal_point for f in ctx.lattice.faces]
    assert ideal == [False] * (len(ideal) - 27) + [True] * 27
    for faces in ctx.sides_faces:
        assert list(faces) == sorted(faces)
    points = [f for f in ctx.lattice.faces if f.ideal_point]
    for s, on_side in enumerate(ctx.sides_ideal):
        assert on_side == tuple(f.index for f in points if s in f.sides)


def test_context_fields_agree():
    """Each named field of the two contexts is a power of the one
    symmetry, so a swapped or reordered field fails here and not in a
    certificate."""
    ctx, lctx = pg.standard_context(), vf.lattice_context()
    normals, vertices = ctx.polytope.normals, ctx.polytope.vertices
    assert ctx.sigma_pows[1] == ctx.sigma
    for p, g in enumerate(SIGMA_POWERS):
        assert sigma_permutation(g, normals,
                                 vertices) == ctx.sigma_pows[p]
    for perms in (lctx.fperm, lctx.vperm):
        power = tuple(range(len(perms[1])))
        for p in range(8):
            assert perms[p] == power
            power = tuple(perms[1][x] for x in power)
    # the sigma-orbits of the 36 torsion representatives partition the
    # 288 conditions, eight to an orbit
    orbits = [{tuple(sorted(sigma[s] for s in rep))
               for sigma in ctx.sigma_pows}
              for rep in lctx.torsion_representatives]
    assert len(lctx.torsion_representatives) == 36
    assert all(len(o) == 8 for o in orbits)
    assert sorted(c for o in orbits for c in o) == \
        sorted(lctx.torsion_conditions)
    assert len(set(lctx.torsion_conditions)) == 288
    for f in lctx.lattice.faces:
        if not f.ideal_point:
            assert lctx.cycle_lengths[f.index] == \
                2 ** lctx.wall_counts[f.index]


def test_lattice_context_checks_sigma_against_its_matrix(monkeypatch):
    """The face map read through sigma's matrix must agree with sigma's
    side permutation: a context whose sigma_pows[1] swaps two sides its
    matrix does not fails the check."""
    ctx = pg.standard_context()
    moved = list(ctx.sigma_pows[1])
    moved[0], moved[1] = moved[1], moved[0]
    bad = dataclasses.replace(ctx, sigma_pows=(
        ctx.sigma_pows[0], tuple(moved), *ctx.sigma_pows[2:]))
    monkeypatch.setattr(vf, "standard_context", lambda: bad)
    with pytest.raises(AssertionError,
                       match="vertex and side transport routes disagree"):
        vf.lattice_context.__wrapped__()


def test_code_matrix_matches_embedded():
    cmx = vf.build_code_matrix(tables.manifold_record(1).code)
    assert cmx.matrix.row_list() == [list(r) for r in tables.code_matrix_m1()]
    assert cmx.columns[6] == (1 << 1) | (1 << 2) | (1 << 4)
    for j in range(6):
        assert cmx.columns[j] == 1 << j


def test_code_matrix_columns_are_the_digit_values():
    """The packed columns are the six unit columns, then the digit values,
    and the matrix rows are those built bit by bit from the digits' signs,
    the route the packed build replaced."""
    rng = random.Random(24)
    codes = [tables.manifold_record(m).code for m in range(1, 10)]
    codes += ["".join(rng.choice(pg.ALPHABET) for _ in range(21))
              for _ in range(20)]
    for code in codes:
        cmx = vf.build_code_matrix(code)
        assert cmx.columns == tuple(1 << i for i in range(6)) + tuple(
            pg.decode_digit(c).code_value for c in code)
        signs = [pg.decode_digit(c).signs for c in code]
        rows = [[int(i == r) for i in range(6)]
                + [int(k[r] == -1) for k in signs] for r in range(6)]
        assert cmx.matrix.row_list() == rows


def test_pair_space_action_matches_embedded():
    cmx = vf.build_code_matrix(tables.manifold_record(1).code)
    action = vf.pair_space_action(cmx)
    assert action.bits == Gf2Matrix.from_rows(tables.sideperm_action_m1()).bits
    # the image of the first relator is the sum of relators 11, 17, 18
    col = action.column(0)
    assert {i + 7 for i in range(21) if (col >> i) & 1} == {11, 17, 18}
    order4 = action.power(4) + Gf2Matrix.identity(21)
    assert order4.bits == Gf2Matrix.from_rows(tables.order4_action_m1()).bits


def test_relator_images_span_has_index_64():
    cmx = vf.build_code_matrix(tables.manifold_record(1).code)
    basis = [cmx.columns[j] | (1 << j) for j in range(6, 27)]
    assert Gf2Matrix(21, 27, tuple(basis)).rank() == 21


def test_torsion_checks_manifold1():
    cmx = vf.build_code_matrix(tables.manifold_record(1).code)
    full = vf.torsion_free_H(cmx, "full")
    red = vf.torsion_free_H(cmx, "reduced")
    assert full.h_torsion_free and red.h_torsion_free
    assert full.conditions_checked == 288
    assert red.conditions_checked == 36
    assert set(red.representative_sets) == set(tables.independent_sets_m1())
    assert set(red.representative_sets) <= set(full.representative_sets)


def test_torsion_first_vertex_and_edge_sets():
    cmx = vf.build_code_matrix(tables.manifold_record(1).code)
    full = vf.torsion_free_H(cmx, "full")
    sets = set(full.representative_sets)
    assert frozenset(range(6)) in sets            # the corner vertex
    assert frozenset({0, 1, 2, 3, 20}) in sets    # the first ideal edge


def test_torsion_fails_for_identity_code():
    cmx = vf.build_code_matrix("0" * 21)
    cert = vf.torsion_free_H(cmx, "full")
    assert not cert.h_torsion_free
    assert cert.failures


def test_full_and_reduced_agree_over_random_codes():
    rng = random.Random(8)
    for _ in range(10):
        code = "".join(pg.ALPHABET[rng.randrange(64)] for _ in range(21))
        cmx = vf.build_code_matrix(code)
        assert vf.torsion_free_H(cmx, "full").h_torsion_free == \
            vf.torsion_free_H(cmx, "reduced").h_torsion_free


def test_extension_certificates_split():
    statuses = {}
    for mid in range(1, 10):
        cmx = vf.build_code_matrix(tables.manifold_record(mid).code)
        out = vf.extension_torsion_certificate(cmx)
        statuses[mid] = out["status"]
        if mid == 1:
            assert out["target_coefficients"] == [9, 11, 12, 14, 20, 21]
    assert {m for m, s in statuses.items() if s == "certified"} == {1, 3, 4, 5, 6}


def test_extension_certificates_match_recorded_values():
    """The whole extension result, in its printed key order, on the nine
    codes and on ten seeded one-digit mutations of them, eight of which
    move a relator's image out of the span, as recorded before the
    relator span was read off packed columns."""
    def recorded(sol):
        return {"status": "certified" if sol is None else "inconclusive",
                "reason": ("obstruction equation has no solution"
                           if sol is None
                           else "obstruction equation is solvable"),
                "solution": sol,
                "target_coefficients": [9, 11, 12, 14, 20, 21]}

    def outcome(code):
        try:
            out = vf.extension_torsion_certificate(vf.build_code_matrix(code))
        except vf.InvarianceError as exc:
            return str(exc)
        assert list(out) == ["status", "reason", "solution",
                             "target_coefficients"]
        return out

    solvable = {2: [8, 9, 11, 14], 7: [8, 11, 14], 8: [8, 9, 11, 14],
                9: [8, 11, 14]}
    for mid in range(1, 10):
        assert outcome(tables.manifold_record(mid).code) == \
            recorded(solvable.get(mid)), mid
    rng = random.Random(185)
    mutants = []
    for _ in range(10):
        code = list(tables.manifold_record(rng.randrange(1, 10)).code)
        code[rng.randrange(21)] = pg.ALPHABET[rng.randrange(64)]
        mutants.append("".join(code))
    left = "image of relator {} leaves the relator span".format
    assert [outcome(code) for code in mutants] == [
        left(7), left(22), left(7), recorded(None), recorded([8, 11, 14]),
        left(15), left(22), left(10), left(12), left(18)]


def test_properness_published_and_counts():
    cert = vf.face_cycles_proper(pg.published_pairing(1))
    assert cert.proper
    assert cert.dims[0] == {"faces": 576, "orbits": 9, "expected_cycle": 64}
    assert cert.dims[5] == {"faces": 216, "orbits": 108, "expected_cycle": 2}


def test_properness_rejects_mutations():
    rng = random.Random(424242)
    arr = pg.published_pairing(1)
    for _ in range(5):
        mut = pg.mutated_pairing(arr, rng)
        cert = vf.face_cycles_proper(mut)
        assert not cert.proper
        assert cert.violation is not None


@pytest.mark.parametrize("mid", range(1, 10))
def test_properness_q_route(mid):
    """The reflected-union route (tests/q_lattice_route.py), the oracle
    for the eight-copy route: the same verdict, on faces of the union
    rather than of the copies."""
    cert = lattice_route(pg.decode_q_code(tables.manifold_record(mid).code))
    assert cert.proper
    assert [cert.dims[k]["faces"] for k in range(6)] == \
        [1344, 14208, 23040, 13920, 3360, 252]
    assert [cert.dims[k]["orbits"] for k in range(6)] == \
        [21, 444, 1440, 1740, 840, 126]
    assert vf.face_cycles_proper(pg.published_pairing(mid)).proper


@pytest.mark.parametrize("given", [
    pg.decode_q_code("EKB98LLG6R2"), [], None,
], ids=["QSidePairing", "list", "NoneType"])
def test_face_cycles_proper_needs_an_eight_copy_array(given):
    """Properness is certified on the eight copies alone; anything else
    is refused by its type."""
    name = type(given).__name__
    with pytest.raises(vf.CertificationError,
                       match=f"needs an EightPPairing, not a {name}$"):
        vf.face_cycles_proper(given)


def test_identity_code_improper():
    cert = lattice_route(pg.decode_q_code("0" * 21))
    assert not cert.proper
    assert cert.violation == {"kind": "holonomy", "side": 1, "face_dim": 5}


# one-digit mutants of published codes, with the first side pair whose
# face cycle does not close
@pytest.mark.parametrize("code, side, face_dim", [
    ("l65OoFIcN9YEdXHYIO6l3", 157, 1),
    ("MVCtfMSJGgJgWDtD2fV84", 29, 2),
    ("l65OMFIcN9YEdXHYIO7l3", 157, 3),
    ("fx5UMF4cN9aEdXHaKUyf3", 25, 5),
])
def test_q_route_holonomy_witness(code, side, face_dim):
    cert = lattice_route(pg.decode_q_code(code))
    assert not cert.proper
    assert cert.violation == {"kind": "holonomy", "side": side,
                              "face_dim": face_dim}


@pytest.mark.parametrize("code", [
    tables.manifold_record(1).code,
    "l65OoFIcN9YEdXHYIO6l3",  # a holonomy mutant
    "EKB98LLG6R2",  # m1's cross-section, on the dimension-5 union
])
def test_q_route_face_map_matches_vertex_images(code):
    """The reflected-union route unions the face on sides S of side m
    with the face on sides K(S), K the sign flip of m's group; carrying
    its vertices through the partner's transform gives the same face."""
    qsp = pg.decode_q_code(code)
    assert flip_targets(qsp) == vertex_image_targets(qsp)


@pytest.mark.parametrize("n", [5, 6])
def test_center_is_inside_the_polytope(n):
    """The reflected-union route names each transport t by t . z, z =
    (1, ..., 1, 3), which needs z strictly inside the polytope."""
    z = (1,) * n + (3,)
    assert {lorentz_inner(u, z) for u in build_polytope(n).normals} == {-1}


def test_properness_q_route_cross_section():
    qsp = pg.decode_q_code(pg.restrict_code(tables.manifold_record(1).code))
    cert = lattice_route(qsp)
    assert cert.proper
    assert [cert.dims[k]["orbits"] for k in range(5)] == [5, 70, 170, 140, 36]


def test_restricted_codes_decode_to_proper_cross_sections():
    """A geometric check of `restrict_code` beside the published digits:
    each restricted code, EKB98LLG6R2 of m1 and m2 and 2B7JB47JG81 of the
    other seven, decodes to a proper gluing of the dimension-5 reflected
    union, with 5 vertex orbits."""
    codes = {pg.restrict_code(tables.manifold_record(mid).code).digits
             for mid in range(1, 10)}
    assert codes == {"EKB98LLG6R2", "2B7JB47JG81"}
    for code in sorted(codes):
        cert = lattice_route(pg.decode_q_code(pg.PairingCode(5, code)))
        assert cert.proper, code
        assert cert.dims[0]["orbits"] == 5, code


def _one_digit_mutants(codes: list[str], count: int, seed: int) -> list[str]:
    """Codes with one digit changed to another digit the dimension
    allows, each from a seeded choice of code."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        code = rng.choice(codes)
        i = rng.randrange(len(code))
        digits = pg.ALPHABET[:64 if len(code) == 21 else 32]
        new = rng.choice([c for c in digits if c != code[i]])
        out.append(code[:i] + new + code[i + 1:])
    return out


def test_q_route_matches_the_lattice_route():
    """The reflected-union route on the union's generic lattice
    (tests/q_lattice_route.py), on both restricted codes and 40 seeded
    one-digit mutants of them, all on the dimension-5 union: three of the
    mutants stay proper."""
    restricted = ["EKB98LLG6R2", "2B7JB47JG81"]
    verdicts = collections.Counter()
    for code in restricted + _one_digit_mutants(restricted, 40, 28):
        verdicts[lattice_route(pg.decode_q_code(code)).proper] += 1
    assert verdicts == {True: 5, False: 37}


def test_certify_manifold_bundles():
    cert = vf.certify_manifold(pg.published_pairing(1),
                               tables.manifold_record(1).code)
    assert cert.proper.proper
    assert cert.orientable
    assert cert.torsion_full.h_torsion_free
    assert cert.extension["status"] == "certified"
    assert cert.euler_characteristic == Fraction(-1)
    assert cert.index_chain["euler_congruence"] == Fraction(-1, 8)
    assert cert.index_chain["euler_wall_group"] == Fraction(-8)
    payload = cert.to_json()
    assert payload["euler_characteristic"] == "-1"

    cert2 = vf.certify_manifold(pg.published_pairing(2))
    assert cert2.proper.proper and cert2.orientable
    assert cert2.extension["status"] == "inconclusive"
    assert cert2.torsion_full.h_torsion_free


def test_certify_an_array_built_from_lists():
    """Lists are stored as tuples, so the cached face pass can hash the
    array; anything but an 8 x 27 array of int pairs in 0..7 is refused."""
    rows = [[list(e) for e in row] for row in pg.published_pairing(1).entries]
    arr = pg.EightPPairing(rows)
    assert arr == pg.published_pairing(1)
    assert vf.certify_manifold(arr, tables.manifold_record(1).code) == \
        vf.certify_manifold(pg.published_pairing(1))
    for bad in ([0], [0, 1, 2], [0, 8], [-1, 0], [0, 1.0], [True, 0], "ab",
                5):
        broken = [list(row) for row in rows]
        broken[3][4] = bad
        with pytest.raises(pg.PairingError, match="copy 4, side 5"):
            pg.EightPPairing(broken)
    for bad in (rows[:7], [row[:26] for row in rows], 5, [5] * 8):
        with pytest.raises(pg.PairingError, match="8 x 27"):
            pg.EightPPairing(bad)


def test_certify_rejects_code_mismatch():
    with pytest.raises(vf.CertificationError):
        vf.certify_manifold(pg.published_pairing(1),
                            tables.manifold_record(2).code)


@pytest.mark.parametrize("code", [5, b"MVStfMSJGgJgWDtD2fV84", "MVStf"])
def test_certify_refuses_a_code_that_is_not_one(code):
    """A given code goes through pairing.as_code: an int, bytes or a
    str of the wrong length is refused as a code, not compared."""
    with pytest.raises(pg.PairingError):
        vf.certify_manifold(pg.published_pairing(1), code)
    assert vf.certify_manifold(pg.published_pairing(1), pg.as_code(
        tables.manifold_record(1).code)).code == tables.manifold_record(1).code


def _cycles_eight_both_ways(arr: pg.EightPPairing) -> tuple:
    """The face pass with every side pair unioned from both of its
    sides, as an oracle for the pass that unions each pair once; the
    ideal points too, with the identity transport.  The report, then the
    root and the transport of each face instance, None after a holonomy
    conflict."""
    arr.validate_involution()
    ctx = vf.lattice_context()
    lat = ctx.lattice
    nf = len(lat.faces)
    uf = TransportUnionFind(8 * nf, _exp_compose, _exp_inverse, 0)
    violation = None
    for i, j in itertools.product(range(8), range(27)):
        k, p = arr.entry(i, j)
        for fidx in ctx.sides_faces[j]:
            if not uf.union(i * nf + fidx, k * nf + ctx.fperm[p][fidx], p):
                violation = {"kind": "holonomy", "copy": i + 1,
                             "side": j + 1, "face_dim": lat.faces[fidx].dim}
                break
        if violation:
            break
        for fidx in ctx.sides_ideal[j]:
            assert uf.union(i * nf + fidx, k * nf + ctx.fperm[p][fidx], 0)
    sides = [f.sides for f in lat.faces]
    if violation is not None:
        return (instance_walk_report(uf.size, ctx.dims, sides, (), violation),
                None, None)
    found = [uf.find(x) for x in range(8 * nf)]
    roots = [r for r, _ in found]
    return (instance_walk_report(uf.size, ctx.dims, sides, roots, None),
            roots, [t for _, t in found])


def test_each_side_pair_unioned_once_changes_nothing():
    """The verdict, and the classes read later, on the nine gluings and
    40 seeded mutants."""
    # seed 4 draws one mutant (the ninth) that fails by holonomy, which
    # few mutants do; the others fail by cycle length
    rng = random.Random(4)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(arrays[rng.randrange(9)], rng)
               for _ in range(40)]
    kinds = set()
    for arr in arrays:
        got = vf.face_cycles_proper(arr)
        want, roots, transports = _cycles_eight_both_ways(arr)
        assert got == want
        assert got.roots == roots
        assert got.transports == transports
        kinds.add(got.violation and got.violation["kind"])
    assert kinds == {None, "holonomy", "cycle_length"}


def test_the_verdict_never_walks_the_classes():
    """A proper gluing's certificate read through `proper`, `dims`,
    `violation` and to_json() alone, by certification or by the search's
    confirming call, keeps the pass's links as the unions left them; the
    first read of `roots` walks every instance to its root once, in
    place, and keeps no second copy."""
    arr = pg.published_pairing(3)
    fixed = {(i, j): arr.entries[i][j] for i in range(8) for j in range(27)}
    for reader in (lambda: vf.certify_manifold(arr).proper,
                   lambda: search_pairings(fixed).solutions and
                   vf.face_cycles_proper(arr)):
        vf._cycles_eight.cache_clear()
        cert = reader()
        assert cert.proper and cert.violation is None
        assert cert.dims[0]["orbits"] == 9
        assert cert.to_json()["proper"]
        assert vf._cycles_eight.cache_info().misses == 1
        assert "roots" not in vars(cert)
        parent, pot = cert.links
        # some link does not end at a root: nothing walked it yet
        assert any(parent[parent[x]] != parent[x] for x in range(len(parent)))
        assert cert.roots is parent and cert.transports is pot
        assert all(parent[r] == r for r in cert.roots)
        assert "roots" in vars(cert)


def test_cycle_report_matches_the_instance_walk():
    """The report read at the class roots gives the `dims` and `violation`
    of the walk over every face instance (tests/cycle_report.py), on the
    nine gluings and 20 seeded mutants, with class sizes counted from the
    pass's roots.  In some mutant the witness, the first member of a bad
    class, is not that class's root."""
    rng = random.Random(4)  # its ninth mutant fails by holonomy
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(arrays[rng.randrange(9)], rng)
               for _ in range(20)]
    lat = vf.lattice_context().lattice
    dims, sides = vf.lattice_context().dims, [f.sides for f in lat.faces]
    by_sides = {f.sides: f.index for f in lat.faces}
    kinds = collections.Counter()
    witness_not_root = 0
    for arr in arrays:
        got = vf._cycles_eight.__wrapped__(arr)
        # no roots after a holonomy conflict, which the walk is given
        roots = got.roots or ()
        want = instance_walk_report(
            collections.Counter(roots), dims, sides, roots,
            None if got.roots else got.violation)
        assert (got.proper, got.dims, got.violation) == \
            (want.proper, want.dims, want.violation)
        v = got.violation
        kinds[v and v["kind"]] += 1
        if v and v["kind"] == "cycle_length":
            face = by_sides[frozenset(s - 1
                                      for s in v["witness_face_sides"])]
            x = (v["witness_copy"] - 1) * len(lat.faces) + face
            witness_not_root += roots[x] != x
    assert kinds == {None: 9, "cycle_length": 19, "holonomy": 1}
    assert witness_not_root > 0


def test_patch_sites_of_the_traced_benchmark_run():
    """perfbench/layers.py wraps these module attributes, and reads
    `counts()`, `boundaries` and `by_dim` off a built complex; each name
    a module imports from another must stay the one shared object."""
    from coxglue import homology as hm
    assert hm.face_cycles_proper is vf.face_cycles_proper
    assert pg.mat_mul is vf.mat_mul
    assert pg.develop is vf.develop
    assert pg.standard_context is vf.standard_context is hm.standard_context
    assert vf.lattice_context is hm.lattice_context
    for module, name in [(hm, "det"), (pg, "build_q"), (vf, "face_lattice"),
                         (hm, "invariant_factors"), (hm, "truncated_cells"),
                         (vf, "columns_independent"), (vf, "gf2_solve")]:
        assert callable(getattr(module, name))
    # the cell counts, the entries per boundary matrix, the cells per degree
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    counts = {0: 225, 1: 1242, 2: 2700, 3: 2880, 4: 1512, 5: 324, 6: 8}
    assert cx.counts() == counts
    assert {d: len(ix) for d, ix in cx.by_dim.items()} == counts
    # the entries of each degree's boundary matrix, counted on the columns
    # rather than on `boundaries`, which derives them all anew
    assert isinstance(type(cx).boundaries, property)
    nnz = dict.fromkeys(range(1, 7), 0)
    for q, col in zip(cx.cells, cx.columns):
        if q.dim:
            nnz[q.dim] += len(col)
    assert nnz == {1: 2484, 2: 11332, 3: 19396, 4: 15062, 5: 4924, 6: 400}


def test_source_modules_read_every_name_they_import():
    """An imported name no code reads is dead.  Only the two imports the
    traced benchmark run patches, homology.det and verify.mat_mul, may
    go unread."""
    unused = set()
    for path in sorted(Path(vf.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    allowed = {("homology", "det"), ("verify", "mat_mul")}
    assert unused <= allowed, sorted(unused - allowed)


def test_source_definitions_are_named_elsewhere():
    """A function, class or method that no code in src/, perfbench/, the
    acceptance gate or a test helper module names is dead: a name that
    only the unit tests (tests/test_*.py) read serves no user path.  A
    name counts as named where code reads it as a name or an attribute,
    imports it, or holds it as a string, the way perfbench/layers.py
    names the attributes it patches.  Dunder methods are exempt: Python
    calls them."""
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src").rglob("*.py"))
    helpers = [p for p in sorted((root / "tests").glob("*.py"))
               if p.name == "test_acceptance.py"
               or not p.name.startswith("test_")]
    named, defined = set(), []
    for path in src + helpers + sorted((root / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str):
                named.add(node.value)
            elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and path in src
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))):
                defined.append((path.stem, node.name))
    assert len(defined) > 100
    unnamed = [d for d in defined if d[1] not in named]
    assert not unnamed, unnamed

