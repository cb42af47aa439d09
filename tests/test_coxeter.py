from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from coxglue import coxeter as cx
from coxglue import tables
from coxglue.lorentz import (
    det,
    identity,
    lorentz_inner,
    mat_mul,
    mat_pow,
    mat_vec,
)
from coxglue.polytope import build_polytope

from group_elements import (
    ProductOrderUnbounded,
    group_closure,
    is_positive_lorentzian,
    product_order,
)

BORDERED_N2 = ((-1, -2, 2), (-2, -1, 2), (-2, -2, 3))
BORDERED_N3 = ((0, -1, -1, 1), (-1, 0, -1, 1), (-1, -1, 0, 1), (-1, -1, -1, 2))

PUBLISHED_SIDE_CYCLES = [
    (2, 11, 4, 20, 9, 21, 12, 14),
    (3, 5, 18, 19, 27, 15, 16, 6),
    (7, 17, 23, 24, 26, 22, 13, 10),
    (8, 25),
]


def cycles_of(perm):
    seen, out = set(), []
    for s in range(len(perm)):
        if s in seen:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = perm[x]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def test_simplex_generator_invariants():
    for n in range(2, 9):
        data = cx.simplex_generators(n)
        assert len(data.generators) == n + 1
        for g in data.generators:
            assert is_positive_lorentzian(g)
            assert mat_mul(g, g) == identity(n + 1)
        for i, v in enumerate(data.simplex_vertices):
            for j, g in enumerate(data.generators):
                assert (mat_vec(g, v) == v) == (i != j)
        assert data.vertex_is_ideal == (True,) + (False,) * n


def test_simplex_generator_displays():
    d2 = cx.simplex_generators(2)
    assert d2.generators[2] == BORDERED_N2
    d3 = cx.simplex_generators(3)
    assert d3.generators[3] == BORDERED_N3
    d6 = cx.simplex_generators(6)
    perm12 = d6.generators[0]
    assert mat_vec(perm12, (1, 2, 3, 4, 5, 6, 7)) == (2, 1, 3, 4, 5, 6, 7)
    assert d6.generators[5] == tuple(
        tuple((-1 if i == 5 else 1) if i == j else 0 for j in range(7))
        for i in range(7))


def test_dimension_range_guard():
    for bad in (1, 9):
        with pytest.raises(ValueError):
            cx.simplex_generators(bad)
        with pytest.raises(ValueError):
            cx.constants(bad)


def test_product_orders_dim6():
    gens = cx.simplex_generators(6).generators
    # the unlabeled (order three) edges of the derived symbol: the chain of
    # transpositions plus the bordered reflection attached at the third node
    for i in range(4):
        assert product_order(gens[i], gens[i + 1]) == 3
    assert product_order(gens[2], gens[6]) == 3
    # the chain ends in the one order-four edge
    assert product_order(gens[4], gens[5]) == 4
    for i in range(7):
        assert product_order(gens[i], gens[i]) == 1
        for j in range(i):
            assert product_order(gens[i], gens[j]) == \
                product_order(gens[j], gens[i])


def test_product_order_unbounded_dim2():
    gens = cx.simplex_generators(2).generators
    assert product_order(gens[0], gens[1]) == 4
    with pytest.raises(ProductOrderUnbounded):
        # parabolic product at the ideal vertex
        product_order(gens[1], gens[2])


def test_symmetry_orders_small():
    for n in (2, 3, 4, 5):
        group = group_closure(cx.symmetry_generators(n))
        assert len(group) == cx.SYMMETRY_ORDERS[n]


def test_group_orbit_dim6():
    gens = cx.symmetry_generators(6)
    actual = cx.group_orbit(gens, [(0, 0, 0, 0, 0, 0, 1)])
    assert len(actual) == 72
    ideal = cx.group_orbit(gens, [(1, 0, 0, 0, 0, 0, 1)])
    assert len(ideal) == 27
    want_actual, want_ideal = tables.p6_vertices()
    assert set(actual) == set(want_actual)
    assert set(ideal) == set(want_ideal)
    vertices = actual + ideal
    from functools import partial
    normals = cx.group_orbit(
        gens, [(0, 0, 0, 0, 0, -1, 0)],
        canonical=partial(cx.outward_canonical, vertices=vertices))
    assert set(normals) == set(tables.p6_side_normals())


def test_group_orbit_bound():
    gens = cx.symmetry_generators(6)
    with pytest.raises(cx.OrbitBoundExceeded):
        cx.group_orbit(gens, [(0, 0, 0, 0, 0, 0, 1)], bound=10)


def test_order8_symmetry_invariants():
    abar = cx.ORDER8_SYMMETRY
    assert mat_pow(abar, 8) == identity(7)
    for k in range(1, 8):
        assert mat_pow(abar, k) != identity(7)
    assert det(abar) == -1
    assert det(cx.DECK_GENERATOR) == 1
    flip2 = tuple(tuple((-1 if i == 1 else 1) if i == j else 0
                        for j in range(7)) for i in range(7))
    assert mat_mul(flip2, abar) == cx.DECK_GENERATOR


def test_side_cycles_match_published():
    p6 = build_polytope(6)
    sigma = cx.sigma_permutation(cx.ORDER8_SYMMETRY, p6.normals, p6.vertices)
    assert sigma[0] == 0  # the first side is invariant
    assert sigma[2 - 1] == 11 - 1
    assert sigma[8 - 1] == 25 - 1
    assert sorted(cycles_of(sigma)) == sorted(PUBLISHED_SIDE_CYCLES)


def test_sigma_rejects_non_symmetry():
    p6 = build_polytope(6)
    bad = tuple(tuple((-1 if i == 0 else 1) if i == j else 0
                      for j in range(7)) for i in range(7))
    with pytest.raises(ValueError):
        cx.sigma_permutation(bad, p6.normals, p6.vertices)


def test_side_permutation_is_adjacency_automorphism():
    group = group_closure(cx.symmetry_generators(4))
    poly4_normals = cx.group_orbit(
        cx.symmetry_generators(4), [(0, 0, 0, -1, 0)],
        canonical=lambda v: cx.outward_canonical(v, _p4_vertices()))
    verts = _p4_vertices()
    perp = {(i, j)
            for i in range(len(poly4_normals))
            for j in range(len(poly4_normals))
            if i != j and lorentz_inner(poly4_normals[i], poly4_normals[j]) == 0}
    for g in group:
        perm = cx.sigma_permutation(g, poly4_normals, verts)
        assert {(perm[i], perm[j]) for i, j in perp} == perp


def _p4_vertices():
    gens = cx.symmetry_generators(4)
    return cx.group_orbit(gens, [(0, 0, 0, 0, 1)]) + \
        cx.group_orbit(gens, [(1, 0, 0, 0, 1)])


def test_bernoulli():
    assert cx.bernoulli(0) == 1
    assert cx.bernoulli(1) == Fraction(-1, 2)
    assert cx.bernoulli(2) == Fraction(1, 6)
    assert cx.bernoulli(4) == Fraction(-1, 30)
    assert cx.bernoulli(6) == Fraction(1, 42)
    assert cx.bernoulli(8) == Fraction(-1, 30)
    assert cx.bernoulli(3) == 0


def test_congruence_index():
    assert [cx.congruence_index(n) for n in range(2, 9)] == [
        2, 12, 120, 1920, 51840, 2903040, 348364800]


def test_constants_exact_even():
    want = {2: ("pi/2", Fraction(-1, 4)),
            4: ("pi^2/12", Fraction(1, 16)),
            6: ("pi^3/15", Fraction(-1, 8)),
            8: ("136*pi^4/105", Fraction(17, 4))}
    for n, (vol, chi) in want.items():
        c = cx.constants(n)
        assert str(c.vol_polytope) == vol
        assert c.euler_char_gamma2 == chi
        # volume = symmetry order times covolume, exactly
        assert c.vol_polytope.coefficient == \
            c.covolume.coefficient * c.symmetry_order
    assert cx.constants(6).euler_char_full == Fraction(-1, 414720)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pi_multiples_float_as_with_mpmath_pi(n):
    """math.pi is float(mpmath.pi), so the floats match mpmath's exactly."""
    c = cx.constants(n)
    for value in (c.vol_polytope, c.covolume):
        assert float(value) == \
            float(value.coefficient) * float(mpmath.pi) ** value.pi_power


def test_gluing_path_never_imports_mpmath():
    """Only the odd-dimensional constants load mpmath: not the contexts,
    a certification with homology, restriction, nor a search.  None of
    them builds the reflected union either; decoding does."""
    script = textwrap.dedent("""
        import sys
        from coxglue import cli, homology, pairing, polytope, tables, verify
        from coxglue.search import search_pairings
        pairing.standard_context()
        verify.lattice_context()
        homology.truncated_cells()
        assert cli.certify_one(1)["ok"]
        for mid in range(1, 10):
            pairing.restrict_code(tables.manifold_record(mid).code)
        result = search_pairings(None, node_budget=100)
        assert result.nodes_used == 100
        assert polytope.build_q.cache_info().currsize == 0
        pairing.decode_q_code(tables.manifold_record(1).code)
        assert polytope.build_q.cache_info().currsize > 0
        assert "mpmath" not in sys.modules
        from coxglue.coxeter import constants
        constants(5)
        assert "mpmath" in sys.modules
    """)
    src = str(Path(cx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_constants_gauss_bonnet_relation():
    for n in (2, 4, 6):
        c = cx.constants(n)
        assert c.vol_polytope.coefficient == \
            c.kappa.coefficient * c.euler_char_gamma2
    c8 = cx.constants(8)
    # in dimension 8 the polytope reflection group has index two
    assert c8.vol_polytope.coefficient == \
        c8.kappa.coefficient * c8.euler_char_gamma2 * 2


def test_constants_odd_numeric():
    # independent alternating-series oracle (Cohen-Villegas-Zagier)
    def alt_sum(term, n=40):
        d = (3 + 8 ** 0.5) ** n
        d = (d + 1 / d) / 2
        b, c, s = -1.0, -d, 0.0
        for k in range(n):
            c = b - c
            s += c * term(k)
            b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
        return s / d

    beta2 = alt_sum(lambda k: 1.0 / (2 * k + 1) ** 2)
    zeta3 = alt_sum(lambda k: 1.0 / (k + 1) ** 3) * 4 / 3
    beta4 = alt_sum(lambda k: 1.0 / (2 * k + 1) ** 4)
    assert abs(cx.constants(3).vol_polytope_numeric - beta2) < 1e-10
    assert abs(cx.constants(5).vol_polytope_numeric - 7 * zeta3 / 8) < 1e-10
    assert abs(cx.constants(7).vol_polytope_numeric - 8 * beta4) < 1e-10
    # spot digits
    assert abs(cx.constants(3).vol_polytope_numeric - 0.9159655941772190) < 1e-13
    assert abs(cx.constants(5).vol_polytope_numeric - 1.0517997902646450) < 1e-13
    assert abs(cx.constants(7).vol_polytope_numeric - 7.9115564139288427) < 1e-12


def test_product_order_cap():
    gens = cx.simplex_generators(3).generators
    with pytest.raises(ProductOrderUnbounded):
        product_order(gens[2], gens[3], cap=2)


def test_symmetry_group_fixes_center():
    for n in (3, 4):
        data = cx.simplex_generators(n)
        center = data.simplex_vertices[n - 1]  # opposite the n-th side
        for g in group_closure(cx.symmetry_generators(n)):
            assert mat_vec(g, center) == center


def test_symmetry_order_dim6_and_side_permutations():
    """The symmetry group closes to 51,840 side permutations; sampled
    words, multiplied out as matrices, permute the sides as their
    composed permutations do, preserving the perpendicularity graph."""
    p6 = build_polytope(6)
    gens = cx.symmetry_generators(6)
    side_perms = [cx.sigma_permutation(g, p6.normals, p6.vertices)
                  for g in gens]
    seen = {tuple(range(27))}
    frontier = list(seen)
    while frontier:
        new = []
        for g in side_perms:
            for m in frontier:
                q = tuple(g[x] for x in m)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    assert len(seen) == 51840
    rng = random.Random(9)
    words = [[i] for i in range(len(gens))]
    words += [[rng.randrange(len(gens)) for _ in range(rng.randrange(2, 30))]
              for _ in range(40)]
    perp = {(i, j) for i in range(27) for j in range(27)
            if i != j and lorentz_inner(p6.normals[i], p6.normals[j]) == 0}
    for word in words:
        g, perm = identity(7), tuple(range(27))
        for i in word:
            g = mat_mul(gens[i], g)
            perm = tuple(side_perms[i][x] for x in perm)
        assert cx.sigma_permutation(g, p6.normals, p6.vertices) == perm
        assert {(perm[i], perm[j]) for i, j in perp} == perp
