from __future__ import annotations

import random
import signal

import pytest

from coxglue.coxeter import DECK_GENERATOR, ORDER8_SYMMETRY
from coxglue.lorentz import (
    DimensionMismatch,
    RowSpan,
    det,
    identity,
    lorentz_inner,
    mat,
    mat_mul,
    mat_pow,
    mat_vec,
    primitive,
    reflection_in,
)
from coxglue.polytope import build_polytope

from group_elements import is_form_preserving, is_positive_lorentzian

E7 = (0, 0, 0, 0, 0, 0, 1)
U7 = (1, 1, 0, 0, 0, 0, 1)
U22 = (1, 1, 1, 1, 1, 0, 2)

# generator of the intersection of the dimension-8 symmetry group with the
# congruence-two subgroup: the longest element, a positive Lorentzian 9x9
LONGEST_ELEMENT_DIM8 = mat([
    [-3, -2, -2, -2, -2, -2, -2, -2, 6],
    [-2, -3, -2, -2, -2, -2, -2, -2, 6],
    [-2, -2, -3, -2, -2, -2, -2, -2, 6],
    [-2, -2, -2, -3, -2, -2, -2, -2, 6],
    [-2, -2, -2, -2, -3, -2, -2, -2, 6],
    [-2, -2, -2, -2, -2, -3, -2, -2, 6],
    [-2, -2, -2, -2, -2, -2, -3, -2, 6],
    [-2, -2, -2, -2, -2, -2, -2, -3, 6],
    [-6, -6, -6, -6, -6, -6, -6, -6, 17],
])

R7_EXPECTED = (
    (-1, -2, 0, 0, 0, 0, 2),
    (-2, -1, 0, 0, 0, 0, 2),
    (0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (-2, -2, 0, 0, 0, 0, 3),
)

R22_EXPECTED = (
    (-1, -2, -2, -2, -2, 0, 4),
    (-2, -1, -2, -2, -2, 0, 4),
    (-2, -2, -1, -2, -2, 0, 4),
    (-2, -2, -2, -1, -2, 0, 4),
    (-2, -2, -2, -2, -1, 0, 4),
    (0, 0, 0, 0, 0, 1, 0),
    (-4, -4, -4, -4, -4, 0, 9),
)


def test_inner_product_examples():
    assert lorentz_inner(E7, E7) == -1
    assert lorentz_inner(U7, U7) == 1
    assert lorentz_inner(U22, U22) == 1


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lorentz_inner((1, 0), (1, 0, 0))


def test_classification():
    """E7 is timelike, (1, 0, ..., 0, 1) lightlike and U7 spacelike."""
    assert lorentz_inner(E7, E7) < 0
    assert lorentz_inner((1, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1)) == 0
    assert lorentz_inner(U7, U7) > 0


def test_reflection_displays():
    assert reflection_in(U7) == R7_EXPECTED
    assert reflection_in(U22) == R22_EXPECTED
    u1 = (-1, 0, 0, 0, 0, 0, 0)
    assert reflection_in(u1) == (
        (-1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1),
    )


def test_reflection_rejects_non_unit():
    """A normal of norm 2 is no unit, which its caller checks; reflection_in
    rejects only normals without an integral reflection."""
    assert lorentz_inner((1, 1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)) == 2
    with pytest.raises(ValueError, match="non-integral"):
        reflection_in((1, 1, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="spacelike"):
        reflection_in(E7)


def test_reflection_involution_and_positivity():
    for u in (U7, U22, (-1, 0, 0, 0, 0, 0, 0)):
        r = reflection_in(u)
        assert mat_mul(r, r) == identity(7)
        assert is_form_preserving(r) and is_positive_lorentzian(r)
        assert det(r) == -1


@pytest.mark.parametrize("k", [-1, -8, 2.5, True])
def test_mat_pow_refuses_anything_but_an_int_at_least_zero(k):
    """A negative k would loop forever, as k >>= 1 stays at -1: an alarm
    fails the test instead of letting it hang."""
    def hung(signum, frame):
        raise AssertionError(f"mat_pow(., {k!r}) did not return in 5 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=f"power k={k!r} is not an int"):
            mat_pow(ORDER8_SYMMETRY, k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert mat_pow(ORDER8_SYMMETRY, 0) == identity(7)


def test_reflection_fixes_perpendicular():
    r = reflection_in(U7)
    for w in ((1, 1, 1, 0, 0, 0, 2), (1, -1, 0, 0, 0, 0, 0)):
        assert lorentz_inner(U7, w) == 0
        assert mat_vec(r, w) == w
    assert mat_vec(r, E7) == (2, 2, 0, 0, 0, 0, 3)


def test_is_positive_lorentzian():
    assert is_positive_lorentzian(DECK_GENERATOR)
    assert is_positive_lorentzian(ORDER8_SYMMETRY)
    time_reversal = tuple(tuple((-1 if i == 6 else 1) if i == j else 0
                                for j in range(7)) for i in range(7))
    assert is_form_preserving(time_reversal)
    assert not is_positive_lorentzian(time_reversal)
    assert is_positive_lorentzian(LONGEST_ELEMENT_DIM8)
    assert not is_positive_lorentzian(((1, 0), (1, 1)))


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0, -2)) == (0, 0, 1)
    assert primitive((-3, 0, 0)) == (1, 0, 0)
    assert primitive((0, 0, 0)) == (0, 0, 0)


def test_det_and_rank():
    assert det(((2, 0), (0, 3))) == 6
    assert det(identity(5)) == 1
    assert det(((1, 2), (2, 4))) == 0
    span = RowSpan()
    assert span.add((1, 0, 2))
    assert not span.add((2, 0, 4))
    assert span.add((0, 5, 1))
    assert span.rank == 2


def test_random_dets_against_expansion():
    rng = random.Random(7)

    def naive(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] *
                   naive([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(n))

    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(tuple(tuple(r) for r in m)) == naive(m)


def test_all_side_reflections_are_involutions():
    from coxglue.lorentz import mat_mul, mat_vec, identity
    p6 = build_polytope(6)
    for u in p6.normals:
        assert lorentz_inner(u, u) == 1
        r = reflection_in(u)
        assert mat_mul(r, r) == identity(7)
        assert is_positive_lorentzian(r)
        for v in p6.vertices:
            if lorentz_inner(u, v) == 0:
                assert mat_vec(r, v) == v
