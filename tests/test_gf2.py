from __future__ import annotations

import random
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxglue import tables
from coxglue.gf2 import (
    DimensionMismatch,
    Gf2Matrix,
    bits,
    columns_independent,
    gf2_solve,
)


@given(st.integers(min_value=0, max_value=1 << 300))
def test_bits_yields_the_set_bits_ascending(m):
    assert list(bits(m)) == [j for j in range(m.bit_length()) if m >> j & 1]
    assert list(bits(0)) == []


def test_identity_system_returns_target():
    m = Gf2Matrix.identity(6)
    t = 0b101011
    sol = gf2_solve(m, t)
    assert sol.consistent and sol.solution == t
    assert sol.rank == 6 and sol.augmented_rank == 6


def test_zero_matrix_has_no_solution():
    m = Gf2Matrix(4, 3, (0,) * 4)
    sol = gf2_solve(m, 0b0010)
    assert not sol.consistent
    assert sol.rank == 0 and sol.augmented_rank == 1
    assert gf2_solve(m, 0).consistent


def test_published_obstruction_system_has_no_solution():
    m = Gf2Matrix.from_rows(tables.order4_action_m1())
    # right-hand side: relator coefficients at walls 9, 11, 12, 14, 20, 21
    target = 0
    for j in (9, 11, 12, 14, 20, 21):
        target |= 1 << (j - 7)
    sol = gf2_solve(m, target)
    assert not sol.consistent
    assert sol.augmented_rank == sol.rank + 1


def test_target_length_guard():
    with pytest.raises(DimensionMismatch):
        gf2_solve(Gf2Matrix.identity(3), 0b11111)


def test_solution_verifies():
    rng = random.Random(3)
    for _ in range(100):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = Gf2Matrix.from_rows(
            [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)])
        t = rng.getrandbits(r)
        sol = gf2_solve(m, t)
        if sol.consistent:
            assert m.mul_vec(sol.solution) == t
        else:
            assert sol.augmented_rank == sol.rank + 1


def test_exhaustive_oracle_agreement():
    rng = random.Random(11)
    for _ in range(60):
        r, c = rng.randint(1, 8), rng.randint(1, 10)
        m = Gf2Matrix.from_rows(
            [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)])
        images = {m.mul_vec(x) for x in range(1 << c)}
        t = rng.getrandbits(r)
        sol = gf2_solve(m, t)
        assert sol.consistent == (t in images)
        assert 1 << sol.rank == len(images)


def test_matrix_algebra():
    a = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    b = Gf2Matrix.from_rows([[1, 0], [1, 1], [0, 1]])
    prod = a @ b
    assert prod.row_list() == [[0, 1], [1, 0]]
    i3 = Gf2Matrix.identity(3)
    assert (i3 + i3).rank() == 0
    assert i3.power(5).bits == i3.bits
    assert a.transpose().row_list() == [[1, 0], [1, 1], [0, 1]]
    assert a.column(1) == 0b11


def test_columns_independent():
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert columns_independent(m, [0, 1])
    assert not columns_independent(m, [0, 1, 2])


def test_rank_basis_independence():
    rng = random.Random(5)
    for _ in range(30):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        m = Gf2Matrix.from_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert m.rank() == Gf2Matrix.from_rows(shuffled).rank()
        assert m.rank() == m.transpose().rank()


@pytest.mark.parametrize("k", [-1, -8, 2.5, True, "2"])
def test_power_refuses_anything_but_an_int_at_least_zero(k):
    """A negative k once looped forever, as k >>= 1 stays at -1: an alarm
    fails the test instead of letting it hang."""
    def hung(signum, frame):
        raise AssertionError(f"power({k!r}) did not return in 5 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=f"power k={k!r} is not an int"):
            Gf2Matrix.identity(2).power(k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert Gf2Matrix.identity(2).power(0) == Gf2Matrix.identity(2)


@pytest.mark.parametrize("j", [2, 5, -1, True, 1.0])
def test_a_column_outside_the_matrix_is_refused(j):
    m = Gf2Matrix.identity(2)
    for run in (m.column, lambda j: columns_independent(m, [0, j])):
        with pytest.raises(DimensionMismatch,
                           match=rf"no column {j!r} in 2 columns"):
            run(j)


@pytest.mark.parametrize("rows, row", [([[1, 0], [1]], 1), ([[1], [0, 1]], 1),
                                       ([[0, 1], [1, 1], []], 2)])
def test_from_rows_refuses_a_row_of_another_length(rows, row):
    with pytest.raises(DimensionMismatch, match=f"row {row}: "):
        Gf2Matrix.from_rows(rows)


@pytest.mark.parametrize("rows", [[[2, 3]], [[0, 1], [1, -1]], [[True, 0]],
                                  [[1.0, 0]], [["1", 0]]])
def test_from_rows_refuses_an_entry_other_than_0_or_1(rows):
    """[[2, 3]] once read as [[0, 1]], its entries taken mod 2."""
    with pytest.raises(ValueError, match=f"row {len(rows) - 1} holds an "
                       "entry other than 0 or 1"):
        Gf2Matrix.from_rows(rows)
