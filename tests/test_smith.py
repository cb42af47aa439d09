from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxglue.errors import DimensionMismatch
from coxglue.smith import (SmithDecomposition, eliminate_units,
                           invariant_factors, smith_normal_form)


def oracle_invariant_factors(m):
    """Naive textbook reduction: independent of the library code path."""
    m = [list(r) for r in m]
    out = []
    while m and m[0]:
        if all(all(x == 0 for x in row) for row in m):
            break
        # move the least nonzero entry to the corner
        bi, bj = min(((i, j) for i in range(len(m)) for j in range(len(m[0]))
                      if m[i][j]),
                     key=lambda t: abs(m[t[0]][t[1]]))
        m[0], m[bi] = m[bi], m[0]
        for row in m:
            row[0], row[bj] = row[bj], row[0]
        while True:
            p = m[0][0]
            done = True
            for i in range(1, len(m)):
                if m[i][0] % p:
                    q = m[i][0] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[0])]
                    m[0], m[i] = m[i], m[0]
                    done = False
                    break
            if not done:
                continue
            for i in range(1, len(m)):
                q = m[i][0] // p
                m[i] = [a - q * b for a, b in zip(m[i], m[0])]
            for j in range(1, len(m[0])):
                if m[0][j] % p:
                    q = m[0][j] // p
                    for row in m:
                        row[j] -= q * row[0]
                    # the remainder moves into column j; swap it to front
                    for row in m:
                        row[0], row[j] = row[j], row[0]
                    done = False
                    break
            if not done:
                continue
            for j in range(1, len(m[0])):
                q = m[0][j] // p
                for row in m:
                    row[j] -= q * row[0]
            # pivot must divide the remainder of the matrix
            bad = None
            for i in range(1, len(m)):
                for j in range(1, len(m[0])):
                    if m[i][j] % p:
                        bad = i
                        break
                if bad:
                    break
            if bad is None:
                break
            m[0] = [a + b for a, b in zip(m[0], m[bad])]
        out.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    return tuple(sorted(out))


def test_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == (1, 1, 1)


def test_transforms_reconstruct():
    rng = random.Random(2)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(a)
        assert isinstance(dec, SmithDecomposition)
        assert dec.verify(a)


def test_divisibility_chain():
    """A pivot that does not divide what is left gets that row added,
    and the transforms survive every such fix-up: diag(6, 10, 15) needs
    two."""
    for diag, want in [((4, 6, 10), (2, 2, 60)), ((2, 3), (1, 6)),
                       ((6, 10, 15), (1, 30, 30))]:
        a = [[x if i == j else 0 for j in range(len(diag))]
             for i, x in enumerate(diag)]
        dec = smith_normal_form(a)
        assert dec.diagonal == want
        assert dec.verify(a)
        for d, dn in zip(dec.diagonal, dec.diagonal[1:]):
            assert dn % d == 0


def test_against_oracle():
    rng = random.Random(13)
    for _ in range(80):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        dec = smith_normal_form(a)
        assert tuple(sorted(abs(d) for d in dec.diagonal)) == \
            oracle_invariant_factors(a)
        bare = smith_normal_form(a, transforms=False)
        assert bare.diagonal == dec.diagonal
        assert not any(bare.u) and not bare.v
        sparse = {(i, j): a[i][j] for i in range(r) for j in range(c) if a[i][j]}
        assert invariant_factors(sparse, (r, c)) == \
            tuple(sorted(abs(d) for d in dec.diagonal))


def test_sparse_input_matches_dense():
    """Sparse input, about half its entries zero, against the dense
    textbook oracle."""
    rng = random.Random(17)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0
              for _ in range(c)] for _ in range(r)]
        sparse = {(i, j): a[i][j] for i in range(r) for j in range(c) if a[i][j]}
        assert invariant_factors(sparse, (r, c)) == oracle_invariant_factors(a)


@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 1), (1, -1)])
def test_invariant_factors_rejects_an_entry_outside_the_shape(key):
    for val in (1, 0):
        with pytest.raises(DimensionMismatch,
                           match=rf"entry \({key[0]}, {key[1]}\)"
                                 r" lies outside the shape \(2, 3\)"):
            invariant_factors({(0, 0): 2, (1, 2): 3, key: val}, (2, 3))
    assert invariant_factors({(0, 0): 2, (1, 2): 3}, (2, 3)) == (1, 6)


@pytest.mark.parametrize("a, where", [
    ([[2.5]], "(0, 0) is 2.5"), ([["3"]], "(0, 0) is '3'"),
    ([[True, 2]], "(0, 0) is True"), ([[1, 2], [4, Fraction(6)]],
                                      "(1, 1) is Fraction(6, 1)"),
])
def test_smith_refuses_an_entry_not_an_int(a, where):
    for transforms in (True, False):
        with pytest.raises(ValueError,
                           match=re.escape(f"entry {where}, not an int")):
            smith_normal_form(a, transforms=transforms)


@pytest.mark.parametrize("a", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
def test_smith_refuses_a_ragged_matrix(a):
    with pytest.raises(DimensionMismatch, match="ragged matrix at row 1"):
        smith_normal_form(a)


@pytest.mark.parametrize("entries", [
    {(0, 0): 2.5}, {(0, 0): Fraction(2)}, {(0, 1): "3"}, {(0, 0): True},
    {(0.0, 0): 1}, {(0, True): 1}, {(0, 0): 0.0},
    # keys that are not a pair of indices
    {5: 1}, {(0,): 1}, {(0, 0, 0): 1}, {"ab": 1},
])
def test_invariant_factors_refuses_an_entry_not_an_int(entries):
    (key, val), = entries.items()
    with pytest.raises(ValueError, match=re.escape(
            f"entry {key}: {val!r} is not an int entry")):
        invariant_factors(entries, (2, 2))


def test_unimodular_transforms():
    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] *
                   det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(n))

    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        dec = smith_normal_form(a)
        assert abs(det([list(r) for r in dec.u])) == 1
        assert abs(det([list(r) for r in dec.v])) == 1


@st.composite
def twisted_complexes(draw):
    """(dims, boundaries): elementary complexes Z -k-> Z and free cells
    in degrees 0-3, scattered by random changes of basis, which keep the
    homology."""
    dims, pairs = [], []
    for d in range(4):
        dims += [d] * draw(st.integers(1 if d == 0 else 0, 3))
        for k in draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 6]),
                               max_size=3 if d else 0)):
            pairs.append((len(dims), len(dims) + 1, k))
            dims += [d - 1, d]
    n = len(dims)
    mat = [[0] * n for _ in dims]  # mat[face][cell]
    for a, b, k in pairs:
        mat[a][b] = k
    cells = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(cells, cells,
                                           st.sampled_from([-2, -1, 1, 2])),
                                 max_size=4 * n)):
        if i != j and dims[i] == dims[j]:
            # new basis e_i + c e_j: column i of the boundary gains c times
            # column j, row j of the coboundary loses c times row i
            for row in mat:
                row[i] += c * row[j]
            mat[j] = [x - c * y for x, y in zip(mat[j], mat[i])]
    bd = {b: {a: mat[a][b] for a in range(n) if mat[a][b]} for b in range(n)}
    return dims, bd


def _dense_factors(dims, bd):
    """{degree: invariant factors of the boundary into it}, by dense SNF
    of the complex on the cells of `bd`."""
    out = {}
    for d in range(1, max(dims) + 1):
        rows = [c for c in bd if dims[c] == d - 1]
        cols = [c for c in bd if dims[c] == d]
        dense = [[bd[c].get(r, 0) for c in cols] for r in rows]
        out[d] = sorted(abs(x) for x in smith_normal_form(dense).diagonal)
    return out


def _dense_homology(dims, bd):
    factors = _dense_factors(dims, bd)
    return [(sum(dims[c] == d for c in bd) - len(factors.get(d, ()))
             - len(factors.get(d + 1, ())),
             [f for f in factors.get(d + 1, ()) if f > 1])
            for d in range(max(dims) + 1)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(cx=twisted_complexes())
# loops e1, e2 and a disc f = e1 + 2 e2: the heap pairs f with e1, its
# one +-1 face, and the coefficient 2 of e2 never pivots
@example(cx=([0, 1, 1, 2], {0: {}, 1: {}, 2: {}, 3: {1: 1, 2: 2}}))
# a path v0 - e1 - v1 - e2 - v2: e1 pairs with v0, its +-1 face of
# fewest cofaces; then v2 and v1 have one coface each, and e2 pairs
# with v2, its first
@example(cx=([0, 0, 0, 1, 1], {0: {}, 1: {}, 2: {}, 3: {1: 1, 0: -1},
                               4: {2: 1, 1: -1}}))
def test_eliminate_units_keeps_its_contract(cx):
    """No cell left keeps a +-1 face, the residue has the homology of
    the whole complex, and the pairs with the residue give its
    invariant factors."""
    dims, bd = cx
    before = {c: dict(faces) for c, faces in bd.items()}
    pairs = eliminate_units(bd)
    assert 2 * pairs == len(before) - len(bd)
    for faces in bd.values():
        assert all(v not in (1, -1) for v in faces.values())
    assert _dense_homology(dims, bd) == _dense_homology(dims, before)
    whole = sorted(f for fs in _dense_factors(dims, before).values()
                   for f in fs)
    left = sorted(f for fs in _dense_factors(dims, bd).values() for f in fs)
    assert whole == sorted([1] * pairs + left)
