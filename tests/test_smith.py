from __future__ import annotations

import random

import pytest

from coxglue.smith import SmithDecomposition, invariant_factors, smith_normal_form


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
    dec = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert dec.diagonal == (2, 2, 60)
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
        with pytest.raises(ValueError, match=rf"entry \({key[0]}, {key[1]}\)"
                                             r" lies outside the shape \(2, 3\)"):
            invariant_factors({(0, 0): 2, (1, 2): 3, key: val}, (2, 3))
    assert invariant_factors({(0, 0): 2, (1, 2): 3}, (2, 3)) == (1, 6)


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
