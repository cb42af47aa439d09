"""Exact integer linear algebra in Lorentzian signature (n, 1).

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Everything is arbitrary precision and immutable; all functions here are
pure, so concurrent use is safe.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def mat(rows: Iterable[Iterable[int]]) -> Mat:
    m = tuple(tuple(int(e) for e in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise DimensionMismatch("ragged matrix")
    return m


def lorentz_inner(x: Sequence[int], y: Sequence[int]) -> int:
    """Signature (n,1) product x_1 y_1 + ... + x_n y_n - x_{n+1} y_{n+1}."""
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} != {len(y)}")
    return sum(map(mul, x, y)) - 2 * x[-1] * y[-1]


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Mat, v: Sequence[int]) -> Vec:
    if len(m[0]) != len(v):
        raise DimensionMismatch("matrix/vector size")
    return tuple(sum(map(mul, r, v)) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix sizes")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_pow(m: Mat, k: int) -> Mat:
    if type(k) is not int or k < 0:
        raise ValueError(f"power k={k!r} is not an int >= 0")
    out = identity(len(m))
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def reflection_in(u: Sequence[int]) -> Mat:
    """Matrix of the reflection x -> x - 2 <u,x>/<u,u> u.

    Integral whenever <u,u> divides 2*u_i*u_j entrywise; the unit (norm 1)
    and norm 2 normals used throughout satisfy that.
    """
    q = lorentz_inner(u, u)
    if q <= 0:
        raise ValueError("reflection normal must be spacelike")
    n = len(u)
    sign = [1] * (n - 1) + [-1]
    rows = []
    for i in range(n):
        row = []
        for jj in range(n):
            num = 2 * u[i] * u[jj] * sign[jj]
            if num % q:
                raise ValueError("non-integral reflection")
            row.append((1 if i == jj else 0) - num // q)
        rows.append(tuple(row))
    return tuple(rows)


def content(v: Sequence[int]) -> int:
    return gcd(*v)


def primitive(v: Sequence[int]) -> Vec:
    """Divide out the content; orient so the last nonzero coordinate set is
    canonical (positive time coordinate when nonzero, else first nonzero
    entry positive)."""
    g = content(v)
    if g == 0:
        return tuple(v)
    w = tuple(c // g for c in v)
    if w[-1] != 0:
        return w if w[-1] > 0 else tuple(-c for c in w)
    for c in w:
        if c:
            return w if c > 0 else tuple(-c for c in w)
    return w


def det(m: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for jj in range(k + 1, n):
                a[i][jj] = (a[i][jj] * a[k][k] - a[i][k] * a[k][jj]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


class RowSpan:
    """Incremental exact integer row space: the face lattice's dimension
    count for the faces whose rank mod 2 falls short."""

    def __init__(self) -> None:
        self._basis: list[tuple[int, ...]] = []
        self._pivots: list[int] = []

    def add(self, row: Sequence[int]) -> bool:
        """Insert a row; True if it enlarged the span."""
        r = tuple(row)
        for b, piv in zip(self._basis, self._pivots):
            if r[piv]:
                bp, rp = b[piv], r[piv]
                r = tuple([x * bp - y * rp for x, y in zip(r, b)])
        for i, x in enumerate(r):
            if x:
                g = content(r)
                self._basis.append(tuple([c // g for c in r]))
                self._pivots.append(i)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self._basis)
