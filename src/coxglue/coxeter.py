"""Reflection generators of the integral Lorentzian groups and their
finite symmetry subgroups, plus the exact group constants.

Matrices follow the conventions of `lorentz`: tuples of int rows, acting
on column vectors in R^{n,1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import CoxglueError
from .lorentz import (
    Mat,
    Vec,
    lorentz_inner,
    mat,
    mat_mul,
    mat_vec,
    primitive,
    reflection_in,
)

SYMMETRY_ORDERS = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040,
                   8: 696729600}


class OrbitBoundExceeded(CoxglueError, RuntimeError):
    pass


def _perm_matrix(n: int, i: int, j: int) -> Mat:
    """Permutation matrix of the transposition (i, j), 0-based, size n."""
    rows = []
    for r in range(n):
        src = j if r == i else i if r == j else r
        rows.append(tuple(1 if c == src else 0 for c in range(n)))
    return tuple(rows)


def _diag(entries: Sequence[int]) -> Mat:
    return tuple(tuple(entries[i] if i == j else 0 for j in range(len(entries)))
                 for i in range(len(entries)))


@dataclass(frozen=True)
class SimplexGroupData:
    """Generators of the full integral reflection group in dimension n.

    generators[i] is the reflection in side i of the Coxeter simplex; the
    vertex at simplex_vertices[i] is the one opposite side i.  The first
    n-1 generators are coordinate transpositions, the n-th negates the
    n-th coordinate, and the last is the bordered involution mixing the
    first three coordinates with the time coordinate.
    """

    dim: int
    generators: tuple[Mat, ...]
    simplex_vertices: tuple[Vec, ...]
    vertex_is_ideal: tuple[bool, ...]


def simplex_generators(n: int) -> SimplexGroupData:
    if not 2 <= n <= 8:
        raise ValueError("dimension must be between 2 and 8")
    size = n + 1
    gens: list[Mat] = [_perm_matrix(size, i, i + 1) for i in range(n - 1)]
    gens.append(_diag([1] * (n - 1) + [-1, 1]))
    # bordered involution: reflection in e_1 + ... + e_k + e_{n+1}, k = min(3, n)
    k = min(3, n)
    gens.append(reflection_in(
        tuple(1 if (i < k or i == n) else 0 for i in range(size))))

    verts: list[Vec] = [tuple(1 if i in (0, n) else 0 for i in range(size))]
    if n >= 2:
        verts.append(tuple([1, 1] + [0] * (n - 2) + [2]))
    for m in range(3, n + 1):
        verts.append(tuple([1] * m + [0] * (n - m) + [3]))
    verts.append(tuple([0] * n + [1]))
    ideal = tuple(lorentz_inner(v, v) == 0 for v in verts)
    return SimplexGroupData(n, tuple(gens), tuple(verts), ideal)


def symmetry_generator_indices(n: int) -> tuple[int, ...]:
    """Indices (0-based) of the simplex generators spanning the finite
    symmetry group: all but the reflection negating the n-th coordinate,
    except in dimension 2 where only the first transposition remains."""
    if n == 2:
        return (0,)
    return tuple(i for i in range(n + 1) if i != n - 1)


def symmetry_generators(n: int) -> tuple[Mat, ...]:
    data = simplex_generators(n)
    return tuple(data.generators[i] for i in symmetry_generator_indices(n))


def group_orbit(
    gens: Sequence[Mat],
    seeds: Iterable[Vec],
    canonical: Callable[[Vec], Vec] = primitive,
    bound: int = 10 ** 6,
) -> tuple[Vec, ...]:
    """Closure of the seeds under the generators, canonicalized and sorted."""
    seen: set[Vec] = set()
    frontier = []
    for s in seeds:
        c = canonical(tuple(s))
        if c not in seen:
            seen.add(c)
            frontier.append(c)
    while frontier:
        new = []
        for g in gens:
            for v in frontier:
                w = canonical(mat_vec(g, v))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
                    if len(seen) > bound:
                        raise OrbitBoundExceeded(f"orbit exceeds {bound}")
        frontier = new
    return tuple(sorted(seen))


def outward_canonical(v: Vec, vertices: Sequence[Vec]) -> Vec:
    """Scale to primitive and orient so <u, p> <= 0 for every vertex p."""
    w = primitive(v)
    products = [lorentz_inner(w, p) for p in vertices]
    pos = max(products, default=0) > 0
    if pos and min(products) < 0:
        raise ValueError("vector is not a supporting normal of the vertex set")
    return tuple(-c for c in w) if pos else w


def sigma_permutation(symmetry: Mat, normals: Sequence[Vec],
                      vertices: Sequence[Vec]) -> tuple[int, ...]:
    """Permutation pi with symmetry * (side i) = side pi(i), 0-based."""
    index = {u: i for i, u in enumerate(normals)}
    out = []
    for u in normals:
        w = outward_canonical(mat_vec(symmetry, u), vertices)
        if w not in index:
            raise ValueError("matrix does not permute the side normals")
        out.append(index[w])
    perm = tuple(out)
    if len(set(perm)) != len(perm):
        raise ValueError("normal images collide")
    return perm


# the order-8 symmetry of the 6-polytope used to twist the gluings, and its
# determinant-one lift obtained by composing with the second coordinate flip
ORDER8_SYMMETRY: Mat = mat([
    [1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, -1, 0, 1],
    [0, 0, 0, 0, 0, 1, 0],
    [0, -1, 0, -1, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, -1, 0, 1],
    [0, -1, 0, -1, -1, 0, 2],
])

DECK_GENERATOR: Mat = mat_mul(_diag([1, -1, 1, 1, 1, 1, 1]), ORDER8_SYMMETRY)


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the standard recurrence."""
    if k == 0:
        return Fraction(1)
    row = [Fraction(1)]
    for m in range(1, k + 1):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * row[j]
            binom = binom * (m + 1 - j) // (j + 1)
        row.append(-acc / (m + 1))
    return row[k]


@dataclass(frozen=True)
class PiMultiple:
    """Exact rational multiple of an integer power of pi."""

    coefficient: Fraction
    pi_power: int

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi ** self.pi_power

    def __str__(self) -> str:
        c = self.coefficient
        if self.pi_power == 0:
            return str(c)
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        num = pi if c.numerator == 1 else f"{c.numerator}*{pi}"
        return num if c.denominator == 1 else f"{num}/{c.denominator}"


def dirichlet_beta(s: int) -> mpmath.mpf:
    """L(s) = 1 - 3^-s + 5^-s - ..., via Hurwitz zeta, to 30 digits."""
    import mpmath
    with mpmath.workdps(30):
        val = (mpmath.zeta(s, mpmath.mpf(1) / 4)
               - mpmath.zeta(s, mpmath.mpf(3) / 4)) / 4 ** s
        return +val


def congruence_index(n: int) -> int:
    """Index of the congruence-two subgroup in the full reflection group."""
    if not 2 <= n <= 8:
        raise ValueError("dimension must be between 2 and 8")
    num = 1
    for k in range(1, n + 1):
        num *= (2 ** k - 1) if k % 2 == 0 else 2 ** k
    m = n - 1
    if m % 4 == 2:
        cos_term = 0
    else:
        half = 2 ** (m // 2) if m % 2 == 0 else 2 ** ((m - 1) // 2)
        sign = 1 if m % 8 in (0, 1, 7) else -1
        cos_term = sign * half
    den = 2 ** m + cos_term
    if num % den:
        raise ArithmeticError("index formula did not divide")
    return num // den


@dataclass(frozen=True)
class GroupConstants:
    """Exact volume, index and Euler characteristic data in dimension n."""

    dim: int
    index_gamma2: int
    symmetry_order: int
    covolume: PiMultiple | None
    covolume_numeric: float
    vol_polytope: PiMultiple | None
    vol_polytope_numeric: float
    euler_char_gamma2: Fraction
    euler_char_full: Fraction
    kappa: PiMultiple | None


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def constants(n: int) -> GroupConstants:
    if not 2 <= n <= 8:
        raise ValueError("dimension must be between 2 and 8")
    order = SYMMETRY_ORDERS[n]
    index = congruence_index(n)
    if n % 2 == 0:
        half = n // 2
        sign = 1 if n in (2, 8) else -1
        prod = Fraction(1)
        for k in range(1, half + 1):
            prod *= abs(bernoulli(2 * k))
        coef = Fraction(2 ** half + sign, 1) * prod / Fraction(
            _double_factorial(n) * _double_factorial(n - 1))
        covol = PiMultiple(coef, half)
        vol = PiMultiple(coef * order, half)
        kappa = PiMultiple(Fraction((-2) ** half, _double_factorial(n - 1)), half)
        chi_reflection = vol.coefficient / kappa.coefficient
        chi_gamma2 = chi_reflection / 2 if n == 8 else chi_reflection
        return GroupConstants(
            dim=n, index_gamma2=index, symmetry_order=order,
            covolume=covol, covolume_numeric=float(covol),
            vol_polytope=vol, vol_polytope_numeric=float(vol),
            euler_char_gamma2=chi_gamma2,
            euler_char_full=chi_gamma2 / index,
            kappa=kappa)
    import mpmath  # odd dimensions only: the gluing path never loads it
    with mpmath.workdps(30):
        if n == 3:
            vol_num = dirichlet_beta(2)
        elif n == 5:
            vol_num = 7 * mpmath.zeta(3) / 8
        else:
            vol_num = 8 * dirichlet_beta(4)
        covol_num = vol_num / order
    return GroupConstants(
        dim=n, index_gamma2=index, symmetry_order=order,
        covolume=None, covolume_numeric=float(covol_num),
        vol_polytope=None, vol_polytope_numeric=float(vol_num),
        euler_char_gamma2=Fraction(0), euler_char_full=Fraction(0),
        kappa=None)
