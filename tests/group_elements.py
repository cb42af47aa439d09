"""Test-local group checks on exact Lorentzian matrices: the order of a
product, the closure of a finite generating set, form preservation, and
the powers of the order-8 symmetry."""

from __future__ import annotations

from typing import Sequence

from coxglue.coxeter import ORDER8_SYMMETRY, OrbitBoundExceeded
from coxglue.lorentz import Mat, identity, mat_mul, mat_pow

# the order-8 symmetry's powers 0..7 as matrices
SIGMA_POWERS = tuple(mat_pow(ORDER8_SYMMETRY, t) for t in range(8))


class ProductOrderUnbounded(RuntimeError):
    pass


def product_order(a: Mat, b: Mat, cap: int = 64) -> int:
    """Order of a*b, by iterating the product; raises past the cap."""
    p = mat_mul(a, b)
    acc = p
    ident = identity(len(a))
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = mat_mul(acc, p)
    raise ProductOrderUnbounded(f"order exceeds {cap}")


def group_closure(gens: Sequence[Mat], bound: int = 10 ** 7) -> list[Mat]:
    """All products of the generators, by breadth-first closure."""
    seen: dict[Mat, None] = {}
    ident = identity(len(gens[0]))
    frontier = [ident]
    seen[ident] = None
    while frontier:
        new: list[Mat] = []
        for g in gens:
            for m in frontier:
                p = mat_mul(g, m)
                if p not in seen:
                    seen[p] = None
                    new.append(p)
                    if len(seen) > bound:
                        raise OrbitBoundExceeded(f"group exceeds {bound}")
        frontier = new
    return list(seen)


def is_form_preserving(m: Mat) -> bool:
    """M^T J M == J for J = diag(1, ..., 1, -1)."""
    n = len(m)
    j = tuple(tuple((-1 if i == n - 1 else 1) if i == k else 0
                    for k in range(n)) for i in range(n))
    return mat_mul(mat_mul(tuple(zip(*m)), j), m) == j


def is_positive_lorentzian(m: Mat) -> bool:
    """Form preserving and keeps the sign of the time coordinate."""
    if len(m) != len(m[0]):
        return False
    return is_form_preserving(m) and m[-1][-1] > 0
