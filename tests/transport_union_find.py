"""An oracle for the face-cycle engine: a union-find whose links carry
transports of any group, composed on demand, with path compression.

coxglue.verify.FaceCycles keeps its links as powers of the order-8
symmetry and never compresses paths; the tests check its classes, roots
and transports, and the cell classes of the quotient complex, against
this independent implementation.
"""

from __future__ import annotations

from typing import Callable


class TransportUnionFind:
    """Union-find whose edges carry identification transports from any
    group, given by its composition and inverse.

    find(x) returns (root, t) with geometry(x) = t applied to the root's
    geometry; union(x, y, d) asserts geometry(y) = d applied to
    geometry(x) and reports a holonomy conflict when the constraint
    contradicts the existing classes.
    """

    def __init__(self, n: int, compose: Callable, inverse: Callable,
                 ident) -> None:
        self.parent = list(range(n))
        # pot[x]: geometry(x) = pot[x] applied to geometry(parent[x])
        self.pot = [ident] * n
        self.size = [1] * n
        self.compose = compose  # compose(a, b) = "apply b, then a"
        self.inverse = inverse
        self.ident = ident

    def find(self, x: int):
        parent, pot = self.parent, self.pot
        p = parent[x]
        if p == x:
            return x, self.ident
        if parent[p] == p:
            return p, pot[x]
        # hang the path from x directly below its root
        path = [x]
        while parent[p] != p:
            path.append(p)
            p = parent[p]
        t = pot[path.pop()]
        for node in reversed(path):
            t = self.compose(pot[node], t)
            pot[node] = t
            parent[node] = p
        return p, t

    def union(self, x: int, y: int, d) -> bool:
        """Impose geometry(y) = d(geometry(x)); False on holonomy conflict."""
        rx, tx = self.find(x)
        ry, ty = self.find(y)
        want_ty = self.compose(d, tx)
        if rx == ry:
            return ty == want_ty
        if self.size[rx] < self.size[ry]:
            self.parent[rx] = ry
            self.pot[rx] = self.compose(self.inverse(want_ty), ty)
            self.size[ry] += self.size[rx]
        else:
            self.parent[ry] = rx
            self.pot[ry] = self.compose(self.inverse(ty), want_ty)
            self.size[rx] += self.size[ry]
        return True
