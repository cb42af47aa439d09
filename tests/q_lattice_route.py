"""The reflected-union properness route, the oracle for the eight-copy
route of coxglue.verify: a face pass on the union's generic face lattice
(tests/q_sides.py), with a union-find of its own.

It shares no copies, transports or union-find with the eight-copy route:
it runs a plain union-find of its own, not `FaceCycles`, and reports
through the instance walk of tests/cycle_report.py.  Its face map is
`flip_targets`, which tests/q_face_map.py checks against exact vertex
images.
"""

from __future__ import annotations

from coxglue.lorentz import Vec, mat_vec
from coxglue.pairing import QSidePairing
from coxglue.verify import PropernessCertificate

from cycle_report import instance_walk_report
from q_sides import q_lattice


class UnionFind:
    """A plain union-find: a parent list, union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Join the classes of x and y; False if they were one already."""
        x, y = self.find(x), self.find(y)
        if x == y:
            return False
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]
        return True


def flip_targets(qsp: QSidePairing) -> dict[tuple[int, int], int]:
    """{(m, face): the face on sides K(S)}, for the face on sides S of
    side m, K the sign flip of m's group, for every side m <= partner[m]
    and every face on m but the ideal points, faces by lattice index.

    The pairing transform r K, r the reflection in the partner side,
    carries side m onto its partner as K alone: K maps side m onto the
    partner side, which r fixes pointwise.  K is a symmetry of the union,
    so it permutes the sides and carries the face on S to the face on
    K(S)."""
    lat = q_lattice(qsp.q.dim)
    by_sides = {f.sides: f.index for f in lat.faces}
    on_side: list[list[int]] = [[] for _ in qsp.q.sides]
    for f in lat.faces:
        if not f.ideal_point:
            for s in f.sides:
                on_side[s].append(f.index)
    out = {}
    for m, on_m in enumerate(on_side):
        if qsp.partner[m] < m:
            continue  # the partner side makes the inverse unions
        perm = qsp.q.flips[qsp.values[m]]
        for fidx in on_m:
            sides = lat.faces[fidx].sides
            out[m, fidx] = by_sides[frozenset([perm[a] for a in sides])]
    return out


def lattice_route(qsp: QSidePairing) -> PropernessCertificate:
    """Union each face on a side with its image under `flip_targets`;
    proper iff each k-face class has 2^(n-k) members and every cycle's
    transport is trivial.

    Transports lie in the polytope's reflection group W, which acts
    freely, and z = (1, ..., 1, 3) is strictly inside the polytope, so a
    transport t is known by t . z.  Each face carries that vector down the
    spanning forest of the unions, and the edges that close a cycle are
    checked against it in edge order, so the first failure is the edge
    that a union-find composing transports as it goes would reject."""
    faces = q_lattice(qsp.q.dim).faces
    nf = len(faces)
    partner, transforms = qsp.partner, qsp.transforms
    uf = UnionFind(nf)
    moved: dict[tuple[int, Vec], Vec] = {}

    def carry(s: int, v: Vec) -> Vec:
        """transforms[s] . v; few of these are distinct."""
        w = moved.get((s, v))
        if w is None:
            w = moved[s, v] = mat_vec(transforms[s], v)
        return w

    # forest[x]: the (y, s) with face y = transforms[s] of face x
    forest: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
    closing: list[tuple[int, int, int]] = []  # (face, image, side)
    for (m, fidx), target in flip_targets(qsp).items():
        if uf.union(fidx, target):
            forest[fidx].append((target, partner[m]))
            forest[target].append((fidx, m))
        else:
            closing.append((fidx, target, m))
    z = (1,) * qsp.q.dim + (3,)
    point: list[Vec | None] = [None] * nf
    for r in range(nf):
        if uf.parent[r] != r:
            continue
        point[r] = z
        stack = [r]
        while stack:
            x = stack.pop()
            for y, s in forest[x]:
                if point[y] is None:
                    point[y] = carry(s, point[x])
                    stack.append(y)
    violation = None
    for fidx, target, m in closing:
        if carry(partner[m], point[fidx]) != point[target]:
            violation = {"kind": "holonomy", "side": m + 1,
                         "face_dim": faces[fidx].dim}
            break
    roots = () if violation else [uf.find(x) for x in range(nf)]
    return instance_walk_report(
        uf.size, [None if f.ideal_point else f.dim for f in faces],
        [f.sides for f in faces], roots, violation)
