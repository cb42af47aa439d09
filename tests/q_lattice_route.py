"""An oracle for coxglue.verify._cycles_q: the reflected-union face pass
on the union's generic face lattice (tests/q_sides.py), each image face
found by a frozenset lookup of its sides.

coxglue lists the union's faces off the base polytope's lattice and finds
each image by its sorted sides; the tests compare the two passes'
verdicts, `dims` and violations.  The union-find, the spanning-forest
t . z holonomy check and their order are those of the pass it checks.
"""

from __future__ import annotations

from coxglue.lorentz import Vec, mat_vec
from coxglue.pairing import QSidePairing
from coxglue.verify import FaceCycles, PropernessCertificate, _cycle_report

from q_sides import q_lattice


def lattice_route(qsp: QSidePairing) -> PropernessCertificate:
    lat = q_lattice(qsp.q.dim)
    faces = lat.faces
    by_sides = {f.sides: f.index for f in faces}
    nf = len(faces)
    on_side: list[list[int]] = [[] for _ in qsp.q.sides]
    for f in faces:
        if not f.ideal_point:
            for s in f.sides:
                on_side[s].append(f.index)
    partner, transforms = qsp.partner, qsp.transforms
    uf = FaceCycles(nf)
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
    for m, on_m in enumerate(on_side):
        if partner[m] < m:
            continue
        perm = qsp.q.flips[qsp.values[m]]
        for fidx in on_m:
            target = by_sides[frozenset([perm[a] for a in faces[fidx].sides])]
            links = len(uf.journal)
            uf.union(fidx, target, 0)
            if len(uf.journal) > links:
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
    roots = () if violation else [uf.find(x)[0] for x in range(nf)]
    return _cycle_report(uf, [None if f.ideal_point else f.dim for f in faces],
                         [f.sides for f in faces], roots, violation)
