"""An oracle for the face map of the reflected-union route
(tests/q_lattice_route.py): each face on side m carried the long way, by
multiplying the pairing transform of the partner side into every vertex
of side m and looking the image up by its vertex set.

That route maps the face on sides S to the face on sides K(S), K the sign
flip of m's group, read off `QPolytope.flips`; the tests check that rule,
`flip_targets`, against these exact vertex images.
"""

from __future__ import annotations

from coxglue.lorentz import mat_vec
from coxglue.pairing import QSidePairing

from q_sides import q_lattice


def vertex_image_targets(qsp: QSidePairing) -> dict[tuple[int, int], int]:
    """{(m, face): the face transforms[partner[m]] carries it to}, for
    every side m <= partner[m] and every face on m but the ideal points,
    faces by lattice index."""
    lat = q_lattice(qsp.q.dim)
    poly = lat.polytope
    vindex = {v: i for i, v in enumerate(poly.vertices)}
    on_side: list[list[int]] = [[] for _ in poly.normals]
    by_sides = {}
    for f in lat.faces:
        if not f.ideal_point:
            by_sides[f.sides] = f.index
            for s in f.sides:
                on_side[s].append(f.index)
    out = {}
    for m, faces in enumerate(on_side):
        if qsp.partner[m] < m:
            continue
        g = qsp.transforms[qsp.partner[m]]
        side = lat.faces[by_sides[frozenset((m,))]]
        image = {vid: 1 << vindex[mat_vec(g, poly.vertices[vid])]
                 for vid in lat.vertex_ids(side)}
        for fidx in faces:
            mask = 0
            for vid in lat.vertex_ids(lat.faces[fidx]):
                mask |= image[vid]
            out[m, fidx] = lat.by_vertex_mask[mask]
    return out
