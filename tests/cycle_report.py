"""An oracle for the report in coxglue.verify._cycles_eight: the report
read by walking every face instance, in instance order, rather than the
class roots.

coxglue counts faces from the polytope and reads orbits and cycle lengths
at the class roots, scanning the instances only for a witness; the tests
compare its `dims` and `violation` with this walk, given the roots of the
pass itself.  Both test oracles of the pass report through this walk
alone: the eight-copy pass that unions each side pair from both of its
sides (tests/test_verify.py) and the reflected-union route of
tests/q_lattice_route.py.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from coxglue.verify import PropernessCertificate


def instance_walk_report(sizes: Sequence[int] | Mapping[int, int],
                         face_dims: Sequence, sides: Sequence,
                         roots: Sequence[int],
                         violation: dict | None) -> PropernessCertificate:
    """Faces and orbits per dimension, and the first class whose cycle
    has the wrong length, from the root of each face instance copy *
    faces + face; each face has its dim and sides, the whole polytope
    first and dim None at the ideal points, and `sizes[r]` is the size of
    the class rooted at r.  No counts after a holonomy conflict."""
    n = face_dims[0]
    nf = len(face_dims)
    dims: dict[int, dict[str, int]] = {
        k: {"faces": 0, "orbits": 0, "expected_cycle": 2 ** (n - k)}
        for k in range(n)}
    if violation is not None:
        return PropernessCertificate(False, dims, violation)
    # the pass traces every face but the ideal points and the polytope
    traced = [None if k == n else k for k in face_dims]
    for x, r in enumerate(roots):
        k = traced[x % nf]
        if k is None:
            continue
        dims[k]["faces"] += 1
        dims[k]["orbits"] += r == x
        if violation is None and sizes[r] != 2 ** (n - k):
            # x is the first member of the first such class met
            copy, fidx = divmod(x, nf)
            violation = {"kind": "cycle_length", "face_dim": k,
                         "cycle_length": sizes[r],
                         "expected": 2 ** (n - k),
                         "witness_copy": copy + 1,
                         "witness_face_sides":
                             sorted(s + 1 for s in sides[fidx])}
    return PropernessCertificate(violation is None, dims, violation)
