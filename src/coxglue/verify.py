"""Certification of side-pairings: geometric properness through face
cycles, and the algebraic torsion-freeness route through GF(2) column
independence and the order-8 extension obstruction.

Properness traces the face cycles of the eight copies with one engine,
FaceCycles, which the search shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, count, product
from operator import eq, itemgetter
from typing import Sequence

from .coxeter import ORDER8_SYMMETRY, constants
from .errors import CoxglueError
from .gf2 import Gf2Matrix, bits, columns_independent, gf2_solve
# mat_mul is unused here but stays importable: perfbench/layers.py patches it
from .lorentz import mat_mul, mat_vec  # noqa: F401
from .pairing import (
    EightPPairing,
    PairingCode,
    as_code,
    develop,
    orientability_of_code,
    sigma_powers,
    standard_context,
)
from .polytope import FaceLattice, face_lattice


class CertificationError(CoxglueError, RuntimeError):
    pass


class InvarianceError(CertificationError):
    """The relation subspace is not preserved by the side permutation."""


# -- the face-cycle engine ------------------------------------------------


class FaceCycles:
    """The face-cycle engine: union-find over face instances
    copy * faces + face whose links carry powers of the order-8 symmetry,
    with crossing counts and an undo journal.  The eight-copy properness
    pass glues a whole array, one side pair per `glue` call, the search
    partial arrays, which it rolls back; so search pruning and
    certification read the same cycles.  It is the only union-find in
    coxglue: the eight-copy pass also glues the ideal points, whose
    classes are the cusps of the glued manifold.

    find(x) returns (root, t) with face x = sigma^t of the root's face;
    union(x, y, d, c) is glue on one face.  Union by size, y's root below
    x's on a tie.  No path compression, so rollback finds every link.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.pot = [0] * n  # x = sigma^pot[x] of parent[x]
        self.size = [1] * n
        self.asg = [0] * n  # crossings counted on each class, at its root
        # one entry per face glued that changed anything: 4 * child + c for
        # a link that also counted c crossings on the new root, ~(4 * root
        # + c) for c crossings counted on a class that was already one
        self.journal: list[int] = []

    def find(self, x: int) -> tuple[int, int]:
        parent, pot = self.parent, self.pot
        t = 0
        while parent[x] != x:
            t += pot[x]
            x = parent[x]
        return x, t % 8

    def glue(self, xb: int, yb: int, faces: Sequence[int], fp: Sequence[int],
             d: int, c: int = 0, caps: Sequence[int] | None = None,
             walls: Sequence[int] | None = None) -> int:
        """For each f in faces, in order, impose instance yb + fp[f] =
        sigma^d of instance xb + f and count c (0 to 3) crossings on its
        class.  Returns the first f that conflicts (counting nothing) or,
        given the search's tables, whose class is longer than its cycle
        caps[f] or closed (walls[f] crossings per member) short of it; a
        class holds faces of one dimension.  -1 if no face fails."""
        parent, pot, size, asg = self.parent, self.pot, self.size, self.asg
        journal = self.journal
        for f in faces:
            x, y, e = xb + f, yb + fp[f], d
            while parent[x] != x:  # find(x) and find(y), inline
                e += pot[x]
                x = parent[x]
            while parent[y] != y:
                e -= pot[y]
                y = parent[y]
            e %= 8  # now roots, with y = sigma^e x
            if x != y:
                if size[x] < size[y]:
                    x, y, e = y, x, -e % 8
                parent[y] = x
                pot[y] = e
                size[x] += size[y]
                asg[x] += asg[y] + c
                journal.append(4 * y + c)
            elif e:
                return f
            elif c:
                asg[x] += c
                journal.append(~(4 * x + c))
            if caps is not None:
                n, cap = size[x], caps[f]
                if n > cap or (n != cap and asg[x] == walls[f] * n):
                    return f
        return -1

    def union(self, x: int, y: int, d: int, c: int = 0) -> int:
        """glue on one face, y = sigma^d x: its class's root, or -1."""
        return -1 if self.glue(x, y, (0,), (0,), d, c) >= 0 else self.find(x)[0]

    def rollback(self, mark: int) -> None:
        """Undo every union and crossing made since mark."""
        parent, journal, asg = self.parent, self.journal, self.asg
        pot, size = self.pot, self.size
        for e in reversed(journal[mark:]):
            if e < 0:
                asg[~e >> 2] -= ~e & 3
                continue
            x = e >> 2
            root = parent[x]
            parent[x] = x
            pot[x] = 0
            size[root] -= size[x]
            asg[root] -= asg[x] + (e & 3)
        del journal[mark:]


# -- shared exact action of the order-8 symmetry on the face lattice ----


@dataclass(frozen=True)
class LatticeContext:
    """The dimension-6 face lattice with the exact order-8 symmetry action,
    and the tables the search and the torsion check read off it."""

    lattice: FaceLattice
    vperm: tuple[tuple[int, ...], ...]
    fperm: tuple[tuple[int, ...], ...]
    dims: tuple[int | None, ...]
    sides_faces: tuple[tuple[int, ...], ...]
    sides_ideal: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...]
    side_vertices: tuple[itemgetter, ...]
    cycle_lengths: tuple[int, ...]
    wall_counts: tuple[int, ...]
    torsion_conditions: tuple[tuple[int, ...], ...]
    torsion_representatives: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def lattice_context() -> LatticeContext:
    """The dimension-6 `lattice`; the vertex (`vperm`) and face (`fperm`)
    permutations of each power 0..7 of the symmetry sigma: sigma's own
    through its matrix, each face cross-checked between the vertex route
    and the side-set route, then composed, with sigma^8 the identity;
    each face's `dims`, None at the ideal points; and on each side, the
    ideal points in `sides_ideal` and the other faces in `sides_faces`.
    The search reads `vertices`, the actual vertices as faces, per side
    the getter of its 16 from a list in that order, `side_vertices`, and
    each face's cycle length 2^(6 - dim) and wall count.  The torsion check
    reads the sorted sides of its 288 conditions, the actual vertices
    then the line edges in face order, and of its 36 representatives: per
    orbit of the symmetry, in the order met, the member with the least
    vertex ids."""
    ctx = standard_context()
    p6 = ctx.polytope
    lat = face_lattice(p6)
    faces = lat.faces
    vindex = {v: i for i, v in enumerate(p6.vertices)}
    vsigma = [vindex[mat_vec(ORDER8_SYMMETRY, v)] for v in p6.vertices]
    # sigma's image of each vertex and of each side, as a bit
    vmoved = [1 << v for v in vsigma]
    smoved = [1 << s for s in ctx.sigma_pows[1]]
    fsigma = []
    for f in faces:
        g = lat.by_vertex_mask[sum(map(vmoved.__getitem__,
                                       bits(f.vertex_mask)))]
        if sum(map(smoved.__getitem__, f.sides)) != faces[g].side_mask:
            raise AssertionError("vertex and side transport routes disagree")
        fsigma.append(g)
    vperm, fperm = sigma_powers(vsigma), sigma_powers(fsigma)
    sides_faces: list[list[int]] = [[] for _ in p6.normals]
    sides_ideal: list[list[int]] = [[] for _ in p6.normals]
    for f in faces:
        for s in f.sides:
            (sides_ideal if f.ideal_point else sides_faces)[s].append(f.index)
    dims = tuple(None if f.ideal_point else f.dim for f in faces)
    vertices = tuple(f.index for f in faces if dims[f.index] == 0)
    lines = tuple(f.index for f in faces if f.edge_kind == "line")
    reps = []
    for pool, total in ((vertices, 9), (lines, 36)):  # orbits so far
        seen: set[int] = set()
        for f in pool:
            if f in seen:
                continue
            orbit = {fperm[p][f] for p in range(8)}
            if len(orbit) != 8:
                raise AssertionError("the order-8 symmetry does not act "
                                     "freely on the torsion conditions")
            seen |= orbit
            reps.append(min(orbit, key=lambda g: lat.vertex_ids(faces[g])))
        if len(reps) != total:
            raise AssertionError("unexpected orbit count")

    def sides_of(fs) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(faces[f].sides)) for f in fs)

    return LatticeContext(
        lat, vperm, fperm, dims, tuple(map(tuple, sides_faces)),
        tuple(map(tuple, sides_ideal)), vertices,
        tuple(itemgetter(*(vertices.index(f) for f in on_side
                           if faces[f].dim == 0)) for on_side in sides_faces),
        tuple(2 ** (6 - f.dim) for f in faces),
        tuple(len(f.sides) for f in faces),
        sides_of(vertices + lines), sides_of(reps))


# -- properness ----------------------------------------------------------


@dataclass(frozen=True)
class PropernessCertificate:
    """Verdict of the cached eight-copy pass, shared by its callers, with
    the class `roots` and `transports` (powers of sigma) of each instance,
    ideal points too (the cusps), walked in place from `links`, the pass's
    parent and pot lists, on first read, so only their reader pays for
    them; None after a holonomy conflict."""

    proper: bool
    dims: dict[int, dict[str, int]]
    violation: dict | None = None
    links: tuple[list[int], list[int]] | None = field(
        default=None, compare=False, repr=False)

    @cached_property
    def roots(self) -> list[int] | None:
        if self.links is None:
            return None
        parent, pot = self.links
        for x in range(len(parent)):  # in place: walks via x then jump
            r, t = parent[x], pot[x]
            while parent[r] != r:
                t += pot[r]
                r = parent[r]
            parent[x], pot[x] = r, t % 8
        return parent

    @property
    def transports(self) -> list[int] | None:
        return None if self.roots is None else self.links[1]

    def to_json(self) -> dict:
        return {"proper": self.proper,
                "dims": {str(k): v for k, v in sorted(self.dims.items())},
                "violation": self.violation}


def face_cycles_proper(arr: EightPPairing) -> PropernessCertificate:
    """Trace every face orbit of the eight copies through the side
    pairing: proper iff each k-face class has 2^(n-k) members and trivial
    holonomy.  A reader of the certificate's classes pays for their walk."""
    if not isinstance(arr, EightPPairing):
        raise CertificationError(f"the face-cycle check needs an "
                                 f"EightPPairing, not a {type(arr).__name__}")
    return _cycles_eight(arr)


@lru_cache(maxsize=1)  # the quotient complex reuses certification's pass
def _cycles_eight(arr: EightPPairing) -> PropernessCertificate:
    """Glue the eight copies, each side pair once, and report faces and
    orbits per dimension with the first violation: a holonomy conflict,
    with no counts, or the first class whose cycle has the wrong length.
    The ideal points and the polytope itself count in no dimension.
    Unions keep the dimension, so face counts are the polytope's times
    eight, orbits and cycle lengths are read at the class roots, and only
    a bad class sends a scan for its witness, the first member in
    instance order.  The certificate keeps only parent and pot."""
    arr.validate_involution()
    sigma_pows = standard_context().sigma_pows
    ctx = lattice_context()
    fperm, face_dims = ctx.fperm, ctx.dims
    n, nf = face_dims[0], len(face_dims)
    dims: dict[int, dict[str, int]] = {
        k: {"faces": 0, "orbits": 0, "expected_cycle": 2 ** (n - k)}
        for k in range(n)}
    uf = FaceCycles(8 * nf)
    glue = uf.glue
    for i, j in product(range(8), range(27)):
        k, p = arr.entry(i, j)
        if (k, sigma_pows[p][j]) < (i, j):
            continue  # the partner entry, met earlier, made the inverse unions
        base_i, base_k, fp = i * nf, k * nf, fperm[p]
        if (fidx := glue(base_i, base_k, ctx.sides_faces[j], fp, p)) >= 0:
            return PropernessCertificate(False, dims, {
                "kind": "holonomy", "copy": i + 1, "side": j + 1,
                "face_dim": face_dims[fidx]})
        # the cusps: ideal points, which the report skips, with transport
        # 0; their classes hold no other face, so they never conflict
        glue(base_i, base_k, ctx.sides_ideal[j], fp, 0)
        uf.journal.clear()  # never rolled back: 20k ints less at the peak
    for k in dims:
        dims[k]["faces"] = 8 * face_dims.count(k)
    parent, size = uf.parent, uf.size
    bad = set()
    for x in compress(count(), map(eq, parent, count())):
        k = face_dims[x % nf]
        if k in dims:  # not an ideal point or the polytope itself
            dims[k]["orbits"] += 1
            if size[x] != 2 ** (n - k):
                bad.add(x)
    violation = None
    if bad:
        x = next(x for x in count() if uf.find(x)[0] in bad)
        copy, fidx = divmod(x, nf)
        k = face_dims[fidx]
        violation = {"kind": "cycle_length", "face_dim": k,
                     "cycle_length": size[uf.find(x)[0]],
                     "expected": 2 ** (n - k),
                     "witness_copy": copy + 1,
                     "witness_face_sides": sorted(
                         s + 1 for s in ctx.lattice.faces[fidx].sides)}
    return PropernessCertificate(violation is None, dims, violation,
                                 (parent, uf.pot))


# -- algebraic certificates ----------------------------------------------


@dataclass(frozen=True)
class CodeMatrix:
    """Mod-two abelianization data of a 21-digit code: the 6 x 27
    `matrix` and its `columns`, packed with bit r = row r: 1 << i for
    the six coordinate walls, then the digit values."""

    matrix: Gf2Matrix
    columns: tuple[int, ...]


def build_code_matrix(code: PairingCode | str) -> CodeMatrix:
    code = as_code(code)
    if code.dim != 6:
        raise CertificationError("code matrix needs a 21-digit code")
    columns = tuple(1 << i for i in range(6)) + code.values
    return CodeMatrix(Gf2Matrix(27, 6, columns).transpose(), columns)


@dataclass(frozen=True)
class TorsionCertificate:
    h_torsion_free: bool
    conditions_checked: int
    mode: str
    failures: tuple[tuple[int, ...], ...]
    representative_sets: tuple[frozenset[int], ...]
    extension: str | None = None

    def to_json(self) -> dict:
        return {
            "h_torsion_free": self.h_torsion_free,
            "conditions_checked": self.conditions_checked,
            "mode": self.mode,
            "failures": [sorted(c + 1 for c in f) for f in self.failures],
            "extension": self.extension,
        }


def torsion_free_H(cmx: CodeMatrix, mode: str = "full") -> TorsionCertificate:
    """Check GF(2) independence of the wall columns meeting at each actual
    vertex (six columns) and along each two-ended ideal edge (five
    columns); in reduced mode only on representatives of the free order-8
    symmetry orbits."""
    if mode not in ("full", "reduced"):
        raise ValueError("mode must be 'full' or 'reduced'")
    ctx = lattice_context()
    items = (ctx.torsion_conditions if mode == "full"
             else ctx.torsion_representatives)
    failures = []
    for sides in items:
        if not columns_independent(cmx.matrix, sides):
            failures.append(sides)
    return TorsionCertificate(
        h_torsion_free=not failures,
        conditions_checked=len(items),
        mode=mode,
        failures=tuple(failures),
        representative_sets=tuple(frozenset(s) for s in items))


def _relator_coefficients(cmx: CodeMatrix, y: int) -> int | None:
    """The coefficients of a 27-bit vector over the 21 relator images,
    wall j's column with bit j set for the wall itself (j = 6..26): bit r
    for relator r + 7, or None when the vector is outside their span.
    Each relator carries its own wall bit, so the coefficients can only
    be the vector's bits 6..26, and they fit when the relators' columns
    sum to its bits 0..5."""
    low = 0
    for r in bits(y >> 6):
        low ^= cmx.columns[r + 6]
    return y >> 6 if low == y & 63 else None


def pair_space_action(cmx: CodeMatrix) -> Gf2Matrix:
    """Matrix, on the 21 relator images, of the automorphism induced by
    the order-8 side permutation; raises InvarianceError if the span is
    not preserved."""
    sigma = standard_context().sigma
    cols = []
    for j in range(6, 27):
        image = sum(1 << sigma[w] for w in bits(cmx.columns[j] | 1 << j))
        coeff = _relator_coefficients(cmx, image)
        if coeff is None:
            raise InvarianceError(
                f"image of relator {j + 1} leaves the relator span")
        cols.append(coeff)
    return Gf2Matrix(21, 21, tuple(cols)).transpose()


def extension_torsion_certificate(cmx: CodeMatrix) -> dict:
    """Decide whether the order-8 extension has an order-two obstruction:
    certified when v + action^4(v) = (orbit sum of wall two) has no
    solution among the relator images, action = pair_space_action(cmx)."""
    action = pair_space_action(cmx)
    # wall two's orbit is one 8-cycle, so its bits are distinct
    target = sum(1 << pw[1] for pw in standard_context().sigma_pows)
    coeff = _relator_coefficients(cmx, target)
    solution = None
    if coeff is None:
        reason = "target outside relator span"
    else:
        sol = gf2_solve(action.power(4) + Gf2Matrix.identity(21), coeff)
        if sol.consistent:
            solution = [j + 7 for j in sol.solution_support()]
        reason = ("obstruction equation has no solution" if solution is None
                  else "obstruction equation is solvable")
    return {"status": "certified" if solution is None else "inconclusive",
            "reason": reason,
            "solution": solution,
            "target_coefficients": (None if coeff is None
                                    else [j + 7 for j in bits(coeff)])}


# -- combined certificate -------------------------------------------------


@dataclass(frozen=True)
class ManifoldCertificate:
    code: str
    proper: PropernessCertificate
    orientable: bool
    torsion_full: TorsionCertificate
    torsion_reduced: TorsionCertificate
    extension: dict
    euler_characteristic: Fraction
    index_chain: dict

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "proper": self.proper.to_json(),
            "orientable": self.orientable,
            "torsion_full": self.torsion_full.to_json(),
            "torsion_reduced": self.torsion_reduced.to_json(),
            "extension": self.extension,
            "euler_characteristic": str(self.euler_characteristic),
            "index_chain": {k: str(v) for k, v in self.index_chain.items()},
        }


def certify_manifold(
    arr: EightPPairing,
    code: PairingCode | str | None = None,
) -> ManifoldCertificate:
    """Run both certification routes on an eight-copy gluing.

    When a code is supplied the development must reproduce it exactly;
    a code that `as_code` refuses raises PairingError.
    """
    dev = develop(arr)
    if code is not None:
        if dev.code.digits != (want := as_code(code).digits):
            raise CertificationError(
                f"development yields {dev.code.digits}, record says {want}")
    proper = face_cycles_proper(arr)
    cmx = build_code_matrix(dev.code)
    full = torsion_free_H(cmx, "full")
    reduced = torsion_free_H(cmx, "reduced")
    try:
        ext = extension_torsion_certificate(cmx)
    except InvarianceError as exc:
        ext = {"status": "inconclusive", "reason": str(exc),
               "solution": None, "target_coefficients": None}
    reduced = replace(reduced, extension=ext["status"])
    c6 = constants(6)
    chi_congruence = c6.euler_char_gamma2
    chi_h = chi_congruence * 64
    chi = chi_h / 8
    chain = {
        "euler_full_group": c6.euler_char_full,
        "congruence_index": c6.index_gamma2,
        "euler_congruence": chi_congruence,
        "wall_group_index": 64,
        "euler_wall_group": chi_h,
        "deck_order": 8,
        "euler_manifold_group": chi,
    }
    return ManifoldCertificate(
        code=dev.code.digits,
        proper=proper,
        orientable=orientability_of_code(dev.code),
        torsion_full=full,
        torsion_reduced=reduced,
        extension=ext,
        euler_characteristic=chi,
        index_chain=chain,
    )
