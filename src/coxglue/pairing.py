"""Side-pairing codes, eight-copy gluing arrays and their development
through the reflected union of the dimension-6 polytope.

A code digit is a sign pattern on the first coordinates, packed base 64,
one per base side after the coordinate walls; decoding a code builds the
reflected union's full per-side pairing.  The eight-copy gluings are
8 x 27 arrays whose entries name a partner polytope and a power of the
order-8 symmetry; developing one recovers the code digit by base side.
The search for arrays lives in `coxglue.search`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import tables
from .coxeter import ORDER8_SYMMETRY, sigma_permutation
from .errors import CoxglueError
from .lorentz import Mat, mat_mul, reflection_in
from .polytope import QPolytope, RightAngledPolytope, build_polytope, build_q

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz@$"


class PairingError(CoxglueError, ValueError):
    pass


class DevelopmentConflict(CoxglueError, RuntimeError):
    pass


@dataclass(frozen=True)
class KElement:
    """Diagonal sign flip diag(signs..., 1) on the space coordinates."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.signs, tuple)
                and all(type(s) is int and s in (1, -1) for s in self.signs)):
            raise PairingError(f"signs={self.signs!r} is not a tuple of +-1")

    @property
    def code_value(self) -> int:
        return sum(((1 - s) // 2) << i for i, s in enumerate(self.signs))

    def matrix(self) -> Mat:
        n = len(self.signs)
        diag = self.signs + (1,)
        return tuple(tuple(diag[i] if i == j else 0 for j in range(n + 1))
                     for i in range(n + 1))

    @classmethod
    def from_value(cls, value: int, n: int) -> "KElement":
        if type(n) is not int or n < 0:
            raise PairingError(f"n={n!r} is not an int >= 0")
        if type(value) is not int or not 0 <= value < (1 << n):
            raise PairingError(f"value {value!r} out of range for {n} signs")
        return cls(tuple(1 - 2 * ((value >> i) & 1) for i in range(n)))


def decode_digit(c: str, dim: int = 6) -> KElement:
    if not (isinstance(c, str) and len(c) == 1 and c in ALPHABET):
        raise PairingError(f"character {c!r} outside the base-64 alphabet")
    if type(dim) is not int or not 1 <= dim <= 6:
        raise PairingError(f"dim={dim!r} is not an int in 1..6")
    value = ALPHABET.index(c)
    if value >= (1 << dim):
        raise PairingError(f"digit {c!r} exceeds the {dim}-sign range")
    return KElement.from_value(value, dim)


def encode_digit(k: KElement) -> str:
    if not isinstance(k, KElement) or len(k.signs) > 6:
        raise PairingError(f"k={k!r} is not a KElement of at most 6 signs")
    return ALPHABET[k.code_value]


@dataclass(frozen=True)
class PairingCode:
    """Base-64 code: one digit per side group of the reflected union."""

    dim: int
    digits: str

    def __post_init__(self) -> None:
        if not isinstance(self.digits, str):
            raise PairingError(f"code digits are a str, not a "
                               f"{type(self.digits).__name__}")
        want = {6: 21, 5: 11}.get(self.dim)
        if want is None:
            raise PairingError("codes exist in dimensions 5 and 6")
        if len(self.digits) != want:
            raise PairingError(f"expected {want} digits, got {len(self.digits)}")
        for c in self.digits:
            decode_digit(c, self.dim)

    @property
    def values(self) -> tuple[int, ...]:
        """The digit values: bit i of a value flips coordinate i."""
        return tuple(map(ALPHABET.index, self.digits))

    def __str__(self) -> str:
        return self.digits


def as_code(code: PairingCode | str, dim: int | None = 6) -> PairingCode:
    """A PairingCode as it is, a str as a code of dimension `dim` (None:
    the dimension its length gives); anything else raises PairingError."""
    if isinstance(code, PairingCode):
        return code
    if dim is None and isinstance(code, str):
        dim = {21: 6, 11: 5}.get(len(code))
        if dim is None:
            raise PairingError(f"expected 21 or 11 digits, got {len(code)}")
    return PairingCode(dim, code)


def orientability_of_code(code: PairingCode | str) -> bool:
    """Orientable iff every digit is an orientation-reversing sign flip:
    each value flips an odd number of coordinates, so has odd weight."""
    return all(v.bit_count() % 2 for v in as_code(code).values)


@dataclass(frozen=True)
class QSidePairing:
    """Fully decoded side pairing of the reflected union: side s carries
    the digit value of its group's sign flip K, its partner K(s) and the
    transform T_s = r_s K, r_s the reflection in side s.

    Every decoded pairing is consistent by construction.  K permutes the
    members of each group, so K(s) lies in s's group and K(K(s)) = s;
    T_s T_K(s) = r_s (K r_K(s) K) = r_s r_s = I; and on a wall with
    u_s[0] = 0, T_s e1 = r_s (+-e1) = +-e1, so every transform keeps the
    coordinate-1 cross-section.  tests/test_pairing.py checks all three
    on every sign flip and side.
    """

    q: QPolytope
    code: PairingCode
    partner: tuple[int, ...]
    values: tuple[int, ...]
    transforms: tuple[Mat, ...]


def decode_q_code(code: PairingCode | str) -> QSidePairing:
    """Assign each side its group's sign flip K, its partner K(s), read
    off `QPolytope.flips`, and its pairing transform r_s K."""
    code = as_code(code, None)
    q = build_q(code.dim)
    values = code.values
    ks = [KElement.from_value(v, code.dim).matrix() for v in values]
    of_side = tuple(values[s.group] for s in q.sides)
    partner = tuple(q.flips[v][i] for i, v in enumerate(of_side))
    transforms = tuple(mat_mul(reflection_in(s.normal), ks[s.group])
                       for s in q.sides)
    return QSidePairing(q, code, partner, of_side, transforms)


# -- eight-copy gluing arrays ------------------------------------------


@dataclass(frozen=True)
class StandardContext:
    """Gluing-independent exact data of the dimension-6 gluings."""

    polytope: RightAngledPolytope
    sigma: tuple[int, ...]
    sigma_pows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def standard_context() -> StandardContext:
    """The `polytope`, its side permutation `sigma` under the order-8
    symmetry, and the symmetry's powers 0..7 as side permutations,
    `sigma_pows`, from `sigma_powers`."""
    p6 = build_polytope(6)
    sigma = sigma_permutation(ORDER8_SYMMETRY, p6.normals, p6.vertices)
    return StandardContext(p6, sigma, sigma_powers(sigma))


def sigma_powers(sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Powers 0..7 of sigma's permutation; raises unless sigma^8 = 1."""
    perms = [tuple(range(len(sigma)))]
    for _ in range(8):
        perms.append(tuple([sigma[x] for x in perms[-1]]))
    if perms.pop() != perms[0]:
        raise AssertionError("sigma^8 is not the identity")
    return tuple(perms)


@dataclass(frozen=True)
class EightPPairing:
    """8 x 27 array of (partner polytope, symmetry power), 0-based."""

    entries: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        """Store the entries as nested tuples of ints in 0..7, so the array
        hashes for the face-pass cache; it need not be an involution."""
        rows = self.entries
        if not (isinstance(rows, Sequence) and len(rows) == 8 and all(
                isinstance(r, Sequence) and len(r) == 27 for r in rows)):
            raise PairingError("expected an 8 x 27 array")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not (isinstance(e, Sequence) and len(e) == 2 and all(
                        type(c) is int and 0 <= c < 8 for c in e)):
                    raise PairingError(
                        f"entry {e!r} at copy {i + 1}, side {j + 1} is not "
                        f"a pair of ints in 0..7")
        object.__setattr__(self, "entries",
                           tuple(tuple(map(tuple, r)) for r in rows))

    def entry(self, i: int, j: int) -> tuple[int, int]:
        return self.entries[i][j]

    def validate_involution(self) -> None:
        sigma_pows = standard_context().sigma_pows
        for i in range(8):
            for j in range(27):
                k, p = self.entries[i][j]
                j2 = sigma_pows[p][j]
                k2, p2 = self.entries[k][j2]
                if k2 != i or (p + p2) % 8 != 0:
                    raise PairingError(
                        f"involution fails at copy {i + 1}, side {j + 1}")

    def relabeled(self, perm: Sequence[int]) -> "EightPPairing":
        """Renumber the eight copies by perm (old index -> new index)."""
        try:
            perm = tuple(perm)
        except TypeError:
            raise PairingError(f"copy relabeling {perm!r} is not a "
                               f"permutation of 0..7") from None
        if not (len(perm) == 8 and all(type(x) is int for x in perm)
                and set(perm) == set(range(8))):
            raise PairingError(
                f"copy relabeling {list(perm)} is not a permutation of 0..7")
        rows: list[tuple[tuple[int, int], ...]] = [()] * 8
        for i in range(8):
            rows[perm[i]] = tuple((perm[k], p) for k, p in self.entries[i])
        return EightPPairing(tuple(rows))


def parse_8p_pairing(text: str) -> EightPPairing:
    """Parse 8 rows of 27 tokens of the form k^p; visual grouping of the
    tokens in triples is accepted and ignored."""
    if not isinstance(text, str):
        raise PairingError(f"text is a str of 8 rows, not a "
                           f"{type(text).__name__}")
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        chunks = line.split()
        toks: list[tuple[int, int]] = []
        for chunk in chunks:
            parts = re.findall(r"(\d)\^(\d)", chunk)
            if not parts or "".join(f"{a}^{b}" for a, b in parts) != chunk:
                raise PairingError(f"malformed token chunk {chunk!r}")
            for a, b in parts:
                k, p = int(a), int(b)
                if not 1 <= k <= 8:
                    raise PairingError(f"polytope index {k} out of 1..8")
                if not 0 <= p <= 7:
                    raise PairingError(f"symmetry power {p} out of 0..7")
                toks.append((k - 1, p))
        if len(toks) != 27:
            raise PairingError(f"row has {len(toks)} entries, expected 27")
        rows.append(tuple(toks))
    if len(rows) != 8:
        raise PairingError(f"expected 8 rows, got {len(rows)}")
    arr = EightPPairing(tuple(rows))
    arr.validate_involution()
    return arr


def published_pairing(mid: int) -> EightPPairing:
    return parse_8p_pairing(tables.pairing_array_text(mid))


# -- development --------------------------------------------------------


@dataclass(frozen=True)
class Development:
    """Placements of the 64 copies filling the reflected union, as
    (k, power, copy) triples in the order the development reached them:
    the abstract copy sits at the chart diag(k, 1) sigma^power, k a sign
    flip given by its digit value."""

    placements: tuple[tuple[int, int, int], ...]
    code: PairingCode


def _walk(arr: EightPPairing) -> tuple[dict[int, tuple[int, int]], list]:
    """Place copy 1 at the identity and walk the gluing through the
    reflected union.

    Every chart inside the union is k sigma^a, and crossing side j of
    the copy there, with entry (c, p), reaches k r_s sigma^(a - p) for
    s = sigma^a(j).  On a coordinate wall, s < 6, that is the inside
    chart (k xor 2^s, a - p); any other side lies on a wall of the union
    in group s - 6.  Returns the power and copy placed at each k, and the
    boundary crossings as (copy, side, group, k, partner, power).
    """
    arr.validate_involution()
    sigma_pows = standard_context().sigma_pows
    placements = {0: (0, 0)}
    frontier = [0]
    boundary = []
    while frontier:
        nxt = []
        for k in frontier:
            a, i = placements[k]
            for j in range(27):
                c, p = arr.entry(i, j)
                s, b = sigma_pows[a][j], (a - p) % 8
                if s >= 6:
                    boundary.append((i, j, s - 6, k, c, b))
                    continue
                nk = k ^ 1 << s
                prev = placements.get(nk)
                if prev is None:
                    placements[nk] = (b, c)
                    nxt.append(nk)
                elif prev != (b, c):
                    raise DevelopmentConflict(
                        f"copy {i + 1}, side {j + 1}: sign flip {nk} "
                        f"reached twice, as (copy {prev[1] + 1}, power "
                        f"{prev[0]}) and (copy {c + 1}, power {b})")
        frontier = nxt
    return placements, boundary


def develop(arr: EightPPairing) -> Development:
    """Develop the gluing through the reflected union and read the code
    off its walls.

    Crossing side s >= 6 into the copy c whose chart has power a - p
    reads digit s - 6 as k xor k'', k'' sigma^(a - p) being that chart;
    the first chart crosses every side, so every digit is read.  Raises
    DevelopmentConflict, naming the copy (and the side, but for
    congruent charts), when two routes place a copy differently or a
    digit reads two values, and PairingError for anything but an
    EightPPairing.
    """
    if not isinstance(arr, EightPPairing):
        raise PairingError(f"development needs an EightPPairing, not a "
                           f"{type(arr).__name__}")
    placements, boundary = _walk(arr)
    # every chart crosses the six coordinate walls, so the walk places
    # all 64 sign flips; sign flips are the identity mod two and the
    # powers of sigma are not congruent, so charts of one copy are
    # congruent when they share a power; once none do, each (copy,
    # power) has exactly one chart
    flip_of: dict[tuple[int, int], int] = {}
    for k, (a, i) in placements.items():
        if (i, a) in flip_of:
            raise DevelopmentConflict(
                f"two inside charts of abstract copy {i + 1} are "
                f"congruent mod two")
        flip_of[i, a] = k

    digits: list[int | None] = [None] * 21
    for i, j, g, k, c, b in boundary:
        value = k ^ flip_of[c, b]
        if digits[g] is None:
            digits[g] = value
        elif digits[g] != value:
            raise DevelopmentConflict(
                f"copy {i + 1}, side {j + 1}: digit {g + 1} read two "
                f"values")
    code = PairingCode(6, "".join(map(ALPHABET.__getitem__, digits)))
    placed = tuple((k, a, i) for k, (a, i) in placements.items())
    return Development(placed, code)


# -- restriction to the cross-section ----------------------------------


@lru_cache(maxsize=1)
def _q5_group_map() -> tuple[int, ...]:
    """For each side group of the dimension-5 union, the matching group of
    the dimension-6 union under the coordinate-1 cross-section: group g
    spans base side n + g in dimension n (see `polytope.build_polytope`)."""
    p6 = build_polytope(6)
    return tuple(p6.normals.index((0,) + u) - 6
                 for u in build_polytope(5).normals[5:])


def restrict_code(code: PairingCode | str) -> PairingCode:
    """Restrict a dimension-6 code to the coordinate-1 cross-section.

    Each group of the dimension-5 union takes the digit of its group in
    the dimension-6 union with the coordinate-1 sign dropped.  Every
    transform of a decoded pairing on a wall with u[0] = 0 keeps the
    cross-section (see QSidePairing), so nothing is decoded to check it.
    """
    code = as_code(code)
    if code.dim != 6:
        raise PairingError("only dimension-6 codes restrict")
    values = code.values
    return PairingCode(5, "".join(
        ALPHABET[values[g6] >> 1] for g6 in _q5_group_map()))


# -- mutation (for negative testing) -------------------------------------


def mutated_pairing(arr: EightPPairing, rng) -> EightPPairing:
    """Rewrite one random entry to a random new value, then repair the
    involution law by re-pairing the displaced slots; the result satisfies
    the involution law but differs from the input."""
    if not isinstance(arr, EightPPairing):
        raise PairingError(f"arr={arr!r} is not an EightPPairing")
    if not callable(getattr(rng, "randrange", None)):
        raise PairingError(f"rng={rng!r} has no randrange")
    sigma_pows = standard_context().sigma_pows
    while True:
        entries = [list(row) for row in arr.entries]
        i, j = rng.randrange(8), rng.randrange(27)
        k, p = entries[i][j]
        k2, p2 = rng.randrange(8), rng.randrange(8)
        if (k2, p2) == (k, p):
            continue
        j2 = sigma_pows[p2][j]
        dangle_a = (k, sigma_pows[p][j])
        k0, p0 = entries[k2][j2]
        dangle_b = (k0, sigma_pows[p0][j2])
        entries[i][j] = (k2, p2)
        entries[k2][j2] = (i, (-p2) % 8)
        dangles = []
        for s in (dangle_a, dangle_b):
            if s not in ((i, j), (k2, j2)) and s not in dangles:
                dangles.append(s)
        if len(dangles) == 2:
            (ia, ja), (ib, jb) = dangles
            q = next((t for t in range(8) if sigma_pows[t][ja] == jb), None)
            if q is None:
                continue
            entries[ia][ja] = (ib, q)
            entries[ib][jb] = (ia, (-q) % 8)
        elif len(dangles) == 1:
            ia, ja = dangles[0]
            q = next((t for t in (0, 4) if sigma_pows[t][ja] == ja), None)
            if q is None:
                continue
            entries[ia][ja] = (ia, q)
        cand = EightPPairing(tuple(tuple(r) for r in entries))
        try:
            cand.validate_involution()
        except PairingError:
            continue
        if cand.entries != arr.entries:
            return cand


def __getattr__(name: str):
    """`search_pairings`, from `coxglue.search`, which imports verify."""
    if name == "search_pairings":
        from .search import search_pairings
        return search_pairings
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list({*globals(), "search_pairings"})
