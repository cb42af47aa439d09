"""An oracle for coxglue.pairing.develop: development that reads a digit
per wall of the 252-sided reflected union, then checks each group's walls
agree.

Each boundary crossing of side s at the chart k sigma^a is looked up as
the union's wall k . u_s in `QPolytope.flips`, and the walk tells a
coordinate wall by its one nonzero coordinate.  coxglue instead reads
digit s - 6 off the base side s itself; the tests develop both ways and
compare codes and placements, or that both raise DevelopmentConflict.
"""

from __future__ import annotations

from coxglue import pairing as pg
from coxglue.polytope import build_q

from q_sides import group_members, normal_index


def wall_develop(arr: pg.EightPPairing) -> pg.Development:
    arr.validate_involution()
    sigma_pows = pg.standard_context().sigma_pows
    q6 = build_q(6)
    index = normal_index(q6)
    bits, walls = [], []
    for u in pg.standard_context().polytope.normals:
        support = [c for c in range(6) if u[c]]
        coordinate = len(support) == 1
        bits.append(1 << support[0] if coordinate else 0)
        walls.append(None if coordinate else index[u])

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
                if not bits[s]:
                    boundary.append((q6.flips[k][walls[s]], k, c, b))
                    continue
                nk = k ^ bits[s]
                prev = placements.get(nk)
                if prev is None:
                    placements[nk] = (b, c)
                    nxt.append(nk)
                elif prev != (b, c):
                    raise pg.DevelopmentConflict("copy reached twice")
        frontier = nxt

    per_abstract = [0] * 8
    for _, i in placements.values():
        per_abstract[i] += 1
    if per_abstract != [8] * 8:
        raise pg.DevelopmentConflict("copies not covered eight times each")
    flip_of: dict[tuple[int, int], int] = {}
    for k, (a, i) in placements.items():
        if (i, a) in flip_of:
            raise pg.DevelopmentConflict("congruent charts")
        flip_of[i, a] = k

    wall_digits: list[int | None] = [None] * len(q6.sides)
    for m, k, c, b in boundary:
        value = k ^ flip_of[c, b]
        if wall_digits[m] not in (None, value):
            raise pg.DevelopmentConflict("wall received two digits")
        wall_digits[m] = value
    if None in wall_digits:
        raise pg.DevelopmentConflict("wall never crossed")
    digits = []
    for grp in range(q6.n_groups):
        vals = {wall_digits[s.index] for s in group_members(q6, grp)}
        if len(vals) != 1:
            raise pg.DevelopmentConflict("group walls received distinct "
                                         "digits")
        digits.append(pg.ALPHABET[vals.pop()])
    placed = tuple((k, a, i) for k, (a, i) in placements.items())
    return pg.Development(placed, pg.PairingCode(6, "".join(digits)))
