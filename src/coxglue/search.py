"""Backtracking search for eight-copy gluing arrays, pruned by the face-cycle
engine of the properness certificate, `verify.FaceCycles`."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import verify
from .pairing import EightPPairing, PairingError, standard_context


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple[EightPPairing, ...]
    nodes_used: int
    budget_exhausted: bool
    infeasible: bool
    complete: bool

    def to_json(self) -> dict:
        return {
            "solutions": [[[list(e) for e in row] for row in s.entries]
                          for s in self.solutions],
            "nodes_used": self.nodes_used,
            "budget_exhausted": self.budget_exhausted,
            "infeasible": self.infeasible,
            "complete": self.complete,
        }


def search_pairings(
    fixed: dict[tuple[int, int], tuple[int, int]] | None = None,
    node_budget: int = 10 ** 6,
    time_budget_s: float | None = None,
    max_solutions: int | None = None,
) -> SearchResult:
    """Backtracking search over the symmetry-restricted gluing arrays.

    Assignments respect the involution law by construction.  Each glues
    its side pair in one `verify.FaceCycles.glue` call, the engine of the
    properness certificate, on its face numbering, counting each face's
    wall crossings, 2, or 1 on a side paired with itself.  The first face
    with a holonomy conflict, a class longer than its cycle 2^(6 - dim),
    or a class closed (every wall of every member crossed) short of it
    prunes it.  The lattice numbers faces highest dimension first, so
    sides and ridges, whose cycles are shortest, are glued first and fail
    fast.  Free slots are scored from one pass over the actual-vertex
    instances; every table is built once, in `verify.lattice_context()`.
    Completed arrays are confirmed by `verify.face_cycles_proper`, looked
    up at call time, though the pruning has already decided it: every
    entry went through `assign`, so a complete array is an involution;
    each (face instance, wall) pair was counted once, so every class is
    closed; and `glue` checks the count that closes a class, so it has
    2^(6 - dim) members, and prunes a holonomy conflict at once.
    Exhausting the node or time budget is reported, never an error; a
    search that completes without a solution is reported infeasible.
    Before any work, a `fixed` neither None nor a dict, a `fixed` slot
    outside the 8 x 27 array, an entry outside 0..7, a `max_solutions`
    neither None nor an int >= 1, a `node_budget` not an int >= 0 or a
    `time_budget_s` neither None nor finite and >= 0 raises PairingError;
    bools are refused.
    """
    if type(node_budget) is not int or node_budget < 0:
        raise PairingError(f"node_budget {node_budget!r} is not an int >= 0")
    seconds = time_budget_s
    if seconds is not None and (isinstance(seconds, bool) or not isinstance(
            seconds, (int, float)) or not 0 <= seconds < float("inf")):
        raise PairingError(f"time_budget_s {seconds!r} is not None or a "
                           "finite number of seconds >= 0")
    if max_solutions is not None and (type(max_solutions) is not int
                                      or max_solutions < 1):
        raise PairingError(f"max_solutions {max_solutions!r} is not None or "
                           "an int >= 1")
    if fixed is not None and not isinstance(fixed, dict):
        raise PairingError(f"fixed {fixed!r} is not None or a dict")
    for key, val in (fixed or {}).items():
        for x, what, top in ((key, "slot", 27), (val, "entry", 8)):
            if not (type(x) is tuple and len(x) == 2 and all(
                    type(c) is int and 0 <= c < t
                    for c, t in zip(x, (8, top)))):
                raise PairingError(f"fixed {what} {x!r} is not a pair of "
                                   f"ints below (8, {top})")

    sigma_pows = standard_context().sigma_pows
    ctx = verify.lattice_context()
    nf = len(ctx.lattice.faces)
    caps, walls, fperm = ctx.cycle_lengths, ctx.wall_counts, ctx.fperm
    sides_faces, side_vertices = ctx.sides_faces, ctx.side_vertices
    instances = [[i * nf + v for v in ctx.vertices] for i in range(8)]
    cyc = verify.FaceCycles(8 * nf)
    glue, parent, asg, journal = cyc.glue, cyc.parent, cyc.asg, cyc.journal
    entries: list[list[tuple[int, int] | None]] = [
        [None] * 27 for _ in range(8)]

    def assign(i: int, j: int, k: int, p: int) -> tuple[int, int] | None:
        """Write entry (i, j) and its involution partner and glue their
        side pair; returns the partner slot, or None, writing nothing,
        when a slot is taken, a side paired with itself has a power other
        than 0 or 4, or the glue fails."""
        j2 = sigma_pows[p][j]
        self_paired = k == i and j2 == j
        if entries[i][j] is not None or entries[k][j2] is not None or (
                self_paired and p % 4):
            return None
        entries[i][j], entries[k][j2] = (k, p), (i, -p % 8)
        # the partner's unions would be the inverses of these and change
        # nothing, so each face also counts the partner face's crossing
        if glue(i * nf, k * nf, sides_faces[j], fperm[p], p,
                1 if self_paired else 2, caps, walls) < 0:
            return k, j2
        entries[i][j] = entries[k][j2] = None
        return None

    deadline = None if time_budget_s is None else time.monotonic() + time_budget_s
    nodes, exhausted = 0, False
    solutions: dict[tuple, EightPPairing] = {}

    if fixed:
        for (i, j), val in sorted(fixed.items()):
            # an entry its partner already wrote is skipped
            if entries[i][j] != val and assign(i, j, *val) is None:
                return SearchResult((), 0, False, True, True)

    def next_slot() -> tuple[int, int] | None:
        """Most-constrained free slot: the one whose wall vertices sit in
        the largest partially-built orbits, read off the crossings on the
        class of each actual-vertex instance of its copy, then summed by
        each side's getter."""
        best, best_score = None, -1
        for i, row in enumerate(entries):
            if None not in row:
                continue
            counted = []
            for x in instances[i]:
                while parent[x] != x:  # find(x), inline
                    x = parent[x]
                counted.append(asg[x])
            for j in range(27):
                if row[j] is None:
                    score = sum(side_vertices[j](counted))
                    if score > best_score:
                        best, best_score = (i, j), score
        return best

    def dfs() -> bool:
        """Returns False when the search should stop globally."""
        nonlocal nodes, exhausted
        if nodes >= node_budget or (
                deadline is not None and time.monotonic() > deadline):
            exhausted = True
            return False
        slot = next_slot()
        if slot is None:
            arr = EightPPairing(tuple(tuple(row) for row in entries))
            if verify.face_cycles_proper(arr).proper:
                solutions[arr.entries] = arr
                if max_solutions is not None and len(solutions) >= max_solutions:
                    return False
            return True
        i, j = slot
        for k in range(8):
            for p in range(8):
                if nodes >= node_budget or (
                        deadline is not None and time.monotonic() > deadline):
                    exhausted = True
                    return False
                nodes += 1
                mark = len(journal)
                partner = assign(i, j, k, p)
                if partner is not None:
                    if not dfs():
                        return False
                    entries[i][j] = entries[partner[0]][partner[1]] = None
                if len(journal) > mark:
                    cyc.rollback(mark)
        return True

    complete = dfs() and not exhausted
    return SearchResult(
        tuple(solutions[key] for key in sorted(solutions)),
        nodes,
        exhausted,
        complete and not solutions,
        complete,
    )
