"""An oracle for coxglue.search.search_pairings: the search with each
assignment's crossings counted after its unions, one find per face of
each entry of the side pair, and each free slot scored by a find per
vertex of its side.

It makes the same unions on the same engine, FaceCycles; a crossing is
a union of a face with itself that counts one.  The tests run both
searches and compare their results, solutions, node counts and flags.
"""

from __future__ import annotations

from coxglue import pairing as pg
from coxglue import verify as vf
from coxglue.search import SearchResult
from coxglue.verify import FaceCycles, lattice_context


def oracle_search(
    fixed: dict[tuple[int, int], tuple[int, int]] | None = None,
    node_budget: int = 10 ** 6,
    max_solutions: int | None = None,
) -> SearchResult:
    """search_pairings without a time budget, counting crossings the
    slow way."""
    sigma_pows = pg.standard_context().sigma_pows
    ctx = lattice_context()
    nf = len(ctx.lattice.faces)
    caps, walls = ctx.cycle_lengths, ctx.wall_counts
    side_vertices = [side(ctx.vertices) for side in ctx.side_vertices]
    cyc = FaceCycles(8 * nf)
    size, asg = cyc.size, cyc.asg
    entries: list[list[tuple[int, int] | None]] = [
        [None] * 27 for _ in range(8)]

    def pruned(root: int) -> bool:
        f = root % nf
        return size[root] > caps[f] or (
            asg[root] == walls[f] * size[root] and size[root] != caps[f])

    def union_entry(i: int, j: int, k: int, p: int) -> bool:
        base_i, base_k, fp = i * nf, k * nf, ctx.fperm[p]
        for f in ctx.sides_faces[j]:
            root = cyc.union(base_i + f, base_k + fp[f], p)
            if root < 0 or pruned(root):
                return False
        return True

    def cross_entry(i: int, j: int) -> bool:
        base_i = i * nf
        for f in ctx.sides_faces[j]:
            x = cyc.find(base_i + f)[0]
            if pruned(cyc.union(x, x, 0, 1)):
                return False
        return True

    def assign(i: int, j: int, k: int, p: int) -> tuple[bool, list]:
        written = []
        j2 = sigma_pows[p][j]
        pairs = [((i, j), (k, p))]
        if (k, j2) != (i, j):
            pairs.append(((k, j2), (i, (-p) % 8)))
        elif (2 * p) % 8 != 0:
            return False, written
        for (a, b), val in pairs:
            if entries[a][b] is not None:
                return False, written
            entries[a][b] = val
            written.append((a, b))
        ok = (union_entry(i, j, k, p) and cross_entry(i, j)
              and (len(pairs) == 1 or cross_entry(k, j2)))
        return ok, written

    state = {"nodes": 0, "exhausted": False}
    solutions: dict[tuple, pg.EightPPairing] = {}

    if fixed:
        for (i, j), (k, p) in sorted(fixed.items()):
            if entries[i][j] is not None:
                if entries[i][j] != (k, p):
                    return SearchResult((), 0, False, True, True)
                continue
            if not assign(i, j, k, p)[0]:
                return SearchResult((), 0, False, True, True)

    slots = [(i, j) for i in range(8) for j in range(27)]

    def next_slot() -> tuple[int, int] | None:
        best = None
        best_score = -1
        for i, j in slots:
            if entries[i][j] is not None:
                continue
            score = sum(asg[cyc.find(i * nf + f)[0]]
                        for f in side_vertices[j])
            if score > best_score:
                best, best_score = (i, j), score
        return best

    def dfs() -> bool:
        if state["nodes"] >= node_budget:
            state["exhausted"] = True
            return False
        slot = next_slot()
        if slot is None:
            arr = pg.EightPPairing(tuple(tuple(row) for row in entries))
            if vf.face_cycles_proper(arr).proper:
                solutions[arr.entries] = arr
                if max_solutions is not None and \
                        len(solutions) >= max_solutions:
                    return False
            return True
        i, j = slot
        for k in range(8):
            for p in range(8):
                if state["nodes"] >= node_budget:
                    state["exhausted"] = True
                    return False
                state["nodes"] += 1
                mark = len(cyc.journal)
                ok, written = assign(i, j, k, p)
                if ok and not dfs():
                    return False
                for a, b in written:
                    entries[a][b] = None
                cyc.rollback(mark)
        return True

    complete = dfs() and not state["exhausted"]
    return SearchResult(
        tuple(solutions[key] for key in sorted(solutions)),
        state["nodes"],
        state["exhausted"],
        complete and not solutions,
        complete,
    )
