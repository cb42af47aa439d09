from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxglue import homology as hm
from coxglue import pairing as pg
from coxglue import tables
from coxglue import verify as vf
from coxglue.gf2 import Gf2Matrix
from coxglue.lorentz import RowSpan, det
from coxglue.smith import eliminate_units, invariant_factors, smith_normal_form
from coxglue.verify import TransportUnionFind


def test_truncated_cell_counts():
    tc = hm.truncated_cells()
    by_dim: dict[int, int] = {}
    for d in tc["cell_dim"]:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 936, 1: 2808, 2: 3240, 3: 1800, 4: 486, 5: 54, 6: 1}
    assert len(tc["points"]) == 72 + 432 + 2 * 216


def test_truncated_cells_are_flat_of_right_dimension():
    tc = hm.truncated_cells()
    points = tc["points"]
    rng = random.Random(6)
    idxs = rng.sample(range(len(tc["cells"])), 400)
    for idx in idxs:
        span = RowSpan()
        for pid in tc["cell_points"][idx]:
            span.add(points[pid])
        assert span.rank == tc["cell_dim"][idx] + 1


def test_cut_points_avoid_vertices():
    tc = hm.truncated_cells()
    seen = set(tc["points"])
    assert len(seen) == len(tc["points"])


def test_facet_counts_of_cut_cubes():
    tc = hm.truncated_cells()
    for idx, key in enumerate(tc["cells"]):
        if key[0] == "l":
            d = tc["cell_dim"][idx]
            assert len(tc["cell_facets"][idx]) == (2 * d if d else 0)
            assert len(tc["cell_points"][idx]) == 2 ** d


def test_quotient_complex_manifold1():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    assert cx.counts() == {0: 225, 1: 1242, 2: 2700, 3: 2880,
                           4: 1512, 5: 324, 6: 8}
    assert cx.euler_characteristic() == -1
    assert len(cx.boundary_cell_indices()) == 6912
    # top cells: one per abstract copy; interior wall orbits pair up
    interior5 = [c for c in cx.cells if c.dim == 5 and not c.boundary_flag]
    assert len(interior5) == 108
    cusp5 = [c for c in cx.cells if c.dim == 5 and c.boundary_flag]
    assert len(cusp5) == 216
    assert all(c.orbit_size == 2 for c in interior5)
    assert all(c.orbit_size == 1 for c in cusp5)
    assert len(cx.by_dim[6]) == 8


def test_quotient_requires_proper_pairing():
    rng = random.Random(31)
    mut = pg.mutated_pairing(pg.published_pairing(1), rng)
    with pytest.raises(hm.ComplexError):
        hm.build_quotient_complex(mut)


@pytest.mark.parametrize("mid, perm", [(1, None),
                                       (7, [7, 6, 5, 4, 3, 2, 1, 0])])
def test_boundary_signs_match_determinants(mid, perm):
    """Every boundary entry recomputed by exact determinants: the frame
    of the facet's class representative, moved by its transport sigma^t
    and led by a point of the cell off the facet, in the cell's frame.
    The classes come from a union-find over the cells of the eight
    copies, which is also the oracle for the classes that the complex
    lifts from the certificate's face classes."""
    arr = pg.published_pairing(mid)
    if perm:
        arr = arr.relabeled(perm)
    cert = vf.face_cycles_proper(arr)
    cx = hm.build_quotient_complex(arr, cert)
    tc = hm.truncated_cells()
    n = len(tc["cells"])
    faces = vf.lattice_context()[0].faces
    nf = len(faces)
    sides_cells: list[list[int]] = [[] for _ in range(27)]
    for c in range(n):
        for s in faces[tc["cell_face"][c]].sides:
            sides_cells[s].append(c)
    uf = TransportUnionFind(8 * n, lambda a, b: (a + b) % 8,
                            lambda a: -a % 8, 0)
    for i in range(8):
        for j in range(27):
            k, p = arr.entry(i, j)
            for c in sides_cells[j]:
                assert uf.union(i * n + c, k * n + tc["cell_perm"][p][c], p)
    roots = [r for r in range(8 * n) if uf.find(r)[0] == r]
    assert [(q.copy * n + q.cell, q.orbit_size) for q in cx.cells] == \
        [(r, uf.size[r]) for r in roots]
    for x in range(8 * n):
        copy, c = divmod(x, n)
        f = copy * nf + tc["cell_face"][c]
        r, t = cert.roots[f], cert.transports[f]
        lifted = (r // nf * n + tc["cell_perm"][-t][c], t)
        assert lifted == uf.find(x)
    index = {q.copy * n + q.cell: q.index for q in cx.cells}
    points = tc["points"]
    want: dict[int, dict[tuple[int, int], int]] = {d: {} for d in cx.boundaries}
    moved = 0
    for q in cx.cells:
        x = q.cell
        for b in tc["cell_facets"][x]:
            r, t = uf.find(q.copy * n + b)
            moved += t != 0
            o = min(set(tc["cell_points"][x]) - set(tc["cell_points"][b]))
            rows = [points[o]] + [points[tc["pt_perm"][t][v]]
                                  for v in tc["frames"][r % n]]
            dd = det(tuple(tuple(row[c] for c in tc["pivot_cols"][x])
                           for row in rows))
            assert dd != 0
            key = (index[r], q.index)
            want[q.dim][key] = (want[q.dim].get(key, 0)
                                + (1 if dd > 0 else -1) * tc["frame_sign"][x])
    assert moved
    assert cx.boundaries == {d: {key: v for key, v in m.items() if v}
                             for d, m in want.items()}


def test_dd_check_catches_a_flipped_sign():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    key = next(iter(cx.boundaries[3]))
    cx.boundaries[3][key] *= -1
    with pytest.raises(hm.ComplexError, match="at dim 3$"):
        cx.check_dd_zero()


def test_certificate_without_eight_copy_classes_is_refused():
    arr = pg.published_pairing(1)
    cert = vf.face_cycles_proper(arr)
    # a one-copy certificate, as the Q route gives, has too few classes
    for cut in (cert.roots[:100], None):
        with pytest.raises(hm.ComplexError, match="eight-copy"):
            hm.build_quotient_complex(
                arr, dataclasses.replace(cert, roots=cut, transports=cut))


def test_sign_tables_follow_the_symmetry():
    tc = hm.truncated_cells()
    orient, incidence = tc["orient"], tc["incidence"]
    facets, cperm = tc["cell_facets"], tc["cell_perm"]
    n = len(tc["cells"])
    # sigma^8 is the identity, so it carries every frame to itself
    assert all(orient[1][cperm[7][r]] * orient[7][r] == 1 for r in range(n))
    # incidence[sX][sb] = orient[1][X] incidence[X][b] orient[1][b]
    for x in range(n):
        moved = dict(zip(facets[cperm[1][x]], incidence[cperm[1][x]]))
        for b, sign in zip(facets[x], incidence[x]):
            assert moved[cperm[1][b]] == orient[1][x] * sign * orient[1][b]
    # one copy of the truncated polytope is a cell complex of a ball
    one_copy = _chain_complex(
        tc["cell_dim"], {(b, x): sign for x in range(n)
                         for b, sign in zip(facets[x], incidence[x])})
    assert [str(g) for g in hm.homology_groups(one_copy)] == \
        ["Z"] + ["0"] * 6


def test_homology_manifold1_matches_record():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    groups = hm.homology_groups(cx)
    rec = tables.manifold_record(1)
    assert [groups[d].encode() for d in range(1, 6)] == list(rec.homology)
    assert groups[0].rank == 1 and not groups[0].torsion
    assert groups[6].rank == 0 and not groups[6].torsion
    assert str(groups[1]) == "Z/2 + Z/2 + Z/2 + Z/2 + Z/8"


def test_cusp_sections_manifold1():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    secs = hm.cusp_sections(cx)
    assert len(secs) == 5
    rec = tables.manifold_record(1)
    got = sorted(tuple(s[d].encode(powers=(2, 4)) for d in range(1, 6))
                 for s in secs)
    assert got == sorted(tuple(r) for r in rec.cusp_homology)
    for sec in secs:
        chi = sum((-1) ** d * sec[d].rank for d in range(6))
        assert chi == 0
        assert sec[0].rank == 1


def test_orientable_manifold_has_orientable_cusps():
    cx = hm.build_quotient_complex(pg.published_pairing(2))
    for sec in hm.cusp_sections(cx):
        assert sec[5].rank == 1


def _homology_of_parts(cx, part, parts):
    """Homology of the full subcomplexes on the cells c with part[c] = 0,
    1, ..., parts - 1 (-1: none), each reduced on its own by a fresh
    `eliminate_units` over all its cells."""
    top = max(cx.by_dim)
    bds = [{} for _ in range(parts)]
    for ix in cx.by_dim.values():
        for c in ix:
            if part[c] >= 0:
                bds[part[c]][c] = {}
    for mat in cx.boundaries.values():
        for (r, c), v in mat.items():
            k = part[c]
            if k >= 0 and part[r] == k:
                bds[k][c][r] = v
    out = []
    for bd in bds:
        eliminate_units(bd)
        cells_at = {d: [] for d in range(top + 1)}
        for c in sorted(bd):
            cells_at[cx.cells[c].dim].append(c)
        factors = {}
        for d in range(1, top + 1):
            rindex = {r: i for i, r in enumerate(cells_at[d - 1])}
            sparse = {(rindex[r], j): v for j, c in enumerate(cells_at[d])
                      for r, v in bd[c].items()}
            factors[d] = invariant_factors(
                sparse, (len(cells_at[d - 1]), len(cells_at[d])))
        groups = []
        for d in range(top + 1):
            above = factors.get(d + 1, ())
            betti = len(cells_at[d]) - len(factors.get(d, ())) - len(above)
            assert betti >= 0
            groups.append(hm.HomologyGroups(
                betti, tuple(f for f in above if f > 1)))
        out.append(groups)
    return out


def _per_part_homology(cx):
    """Homology of the whole complex and of each boundary component, each
    reduced apart from the others: the oracle for the one reduction that
    `homology_groups` and `cusp_sections` share."""
    comps = hm.boundary_components(cx)
    part = [-1] * len(cx.cells)
    for n, comp in enumerate(comps):
        for c in comp:
            part[c] = n
    return (_homology_of_parts(cx, [0] * len(cx.cells), 1)[0],
            _homology_of_parts(cx, part, len(comps)))


@pytest.mark.parametrize("mid", range(1, 10))
def test_one_reduction_matches_the_per_part_oracle(mid):
    """Cusp sections asked first, then homology, then both again (the
    relabeling test below asks homology first): the same groups as
    reducing the whole complex and each cusp apart."""
    cx = hm.build_quotient_complex(pg.published_pairing(mid))
    groups, secs = _per_part_homology(cx)
    assert hm.cusp_sections(cx) == secs
    assert hm.homology_groups(cx) == groups
    hm.homology_groups(cx).clear()  # the caller's copy, not the kept one
    hm.cusp_sections(cx)[0].clear()
    assert hm.cusp_sections(cx) == secs
    assert hm.homology_groups(cx) == groups


@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(mid=st.integers(1, 9), perm=st.permutations(range(8)))
@example(mid=1, perm=[7, 6, 5, 4, 3, 2, 1, 0])
@example(mid=1, perm=[2, 0, 1, 4, 3, 6, 7, 5])
def test_homology_invariant_under_relabeling(mid, perm):
    cx = hm.build_quotient_complex(pg.published_pairing(mid).relabeled(perm))
    groups = hm.homology_groups(cx)
    secs = hm.cusp_sections(cx)
    assert (groups, secs) == _per_part_homology(cx)
    rec = tables.manifold_record(mid)
    assert [groups[d].encode() for d in range(1, 6)] == list(rec.homology)
    assert (str(groups[0]), str(groups[6])) == ("Z", "0")
    assert len(secs) == rec.cusps
    assert sorted(tuple(s[d].encode(powers=(2, 4)) for d in range(1, 6))
                  for s in secs) == sorted(tuple(r) for r in rec.cusp_homology)
    assert all((str(s[0]), str(s[6])) == ("Z", "0") for s in secs)


def _torsion_at(h: hm.HomologyGroups, p: int) -> int:
    return sum(1 for t in h.torsion if t % p == 0)


@pytest.mark.parametrize("mid", [1, 7])
def test_homology_mod2_universal_coefficients(mid):
    """dim H_d(M; F_2) = b_d + t_2(H_d) + t_2(H_{d-1}), with the left side
    from GF(2) ranks of the full boundary matrices."""
    cx = hm.build_quotient_complex(pg.published_pairing(mid))
    groups = hm.homology_groups(cx)
    pos = {c: i for ix in cx.by_dim.values() for i, c in enumerate(ix)}
    rank2 = {}
    for d, mat in cx.boundaries.items():
        bits = [0] * len(cx.by_dim[d - 1])
        for (r, c), v in mat.items():
            if v % 2:
                bits[pos[r]] |= 1 << pos[c]
        rank2[d] = Gf2Matrix(len(bits), len(cx.by_dim[d]), tuple(bits)).rank()
    for d, g in enumerate(groups):
        dim_f2 = len(cx.by_dim[d]) - rank2.get(d, 0) - rank2.get(d + 1, 0)
        below = _torsion_at(groups[d - 1], 2) if d else 0
        assert dim_f2 == g.rank + _torsion_at(g, 2) + below


def _rank_mod3(vectors) -> int:
    """Rank over F_3 of sparse vectors {index: value}, each reduced by
    the pivots so far, which are keyed by their largest index."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = {i: x % 3 for i, x in vec.items() if x % 3}
        while v:
            low = max(v)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = v
                break
            f = v[low] * piv[low] % 3  # piv[low] is its own inverse mod 3
            for i, x in piv.items():
                y = (v.get(i, 0) - f * x) % 3
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return len(pivots)


def test_homology_mod3_universal_coefficients():
    """dim H_d(M; F_3) = b_d + t_3(H_d) + t_3(H_{d-1}).  Unlike GF(2)
    ranks, GF(3) ranks depend on the boundary signs."""
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    groups = hm.homology_groups(cx)
    rank3 = {}
    for d, mat in cx.boundaries.items():
        rows: dict[int, dict[int, int]] = {}
        for (r, c), v in mat.items():
            rows.setdefault(r, {})[c] = v
        # the rows (coboundaries) reduce with far less fill than columns
        rank3[d] = _rank_mod3(rows[r] for r in sorted(rows))
    for d, g in enumerate(groups):
        dim_f3 = len(cx.by_dim[d]) - rank3.get(d, 0) - rank3.get(d + 1, 0)
        below = _torsion_at(groups[d - 1], 3) if d else 0
        assert dim_f3 == g.rank + _torsion_at(g, 3) + below


def _chain_complex(dims, boundaries, boundary=frozenset()):
    """A complex with cells 0.. of the given dimensions; boundaries map
    (face, cell) to coefficients, and the cells in `boundary` are
    flagged as boundary cells."""
    cells = [hm.QuotientCell(i, d, 0, 0, i in boundary, 1)
             for i, d in enumerate(dims)]
    by_dim, mats = {}, {}
    for c in cells:
        by_dim.setdefault(c.dim, []).append(c.index)
        if c.dim:
            mats.setdefault(c.dim, {})
    for (r, c), v in boundaries.items():
        if v:
            mats[dims[c]][(r, c)] = v
    cx = hm.QuotientCellComplex(cells, by_dim, mats)
    cx.check_dd_zero()
    return cx


def _simplicial_chains(tops, marked=()):
    """Cellular chains of the simplicial complex spanned by `tops`, with
    the simplices on the vertices in `marked` as boundary cells."""
    order = sorted({s for t in tops for k in range(1, len(t) + 1)
                    for s in itertools.combinations(sorted(t), k)},
                   key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(order)}
    return _chain_complex(
        [len(s) - 1 for s in order],
        {(index[s[:i] + s[i + 1:]], index[s]): (-1) ** i
         for s in order if len(s) > 1 for i in range(len(s))},
        {index[s] for s in order if set(s) <= set(marked)})


def _simplicial_complex(rng):
    n = rng.randint(4, 7)
    tops = [rng.sample(range(n), rng.randint(1, 4))
            for _ in range(rng.randint(2, 7))]
    return _simplicial_chains(tops, rng.sample(range(n), rng.randint(0, n)))


def _twisted_complex(rng):
    """Elementary complexes Z -k-> Z and free cells, then random changes
    of basis, which keep the homology but scatter the coefficients."""
    dims, pairs = [], []
    for d in range(4):
        dims += [d] * rng.randint(1 if d == 0 else 0, 3)
        for _ in range(rng.randint(0, 3) if d else 0):
            pairs.append((len(dims), len(dims) + 1, rng.choice([1, 2, 3, 6])))
            dims += [d - 1, d]
    mat = [[0] * len(dims) for _ in dims]  # mat[face][cell]
    for a, b, k in pairs:
        mat[a][b] = k
    for _ in range(4 * len(dims)):
        i, j = rng.randrange(len(dims)), rng.randrange(len(dims))
        if i == j or dims[i] != dims[j]:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # new basis e_i + c e_j: column i of the boundary gains c times
        # column j, row j of the coboundary loses c times row i
        for row in mat:
            row[i] += c * row[j]
        mat[j] = [x - c * y for x, y in zip(mat[j], mat[i])]
    # boundary cells: a random set of cells and all the faces below them
    marked = {c for c in range(len(dims)) if rng.random() < 0.3}
    todo = list(marked)
    while todo:
        c = todo.pop()
        for r in range(len(dims)):
            if mat[r][c] and r not in marked:
                marked.add(r)
                todo.append(r)
    return _chain_complex(dims, {(r, c): mat[r][c] for r in range(len(dims))
                                 for c in range(len(dims))}, marked)


def _snf_homology(cx):
    top = max(cx.by_dim)
    rank, torsion = {}, {}
    for d in range(1, top + 1):
        rows, cols = cx.by_dim.get(d - 1, []), cx.by_dim.get(d, [])
        ri = {r: i for i, r in enumerate(rows)}
        ci = {c: i for i, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in rows]
        for (r, c), v in cx.boundaries.get(d, {}).items():
            dense[ri[r]][ci[c]] = v
        diag = [abs(x) for x in smith_normal_form(dense).diagonal]
        rank[d] = len(diag)
        torsion[d] = tuple(x for x in diag if x != 1)
    return [hm.HomologyGroups(
        len(cx.by_dim.get(d, [])) - rank.get(d, 0) - rank.get(d + 1, 0),
        torsion.get(d + 1, ())) for d in range(top + 1)]


def _component(cx, comp):
    """The subcomplex on the cells of `comp`, which is closed under faces,
    as a complex of its own."""
    index = {c: i for i, c in enumerate(sorted(comp))}
    return _chain_complex(
        [cx.cells[c].dim for c in sorted(comp)],
        {(index[r], index[c]): v for mat in cx.boundaries.values()
         for (r, c), v in mat.items() if c in index})


@pytest.mark.parametrize("make", [_simplicial_complex, _twisted_complex])
def test_small_complexes_match_dense_snf(make):
    """The whole complex, and each boundary component from the residue
    that the boundary-first phase leaves of it, against a dense SNF of
    that complex alone."""
    rng = random.Random(f"small:{make.__name__}")
    mixed = split = 0
    for _ in range(60):
        cx = make(rng)
        assert hm.homology_groups(cx) == _snf_homology(cx)
        top = max(cx.by_dim)
        want = []
        for comp in hm.boundary_components(cx):
            groups = _snf_homology(_component(cx, comp))
            want.append(groups + [hm.HomologyGroups(0, ())] *
                        (top + 1 - len(groups)))
        assert hm.cusp_sections(cx) == want
        assert (hm.homology_groups(cx), want) == _per_part_homology(cx)
        mixed += 0 < len(cx.boundary_cell_indices()) < len(cx.cells)
        split += len(want) > 1
    assert mixed >= 30 and split >= 10  # interior cells and several cusps


def test_projective_plane_has_two_torsion():
    cx = _simplicial_chains([
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])
    assert [str(g) for g in hm.homology_groups(cx)] == ["Z", "Z/2", "0"]


def test_encode_rejects_unexpected_torsion():
    h = hm.HomologyGroups(1, (3,))
    with pytest.raises(hm.ComplexError):
        h.encode()


def test_complex_export_shape():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    payload = cx.to_json()
    assert payload["euler_characteristic"] == -1
    assert payload["counts"]["6"] == 8
    assert set(payload["boundaries"]) == {"1", "2", "3", "4", "5", "6"}
    first = payload["cells"][0]
    assert {"index", "dim", "copy", "cell", "boundary", "orbit"} <= set(first)
