from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from coxglue import homology as hm
from coxglue import pairing as pg
from coxglue import tables
from coxglue import verify as vf
from coxglue.coxeter import ORDER8_SYMMETRY
from coxglue.gf2 import Gf2Matrix
from coxglue.lorentz import RowSpan, det
from coxglue.search import search_pairings
from coxglue.smith import smith_normal_form

import cusp_union_find
import quotient_assembly
from ordered_elimination import ordered_elimination
from transport_union_find import TransportUnionFind
from truncated_geometry import cell_gauge, facet_sign, truncated_geometry


def test_truncated_cell_counts():
    tc = hm.truncated_cells()
    by_dim: dict[int, int] = {}
    for d in tc.cell_dim:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 936, 1: 2808, 2: 3240, 3: 1800, 4: 486, 5: 54, 6: 1}
    assert len(truncated_geometry().points) == 72 + 432 + 2 * 216


def test_truncated_cells_are_flat_of_right_dimension():
    tc, geo = hm.truncated_cells(), truncated_geometry()
    rng = random.Random(6)
    idxs = rng.sample(range(len(tc.cells)), 400)
    for idx in idxs:
        span = RowSpan()
        for pid in geo.cell_points[idx]:
            span.add(geo.points[pid])
        assert span.rank == tc.cell_dim[idx] + 1


def test_truncated_cell_fields_agree():
    """The named fields describe the same cells in the same order, and
    the permutation tables are powers of the one symmetry, so a swapped
    field fails here and not in a homology table.  The same holds for
    the fields of the geometric oracle."""
    tc = hm.truncated_cells()
    # the lattice numbers the 27 ideal points last, so face f is cell f
    faces = vf.lattice_context().lattice.faces
    assert [f.index for f in faces if f.ideal_point] == list(range(2764, 2791))
    assert all(tc.cells[f] == ("f", f) for f in range(2764))
    geo, n = truncated_geometry(), len(tc.cells)
    for field in (tc.cell_dim, tc.cell_facets, tc.incidence, tc.cell_face,
                  geo.cell_points, geo.frames, geo.pivot_cols,
                  geo.frame_sign):
        assert len(field) == n
    assert tc.cell_face == tuple(key[-1] for key in tc.cells)
    for i in range(n):
        assert len(geo.frames[i]) == len(geo.pivot_cols[i]) \
            == tc.cell_dim[i] + 1
        assert len(tc.incidence[i]) == len(tc.cell_facets[i])
    assert tc.orient[0] == (1,) * n
    assert len(tc.orient) == 8
    for perms, size in ((geo.pt_perm, len(geo.points)), (tc.cell_perm, n)):
        assert len(perms) == 8
        power = tuple(range(size))
        for p in range(8):
            assert perms[p] == power
            power = tuple(perms[1][x] for x in power)


def test_cut_points_avoid_vertices():
    points = truncated_geometry().points
    assert len(set(points)) == len(points)


def test_facet_counts_of_cut_cubes():
    tc, geo = hm.truncated_cells(), truncated_geometry()
    for idx, key in enumerate(tc.cells):
        if key[0] == "l":
            d = tc.cell_dim[idx]
            assert len(tc.cell_facets[idx]) == (2 * d if d else 0)
            assert len(geo.cell_points[idx]) == 2 ** d


def test_cells_are_oriented_by_their_walls():
    """The truncated polytope is simple, and its sign tables are closed
    formulas in the walls: a cell of dimension d lies in 6 - d walls, the
    27 sides and a cut wall 27 + (w - n_actual) per ideal vertex w; a
    facet adds one wall j, with the sign (-1)^#(walls of the cell below
    j); sigma^t changes orientation by det sigma^t = (-1)^t times the
    sign of the permutation that sorts the images of the walls."""
    tc, ctx, lctx = hm.truncated_cells(), pg.standard_context(), \
        vf.lattice_context()
    faces, n_act = lctx.lattice.faces, ctx.polytope.n_actual
    assert det(ORDER8_SYMMETRY) == -1
    walls = []
    for key, d in zip(tc.cells, tc.cell_dim):
        own = sorted(faces[key[-1]].sides)
        if key[0] == "l":
            own.append(27 + key[1] - n_act)
        assert len(own) == 6 - d
        walls.append(own)
    for x, own in enumerate(walls):
        for b, sign in zip(tc.cell_facets[x], tc.incidence[x]):
            (j,) = set(walls[b]) - set(own)
            assert len(walls[b]) == len(own) + 1
            assert sign == (-1) ** sum(w < j for w in own)
    for t in range(8):
        sides, verts = ctx.sigma_pows[t], lctx.vperm[t]
        for x, own in enumerate(walls):
            img = [sides[w] if w < 27 else 27 + verts[w - 27 + n_act] - n_act
                   for w in own]
            assert sorted(img) == walls[tc.cell_perm[t][x]]
            swaps = sum(a > b for a, b in itertools.combinations(img, 2))
            assert tc.orient[t][x] == (-1) ** (t + swaps)


def test_truncated_cells_refuse_a_cover_across_two_walls(monkeypatch):
    """Each cover sign is read off the one wall that the cover adds, as a
    side bitmask; a lattice in which the top face covers a ridge, two
    walls down, is refused rather than given a sign."""
    lctx = copy.deepcopy(vf.lattice_context())
    faces = lctx.lattice.faces
    faces[0].covers.append(next(f.index for f in faces if len(f.sides) == 2))
    monkeypatch.setattr(hm, "lattice_context", lambda: lctx)
    with pytest.raises(hm.ComplexError, match=re.escape(
            "a cover of face 0 adds other than one wall")):
        hm.truncated_cells.__wrapped__()


def test_quotient_complex_manifold1():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    assert cx.counts() == {0: 225, 1: 1242, 2: 2700, 3: 2880,
                           4: 1512, 5: 324, 6: 8}
    assert cx.euler_characteristic() == -1
    assert len(cx.boundary_cell_indices()) == 6912
    # top cells: one per abstract copy; interior wall orbits pair up
    interior5 = [c for c in cx.cells if c.dim == 5 and c.cusp < 0]
    assert len(interior5) == 108
    cusp5 = [c for c in cx.cells if c.dim == 5 and c.cusp >= 0]
    assert len(cusp5) == 216
    assert all(c.orbit_size == 2 for c in interior5)
    assert all(c.orbit_size == 1 for c in cusp5)
    assert len(cx.by_dim[6]) == 8


def test_quotient_requires_proper_pairing():
    rng = random.Random(31)
    mut = pg.mutated_pairing(pg.published_pairing(1), rng)
    with pytest.raises(hm.ComplexError):
        hm.build_quotient_complex(mut)


def test_quotient_names_a_reflected_union(monkeypatch):
    """The reflected-union pairing of a code is refused by its type,
    before any face is traced."""
    qsp = pg.decode_q_code(tables.manifold_record(1).code)
    monkeypatch.setattr(hm, "face_cycles_proper",
                        lambda arr: pytest.fail("traced the faces"))
    with pytest.raises(hm.ComplexError, match="EightPPairing, not a "
                       "QSidePairing$"):
        hm.build_quotient_complex(qsp)


@pytest.mark.parametrize("mid, perm", [(1, None),
                                       (7, [7, 6, 5, 4, 3, 2, 1, 0])])
def test_boundary_signs_match_determinants(mid, perm):
    """Every boundary entry recomputed by exact determinants: the frame
    of the facet's class representative, moved by its transport sigma^t
    and led by a point of the cell off the facet, in the cell's frame.
    The wall orientations differ from the frames' by one sign c[X] per
    cell X of the truncated polytope, the same for every gluing, so the
    complex is the determinant complex conjugated by the diagonal matrix
    of c[cell of q] over quotient cells q.  The classes come from a
    union-find over the cells of the eight copies, which is also the
    oracle for the classes that the complex lifts from the certificate's
    face classes."""
    arr = pg.published_pairing(mid)
    if perm:
        arr = arr.relabeled(perm)
    cert = vf.face_cycles_proper(arr)
    cx = hm.build_quotient_complex(arr)
    tc, geo = hm.truncated_cells(), truncated_geometry()
    gauge, conflicts = cell_gauge()
    assert conflicts == 0
    n = len(tc.cells)
    faces = vf.lattice_context().lattice.faces
    nf = len(faces)
    sides_cells: list[list[int]] = [[] for _ in range(27)]
    for c in range(n):
        for s in faces[tc.cell_face[c]].sides:
            sides_cells[s].append(c)
    uf = TransportUnionFind(8 * n, lambda a, b: (a + b) % 8,
                            lambda a: -a % 8, 0)
    for i in range(8):
        for j in range(27):
            k, p = arr.entry(i, j)
            for c in sides_cells[j]:
                assert uf.union(i * n + c, k * n + tc.cell_perm[p][c], p)
    roots = [r for r in range(8 * n) if uf.find(r)[0] == r]
    assert [(q.copy * n + q.cell, q.orbit_size) for q in cx.cells] == \
        [(r, uf.size[r]) for r in roots]
    for x in range(8 * n):
        copy, c = divmod(x, n)
        f = copy * nf + tc.cell_face[c]
        r, t = cert.roots[f], cert.transports[f]
        lifted = (r // nf * n + tc.cell_perm[-t][c], t)
        assert lifted == uf.find(x)
    index = {q.copy * n + q.cell: q.index for q in cx.cells}
    want: dict[int, dict[tuple[int, int], int]] = {d: {} for d in cx.boundaries}
    moved = 0
    for q in cx.cells:
        x = q.cell
        for b in tc.cell_facets[x]:
            r, t = uf.find(q.copy * n + b)
            moved += t != 0
            key = (index[r], q.index)
            want[q.dim][key] = (want[q.dim].get(key, 0)
                                + facet_sign(geo, x, b, r % n, t))
    assert moved
    flip = [gauge[q.cell] for q in cx.cells]
    assert cx.boundaries == {
        d: {(r, c): flip[r] * flip[c] * v for (r, c), v in m.items() if v}
        for d, m in want.items()}


def test_dd_check_catches_a_flipped_sign():
    """The oracle names the column of the flipped entry: its quotient
    index, its copy (1-based, as in `to_json`) and its truncated cell."""
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    for r, c in itertools.islice(cx.boundaries[3], 0, 3000, 1000):
        cx.columns[c][r] *= -1
        q = cx.cells[c]
        cell = re.escape(str(hm.truncated_cells().cells[q.cell]))
        with pytest.raises(AssertionError, match=rf"nonzero on column {c} "
                           rf"\(copy {q.copy + 1}, cell {cell}\) at dim 3$"):
            quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)
        cx.columns[c][r] *= -1
    quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)


def _flip_a_face(cx, c):
    """Negate an entry of column c whose face has a nonzero boundary, so
    that boundary squared fails on c."""
    r = next(r for r in cx.columns[c] if cx.columns[r])
    cx.columns[c][r] *= -1


def test_dd_check_names_the_lowest_degree():
    """With bad columns in degrees 2 and 4, the oracle names the one in
    degree 2, although the one in degree 4 has the lower index."""
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    c4, c2 = cx.by_dim[4][0], cx.by_dim[2][-1]
    assert c4 < c2
    _flip_a_face(cx, c4)
    _flip_a_face(cx, c2)
    with pytest.raises(AssertionError,
                       match=rf"nonzero on column {c2} .* at dim 2$"):
        quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)


# the first 16 hex digits of the sha256 of repr(steps) of `morse_complex`
# on each published gluing
MORSE_STEPS = {1: "29d299f22c7307a1", 2: "a10ef3088acdaaab",
               3: "56e54263cc4e2397", 4: "1342d3ec9244557f",
               5: "c14321ae9df4873a", 6: "722d702c5e41c0ae",
               7: "4f9943feef4c4d42", 8: "ff4c7f5218684a6c",
               9: "37b4470b5d797488"}


def _check_assembly_order(cx, cert):
    """The cells made from the root faces are those of the walk over every
    cell instance, field by field and in order, and each column lists its
    entries in the order of a build in facet order: the two orders the
    Morse steps follow."""
    want = quotient_assembly.instance_complex(cert)
    assert [dataclasses.astuple(q) for q in cx.cells] == \
        [dataclasses.astuple(q) for q in want.cells]
    assert list(cx.by_dim.items()) == list(want.by_dim.items())
    assert [list(col.items()) for col in cx.columns] == \
        [list(col.items()) for col in want.columns]


@pytest.mark.parametrize("mid, perm", [
    *((mid, None) for mid in range(1, 10)),
    (1, random.Random(13).sample(range(8), 8))])
def test_columns_match_the_tuple_keyed_assembly(mid, perm):
    """The column table gives the cells and, entry for entry, the boundary
    matrices of the tuple-keyed assembly in tests/quotient_assembly.py,
    whose boundary-squared check passes on them, and on a complex
    corrupted in two degrees names the corrupted column of the lower.
    The cells and column items come in the order of the instance walk,
    and the Morse steps of the nine are pinned."""
    arr = pg.published_pairing(mid)
    if perm:
        arr = arr.relabeled(perm)
    cert = vf.face_cycles_proper(arr)
    cx = hm.build_quotient_complex(arr)
    _check_assembly_order(cx, cert)
    if not perm:
        steps = hm.morse_complex(cx)[0]
        digest = hashlib.sha256(repr(steps).encode()).hexdigest()
        assert digest[:16] == MORSE_STEPS[mid]
    cells, by_dim, mats = quotient_assembly.assemble(cert)
    assert (cx.cells, cx.by_dim) == (cells, by_dim)
    assert len(cx.columns) == len(cells)
    assert cx.boundaries == mats
    quotient_assembly.check_dd_zero(cells, mats)
    rng = random.Random(f"corrupt:{mid}")
    low, high = sorted(rng.sample(range(2, 7), 2))
    bad = {d: rng.choice(by_dim[d]) for d in (low, high)}
    for c in bad.values():
        _flip_a_face(cx, c)
    with pytest.raises(AssertionError, match=rf"nonzero on column "
                       rf"{bad[low]} .* at dim {low}$"):
        quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)


# no shrinking: each example compares about 9k cells and 54k column
# entries, and shrinking a failure over such comparisons takes minutes
# and hundreds of MB; the failing relabeling is reported as generated
@settings(max_examples=4, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(mid=st.integers(1, 9), perm=st.permutations(range(8)))
def test_assembly_order_under_relabeling(mid, perm):
    arr = pg.published_pairing(mid).relabeled(perm)
    _check_assembly_order(hm.build_quotient_complex(arr),
                          vf.face_cycles_proper(arr))


@pytest.mark.parametrize("mid, perm", [
    (1, None), (2, None), (7, None),
    (1, random.Random(13).sample(range(8), 8))])
def test_assembly_is_a_chain_map(mid, perm):
    """Boundary pi(Y) = pi(boundary Y) for every cell Y of every copy,
    pi sending Y to its class with its transported sign: the reason the
    quotient complex needs no boundary-squared pass of its own."""
    arr = pg.published_pairing(mid)
    if perm:
        arr = arr.relabeled(perm)
    quotient_assembly.check_chain_map(vf.face_cycles_proper(arr),
                                      hm.build_quotient_complex(arr))


def test_searched_gluings_are_chain_complexes():
    """Row 1 of m2 with its first 23 sides fixed completes to m2 and to 7
    unpublished proper gluings, all developing to m2's code; their
    complexes pass the boundary-squared oracle."""
    m2 = pg.published_pairing(2)
    res = search_pairings({(0, j): m2.entries[0][j] for j in range(23)})
    assert res.complete and res.nodes_used == 42304
    others = [s for s in res.solutions if s.entries != m2.entries]
    assert len(others) == len(res.solutions) - 1 == 7
    code = pg.develop(m2).code
    for arr in others:
        assert pg.develop(arr).code == code
        cx = hm.build_quotient_complex(arr)
        quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)
        _check_matching(cx)


def _check_matching(cx):
    """Every cell leaves once in the matching of `morse_complex`; each
    pair (a, b) has an original incidence [b:a] = +-1; each pair's other
    faces, and each critical cell's faces, left earlier; every boundary
    cell leaves before any interior cell, and a critical one's Morse
    boundary names critical cells of its own cusp alone, which
    `cusp_sections` relies on; and the Morse complex, on the critical
    cells, has boundary squared zero."""
    steps, bd = hm.morse_complex(cx)
    for c, col in bd.items():
        if cx.cells[c].cusp >= 0:
            assert all(r in bd and cx.cells[r].cusp == cx.cells[c].cusp
                       for r in col), c
    when = {x: t for t, step in enumerate(steps) for x in step}
    assert len(when) == sum(map(len, steps)) == len(cx.cells)
    for t, step in enumerate(steps):
        col = cx.columns[step[-1]]
        if len(step) == 2:
            assert col[step[0]] in (1, -1)
        assert all(when[x] < t for x in col if x != step[0])
    flags = [cx.cells[x].cusp >= 0 for step in steps for x in step]
    assert flags == sorted(flags, reverse=True)
    assert sorted(bd) == sorted(s[0] for s in steps if len(s) == 1)
    for c, col in bd.items():
        twice: dict[int, int] = {}
        for r, v in col.items():
            for x, w in bd[r].items():
                twice[x] = twice.get(x, 0) + v * w
        assert not any(twice.values()), c


@pytest.mark.parametrize("mid", range(1, 10))
def test_morse_matching_is_acyclic_and_boundary_first(mid):
    _check_matching(hm.build_quotient_complex(pg.published_pairing(mid)))


def test_morse_matching_under_relabeling():
    perm = random.Random(29).sample(range(8), 8)
    _check_matching(hm.build_quotient_complex(
        pg.published_pairing(7).relabeled(perm)))


def test_one_face_pass_per_gluing_in_turn():
    """Certification and then the complex, on gluings in turn (m1, m2,
    m1 relabeled, m1): each change of gluing costs one eight-copy face
    pass, which the complex shares, each gluing gets its own tables, and
    the relabeled array its own classes."""
    perm = random.Random(16).sample(range(8), 8)
    m1 = pg.published_pairing(1)
    vf._cycles_eight.cache_clear()
    roots = []
    for passes, (mid, arr) in enumerate(
            [(1, m1), (2, pg.published_pairing(2)), (1, m1.relabeled(perm)),
             (1, pg.published_pairing(1))], 1):
        rec = tables.manifold_record(mid)
        cert = vf.certify_manifold(arr, rec.code)
        cx = hm.build_quotient_complex(arr)
        assert vf.face_cycles_proper(arr) is cert.proper
        assert vf._cycles_eight.cache_info().misses == passes
        groups, secs = hm.homology_groups(cx), hm.cusp_sections(cx)
        assert tuple(groups[d].encode() for d in range(1, 6)) == rec.homology
        assert len(secs) == rec.cusps
        assert sorted(tuple(s[d].encode(powers=(2, 4)) for d in range(1, 6))
                      for s in secs) == sorted(rec.cusp_homology)
        roots.append(cert.proper.roots)
    assert roots[2] != roots[0] == roots[3]


def test_one_truncated_copy_is_a_chain_complex():
    """P1 of the module docstring: boundary squared is zero on the cell
    facets and incidences of one truncated polytope."""
    tc = hm.truncated_cells()
    cells = [hm.QuotientCell(x, d, 0, x, -1, 1)
             for x, d in enumerate(tc.cell_dim)]
    mats: dict[int, dict[tuple[int, int], int]] = {d: {} for d in range(1, 7)}
    for x, d in enumerate(tc.cell_dim):
        for b, sign in zip(tc.cell_facets[x], tc.incidence[x]):
            mats[d][b, x] = sign
    quotient_assembly.check_dd_zero(cells, mats)


def test_sign_tables_follow_the_symmetry():
    """P2 of the module docstring: sigma carries each cell's facets, with
    their signs, and its face, onto its image's."""
    tc, fperm = hm.truncated_cells(), vf.lattice_context().fperm
    orient, incidence = tc.orient, tc.incidence
    facets, cperm = tc.cell_facets, tc.cell_perm
    n = len(tc.cells)
    # incidence[sX][sb] = orient[1][X] incidence[X][b] orient[1][b]
    for x in range(n):
        moved = dict(zip(facets[cperm[1][x]], incidence[cperm[1][x]]))
        for b, sign in zip(facets[x], incidence[x]):
            assert moved[cperm[1][b]] == orient[1][x] * sign * orient[1][b]
    for t in range(8):
        assert all(tc.cell_face[cperm[t][x]] == fperm[t][tc.cell_face[x]]
                   for x in range(n))
    # one copy of the truncated polytope is a cell complex of a ball
    one_copy = _chain_complex(
        tc.cell_dim, {(b, x): sign for x in range(n)
                         for b, sign in zip(facets[x], incidence[x])})
    assert [str(g) for g in hm.homology_groups(one_copy)] == \
        ["Z"] + ["0"] * 6


def test_orientation_signs_are_a_cocycle():
    """P3 of the module docstring: orient[s + t][X] = orient[s][X]
    orient[t][sigma^s X] for all powers s, t and cells X, so the sign
    that sigma^t gives a cell is the product of sigma's along its orbit
    (and sigma^8, the identity, gives +1)."""
    tc = hm.truncated_cells()
    orient, cperm = tc.orient, tc.cell_perm
    for s, t in itertools.product(range(8), repeat=2):
        then = orient[t]
        assert orient[(s + t) % 8] == tuple(
            a * then[y] for a, y in zip(orient[s], cperm[s])), (s, t)


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
    1, ..., parts - 1 (-1: none), each reduced on its own by the
    oracle kernel, in (dim, index) order over all its cells, and its
    residue by a dense SNF."""
    top = max(cx.by_dim)
    bds = [{} for _ in range(parts)]
    for c, col in enumerate(cx.columns):
        k = part[c]
        if k >= 0:
            bds[k][c] = {r: v for r, v in col.items() if part[r] == k}
    dims = [c.dim for c in cx.cells]
    out = []
    for bd in bds:
        ordered_elimination(bd, dims)
        cells_at = {d: [] for d in range(top + 1)}
        for c in sorted(bd):
            cells_at[cx.cells[c].dim].append(c)
        factors = {}
        for d in range(1, top + 1):
            dense = [[bd[c].get(r, 0) for c in cells_at[d]]
                     for r in cells_at[d - 1]]
            factors[d] = [abs(x) for x in smith_normal_form(dense).diagonal]
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
    `homology_groups` and `cusp_sections` share.  The components, read
    off the cells' cusps, are checked against a union-find over the
    boundary cells' columns."""
    comps = hm.boundary_components(cx)
    assert comps == cusp_union_find.boundary_components(
        [c.cusp >= 0 for c in cx.cells], cx.columns)
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
    quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)
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
    boundary cells, whose cusps are the components that the column
    union-find oracle finds, each labeled by its first cell."""
    columns: list[dict[int, int]] = [{} for _ in dims]
    for (r, c), v in boundaries.items():
        if v:
            assert dims[r] == dims[c] - 1
            columns[c][r] = v
    cusp = [-1] * len(dims)
    for comp in cusp_union_find.boundary_components(
            [i in boundary for i in range(len(dims))], columns):
        for c in comp:
            cusp[c] = min(comp)
    cells = [hm.QuotientCell(i, d, 0, 0, cusp[i], 1)
             for i, d in enumerate(dims)]
    by_dim: dict[int, list[int]] = {}
    for c in cells:
        by_dim.setdefault(c.dim, []).append(c.index)
    cx = hm.QuotientCellComplex(cells, by_dim, columns)
    quotient_assembly.check_dd_zero(cx.cells, cx.boundaries)
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
        dense = [[0] * len(cols) for _ in rows]
        for j, c in enumerate(cols):
            for r, v in cx.columns[c].items():
                dense[ri[r]][j] = v
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
        {(index[r], index[c]): v for c in index
         for r, v in cx.columns[c].items()})


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
    # one decimal digit per count: Z + 10 Z/2 + Z/4 would read as
    # Z^11 + Z/4
    for h, name in ((hm.HomologyGroups(10, ()), "rank 10"),
                    (hm.HomologyGroups(1, (2,) * 10 + (4,)), "Z/2 count 10")):
        with pytest.raises(hm.ComplexError, match=name):
            h.encode()


def test_complex_export_shape():
    cx = hm.build_quotient_complex(pg.published_pairing(1))
    payload = cx.to_json()
    assert payload["euler_characteristic"] == -1
    assert payload["counts"]["6"] == 8
    assert set(payload["boundaries"]) == {"1", "2", "3", "4", "5", "6"}
    first = payload["cells"][0]
    assert {"index", "dim", "copy", "cell", "boundary", "orbit"} <= set(first)
