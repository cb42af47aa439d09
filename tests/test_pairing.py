from __future__ import annotations

import random
import re

import numpy as np
import pytest

from coxglue import pairing as pg
from coxglue import polytope, tables
from coxglue.lorentz import identity, lorentz_inverse, mat_mul, mat_vec


def test_codec_matches_embedded_table():
    for ch, row in tables.digit_signs().items():
        k = pg.decode_digit(ch)
        assert k.signs == row[:6]
        assert pg.encode_digit(k) == ch


def test_digit_examples():
    assert pg.decode_digit("M").signs == (1, -1, -1, 1, -1, 1)
    assert pg.decode_digit("0").signs == (1, 1, 1, 1, 1, 1)
    assert pg.decode_digit("$").signs == (-1, -1, -1, -1, -1, -1)
    with pytest.raises(pg.PairingError):
        pg.decode_digit("%")
    with pytest.raises(pg.PairingError):
        pg.decode_digit("Z", dim=5)  # value 35 needs six signs


def test_code_validation():
    with pytest.raises(pg.PairingError):
        pg.PairingCode(6, "MVS")
    with pytest.raises(pg.PairingError):
        pg.PairingCode(6, "!" * 21)
    with pytest.raises(pg.PairingError):
        pg.PairingCode(4, "0000")
    assert str(pg.PairingCode(5, "EKB98LLG6R2")) == "EKB98LLG6R2"


def test_decode_published_code():
    rec = tables.manifold_record(1)
    qsp = pg.decode_q_code(rec.code)
    # the first wall pairs to the wall whose normal has the second sign
    # flipped: index 2 in the standard order
    assert qsp.partner[0] == 2
    assert qsp.k_elements[0] == pg.decode_digit("M")
    for s in qsp.q.sides:
        i, j = s.index, qsp.partner[s.index]
        assert qsp.partner[j] == i
        assert mat_mul(qsp.transforms[i], qsp.transforms[j]) == identity(7)


def test_decode_identity_code():
    qsp = pg.decode_q_code("0" * 21)
    assert all(qsp.partner[i] == i for i in range(252))


def test_parse_errors():
    good = tables.pairing_array_text(1)
    pg.parse_8p_pairing(good)
    with pytest.raises(pg.PairingError):
        pg.parse_8p_pairing(good.replace("2^0", "9^3", 1))
    with pytest.raises(pg.PairingError):
        pg.parse_8p_pairing(good.replace("2^0", "2^x", 1))
    with pytest.raises(pg.PairingError):
        pg.parse_8p_pairing(good + "1^0\n")
    # a consistent swap of tokens breaks the involution law
    with pytest.raises(pg.PairingError):
        pg.parse_8p_pairing(good.replace("2^0 1^7", "1^7 2^0", 1))


def test_parse_accepts_grouped_tokens():
    text = tables.pairing_array_text(1)
    grouped = "\n".join(
        " ".join("".join(line.split()[i:i + 3]) for i in range(0, 27, 3))
        for line in text.splitlines())
    assert pg.parse_8p_pairing(grouped).entries == \
        pg.parse_8p_pairing(text).entries


def test_involution_example_entries():
    arr = pg.published_pairing(1)
    assert arr.entry(0, 0) == (1, 0)       # first token reads 2^0
    assert arr.entry(0, 1) == (0, 7)
    assert arr.entry(0, 13) == (0, 1)      # forced by the involution law
    for mid in range(1, 10):
        pg.published_pairing(mid).validate_involution()


def test_develop_reproduces_all_published_codes():
    for mid in range(1, 10):
        dev = pg.develop(pg.published_pairing(mid))
        assert dev.code.digits == tables.manifold_record(mid).code
        assert len(dev.placements) == 64


def test_develop_conflict_on_corrupted_array():
    rng = random.Random(99)
    arr = pg.published_pairing(1)
    seen_conflict = 0
    for _ in range(5):
        mut = pg.mutated_pairing(arr, rng)
        try:
            pg.develop(mut)
        except pg.DevelopmentConflict as exc:
            seen_conflict += 1
            # the walk names the copy and side it was crossing, 1-based
            site = re.match(r"copy (\d+), side (\d+): ", str(exc))
            assert site, str(exc)
            assert 1 <= int(site[1]) <= 8 and 1 <= int(site[2]) <= 27
    assert seen_conflict >= 1


def _old_sign_flip_of(g) -> tuple[int, ...] | None:
    """Signs s when g = diag(s, 1), else None."""
    n = len(g)
    if any(g[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    diag = tuple(g[i][i] for i in range(n))
    if any(e not in (1, -1) for e in diag) or diag[-1] != 1:
        return None
    return diag[:-1]


def _neighbour_tests(arr):
    """Walk the development the old way and judge every neighbour of
    every chart reached by both routes.  Old route: a chart g is inside
    when g sigma^-p is a sign flip for one of the eight powers, and its
    copy is named by the smallest repr of g sigma^p; the walk keeps the
    first chart of each name and ignores conflicts.  Yields (old signs
    or None, old name, new key)."""
    ctx = pg.standard_context()
    inv = np.array([lorentz_inverse(p) for p in ctx.powers], dtype=np.int64)
    steps = np.einsum("jab,pbc->jpac",
                      np.array(ctx.reflections, dtype=np.int64), inv)
    start = np.eye(7, dtype=np.int64)
    charts = {}
    frontier = [(start, 0)]
    while frontier:
        nxt = []
        for g, i in frontier:
            for j in range(27):
                k, p = arr.entry(i, j)
                nb = g @ steps[j, p]
                prods = np.einsum("ab,pbc->pac", nb, inv)
                signs = None
                for prod in prods:
                    signs = _old_sign_flip_of(prod.tolist())
                    if signs is not None:
                        break
                # sigma^-p runs over the same eight powers as sigma^p
                name = min(repr(tuple(map(tuple, prod.tolist()))).encode()
                           for prod in prods)
                new = pg._inside_key(tuple(map(tuple, nb.tolist())))
                yield signs, name, new
                if signs is not None and name not in charts:
                    charts[name] = nb
                    nxt.append((nb, k))
        frontier = nxt


def test_development_keys_match_old_route():
    """g.z decides inside or outside, and names copies, exactly as the
    eight products with the powers of sigma did, on the published
    gluings and on mutated ones (whose walks conflict)."""
    powers = pg.standard_context().powers
    assert all(mat_vec(p, pg.CENTER) == pg.CENTER for p in powers)
    rng = random.Random(2024)
    m1 = pg.published_pairing(1)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(m1, rng) for _ in range(20)]
    for arr in arrays:
        old_to_new, new_to_old, outside_names = {}, {}, set()
        for signs, name, new in _neighbour_tests(arr):
            if signs is None:
                assert new is None
                outside_names.add(name)
                continue
            assert new == signs + (3,)
            assert old_to_new.setdefault(name, new) == new
            assert new_to_old.setdefault(new, name) == name
        assert len(old_to_new) <= 64
        assert not outside_names & set(old_to_new)


def test_restriction():
    assert pg.restrict_code(tables.manifold_record(1).code).digits == \
        "EKB98LLG6R2"
    assert pg.restrict_code(tables.manifold_record(2).code).digits == \
        "EKB98LLG6R2"
    restricted = {pg.restrict_code(tables.manifold_record(m).code).digits
                  for m in range(3, 10)}
    assert restricted == {"2B7JB47JG81"}


def test_builders_return_one_object_per_input():
    q6 = polytope.build_q(6)
    assert polytope.build_q(6) is q6
    assert polytope.face_lattice(polytope.build_q(6)) is \
        polytope.face_lattice(q6)
    code = tables.manifold_record(1).code
    assert pg.decode_q_code(code).q is pg.decode_q_code(code).q is q6


def test_restrict_code_builds_no_new_polytope_or_lattice(monkeypatch):
    code = tables.manifold_record(1).code
    want = pg.restrict_code(code)
    built = []
    for cls in (polytope.QPolytope, polytope.FaceLattice):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    assert pg.restrict_code(code) == want
    assert built == []
    polytope.build_q.__wrapped__(5)  # the counter does see a build
    assert built == ["QPolytope"]


def test_restriction_invariance_check():
    qsp = pg.decode_q_code(tables.manifold_record(1).code)
    pg.restrict_check(qsp)
    # tamper with a cross-section wall transform: swap coordinate one out
    swap = tuple(tuple(1 if (i, j) in ((0, 2), (2, 0)) else
                       (1 if i == j and i not in (0, 2) else 0)
                       for j in range(7)) for i in range(7))
    bad_idx = next(s.index for s in qsp.q.sides if s.normal[0] == 0)
    transforms = list(qsp.transforms)
    transforms[bad_idx] = mat_mul(swap, transforms[bad_idx])
    tampered = pg.QSidePairing(qsp.q, qsp.code, qsp.partner,
                               qsp.k_elements, tuple(transforms))
    with pytest.raises(pg.CrossSectionError):
        pg.restrict_check(tampered)


def test_orientability():
    for rec in tables.manifold_records():
        assert pg.orientability_of_code(rec.code) == rec.orientable
    assert pg.orientability_of_code("0" * 21) is False


def test_mutations_stay_involutive():
    rng = random.Random(1)
    arr = pg.published_pairing(4)
    for _ in range(10):
        mut = pg.mutated_pairing(arr, rng)
        mut.validate_involution()
        assert mut.entries != arr.entries


def test_relabeled_pairing_is_involutive():
    arr = pg.published_pairing(1)
    perm = [3, 0, 1, 2, 5, 4, 7, 6]
    re = arr.relabeled(perm)
    re.validate_involution()
    assert re.entries != arr.entries


def test_search_budget_zero():
    res = pg.search_pairings(None, node_budget=0)
    assert res.solutions == ()
    assert res.budget_exhausted
    assert not res.complete


def test_search_infeasible_constraints():
    # entry and its forced partner disagree
    fixed = {(0, 0): (1, 0), (1, 0): (2, 0)}
    res = pg.search_pairings(fixed, node_budget=100)
    assert res.infeasible
    assert res.solutions == ()


# m3 with its copy 3 put first also counts the crossings that the
# partner entry of each assignment records: without them it takes 7,488
@pytest.mark.parametrize("mid, first, nodes",
                         [(1, 0, 9856), (9, 0, 5376), (3, 2, 7040)])
def test_search_from_first_row_rediscovers_published(mid, first, nodes):
    arr = pg.published_pairing(mid).relabeled(
        [(x - first) % 8 for x in range(8)])
    fixed = {(0, j): arr.entries[0][j] for j in range(27)}
    res = pg.search_pairings(fixed)
    assert res.complete
    assert res.nodes_used == nodes
    assert [s.entries for s in res.solutions] == [arr.entries]


def test_search_exhausted_without_solution_is_infeasible():
    # row 1 of m1 with one twist power changed: the fixed entries agree
    # with each other, but the 256-node tree holds no proper completion
    arr = pg.published_pairing(1)
    fixed = {(0, j): arr.entries[0][j] for j in range(27)}
    k, p = fixed[(0, 4)]
    fixed[(0, 4)] = (k, (p + 1) % 8)
    res = pg.search_pairings(fixed, node_budget=10 ** 5)
    assert res.complete and not res.budget_exhausted
    assert res.nodes_used == 256
    assert res.solutions == ()
    assert res.infeasible


def test_search_pruning_agrees_with_certification(monkeypatch):
    """With all 216 entries fixed and the confirming check stubbed out,
    the search keeps an array exactly when its pruning passes it, and
    that must be exactly when the face pass certifies it proper."""
    from coxglue import verify as vf
    monkeypatch.setattr(pg, "_confirmed_proper", lambda arr: True)
    # seed 4 draws a mutant that fails by holonomy (the ninth) among
    # mutants that fail by cycle length
    rng = random.Random(4)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(arrays[rng.randrange(9)], rng)
               for _ in range(20)]
    for n, arr in enumerate(arrays):
        fixed = {(i, j): arr.entries[i][j] for i in range(8) for j in range(27)}
        res = pg.search_pairings(fixed)
        assert res.complete and res.nodes_used == 0
        proper = vf.face_cycles_proper(arr).proper
        assert proper == (n < 9)
        assert [s.entries for s in res.solutions] == \
            ([arr.entries] if proper else [])


def test_decode_random_codes_validate():
    rng = random.Random(77)
    for _ in range(10):
        code = "".join(pg.ALPHABET[rng.randrange(64)] for _ in range(21))
        qsp = pg.decode_q_code(code)  # validates involution internally
        groups = {}
        for s in qsp.q.sides:
            groups.setdefault(s.group, set()).add(qsp.k_elements[s.index])
        assert all(len(ks) == 1 for ks in groups.values())
