from __future__ import annotations

import math
import random
import re
from functools import partial

import numpy as np
import pytest

from coxglue import pairing as pg
from coxglue import polytope, tables
from coxglue import verify as vf
from coxglue.errors import CoxglueError
from coxglue.lorentz import (
    identity,
    mat_mul,
    mat_vec,
    reflection_in,
)
from coxglue.search import search_pairings

from group_elements import SIGMA_POWERS
from q_sides import normal_index
from search_oracle import oracle_search
from wall_development import wall_develop


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


@pytest.mark.parametrize("call, arg, named", [
    (pg.parse_8p_pairing, None, "text is a str of 8 rows, not a NoneType"),
    (pg.decode_digit, 5, "character 5 "),
    (pg.decode_digit, True, "character True "),
    (pg.encode_digit, "x", "k='x' is not a KElement"),
    (pg.encode_digit, pg.KElement((-1,) * 7), "at most 6 signs"),
    (pg.encode_digit, pg.KElement((1,) * 7), "at most 6 signs"),
    (pg.KElement, 5, "signs=5 is not a tuple of +-1"),
    (pg.KElement, (True, -1), "signs=(True, -1) is not a tuple"),
    (partial(pg.KElement.from_value, n=6), "x", "value 'x' out of range"),
    (partial(pg.KElement.from_value, n=6), True, "value True out of range"),
    (partial(pg.KElement.from_value, 1), "x", "n='x' is not an int >= 0"),
    (partial(pg.decode_digit, "0"), "x", "dim='x' is not an int in 1..6"),
    (partial(pg.decode_digit, "0"), True, "dim=True is not an int"),
    (partial(pg.mutated_pairing, rng=random.Random(0)), 5,
     "arr=5 is not an EightPPairing"),
    (partial(pg.mutated_pairing, pg.published_pairing(1)), 5,
     "rng=5 has no randrange"),
    (partial(pg.mutated_pairing, pg.published_pairing(1)), None,
     "rng=None has no randrange"),
], ids=["parse-None", "decode-int", "decode-bool", "encode-str",
        "encode-seven-signs", "encode-seven-signs-value-0", "kelement-int",
        "kelement-bool-sign", "from-value-str", "from-value-bool",
        "from-value-str-n", "decode-str-dim", "decode-bool-dim",
        "mutate-int", "mutate-int-rng", "mutate-none-rng"])
def test_text_entry_points_refuse_other_types(call, arg, named):
    """The codec and the element constructors name what they refuse."""
    with pytest.raises(pg.PairingError, match=re.escape(named)):
        call(arg)


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
    assert qsp.values[0] == pg.decode_digit("M").code_value
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


def test_develop_matches_the_wall_by_wall_oracle():
    """Reading digit s - 6 off base side s gives the code and placements
    that reading a digit per wall of the reflected union gives, on the
    nine gluings, relabelings of them and single and chained mutants;
    where one route raises DevelopmentConflict, so does the other, and a
    digit read twice names the copy and side."""
    rng = random.Random(25)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    for arr in arrays[:9]:
        for _ in range(3):
            perm = list(range(8))
            rng.shuffle(perm)
            arrays.append(arr.relabeled(perm))
    for n in range(150):
        arr = rng.choice(arrays[:36])
        for _ in range(1 + n % 3):
            arr = pg.mutated_pairing(arr, rng)
        arrays.append(arr)
    outcomes = {"developed": 0, "reached twice": 0, "read two values": 0}
    for arr in arrays:
        try:
            want = wall_develop(arr)
        except pg.DevelopmentConflict as exc:
            want = exc
        try:
            got = pg.develop(arr)
        except pg.DevelopmentConflict as exc:
            assert isinstance(want, pg.DevelopmentConflict), str(exc)
            kind = next(k for k in outcomes if k in str(exc))
            outcomes[kind] += 1
            if kind == "read two values":
                assert re.fullmatch(r"copy [1-8], side \d+: digit \d+ read "
                                    r"two values", str(exc)), str(exc)
            continue
        assert got == want
        outcomes["developed"] += 1
    assert outcomes == {"developed": 36, "reached twice": 124,
                        "read two values": 26}


def test_reached_twice_names_both_placements():
    """A sign flip reached twice names both placements of it as (copy,
    power); on this mutant they are one copy with two powers."""
    arr = pg.mutated_pairing(pg.published_pairing(1), random.Random(2))
    with pytest.raises(pg.DevelopmentConflict, match="reached twice") as exc:
        pg.develop(arr)
    first, second = re.findall(r"\(copy ([1-8]), power ([0-7])\)",
                               str(exc.value))
    assert first != second and first[0] == second[0]


def _old_sign_flip_of(g) -> tuple[int, ...] | None:
    """Signs s when g = diag(s, 1), else None."""
    n = len(g)
    if any(g[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    diag = tuple(g[i][i] for i in range(n))
    if any(e not in (1, -1) for e in diag) or diag[-1] != 1:
        return None
    return diag[:-1]


def _chart_name(g, inv) -> bytes:
    """The smallest repr of g sigma^-p over the eight powers: one name
    for every chart that places the same copy."""
    return min(repr(tuple(map(tuple, prod.tolist()))).encode()
               for prod in np.einsum("ab,pbc->pac", g, inv))


def _neighbour_tests(arr):
    """Walk the development with 7 x 7 charts, the old way.  A chart g
    is inside when g sigma^-p is a sign flip for one of the eight powers,
    and its copy is named by _chart_name; the walk keeps the first chart
    of each name.  Returns the chart and abstract copy first placed under
    each name, and whether a later arrival disagreed with one."""
    ctx = pg.standard_context()
    inv = np.array([SIGMA_POWERS[-t % 8] for t in range(8)], dtype=np.int64)
    reflections = [reflection_in(u) for u in ctx.polytope.normals]
    steps = np.einsum("jab,pbc->jpac",
                      np.array(reflections, dtype=np.int64), inv)
    start = np.eye(7, dtype=np.int64)
    charts = {_chart_name(start, inv): (start, 0)}
    conflict = False
    frontier = [(start, 0)]
    while frontier:
        nxt = []
        for g, i in frontier:
            for j in range(27):
                k, p = arr.entry(i, j)
                nb = g @ steps[j, p]
                if all(_old_sign_flip_of(prod.tolist()) is None
                       for prod in np.einsum("ab,pbc->pac", nb, inv)):
                    continue
                name = _chart_name(nb, inv)
                prev = charts.get(name)
                if prev is None:
                    charts[name] = (nb, k)
                    nxt.append((nb, k))
                elif prev[1] != k or not np.array_equal(prev[0], nb):
                    conflict = True
        frontier = nxt
    return charts, conflict


def test_development_keys_match_old_route():
    """Each copy the integer walk places at (k, a) sits at the chart
    diag(k, 1) sigma^a that the matrix walk reaches for that copy, on the
    published gluings and on mutated ones; the integer walk raises
    exactly when the matrix walk meets a copy twice with different
    charts."""
    powers = np.array(SIGMA_POWERS, dtype=np.int64)
    inv = np.array([SIGMA_POWERS[-t % 8] for t in range(8)], dtype=np.int64)
    rng = random.Random(2024)
    m1 = pg.published_pairing(1)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(m1, rng) for _ in range(20)]
    walked = 0
    for arr in arrays:
        charts, conflict = _neighbour_tests(arr)
        try:
            placements, _ = pg._walk(arr)
        except pg.DevelopmentConflict as exc:
            assert conflict and "reached twice" in str(exc)
            continue
        assert not conflict and len(charts) == len(placements) == 64
        walked += 1
        for k, (a, i) in placements.items():
            flip = pg.KElement.from_value(k, 6).matrix()
            chart = np.array(flip, dtype=np.int64) @ powers[a]
            old_chart, old_copy = charts[_chart_name(chart, inv)]
            assert np.array_equal(old_chart, chart) and old_copy == i
    assert walked > 9  # some mutants walk through and fail later


def test_chart_facts_of_the_integer_walk():
    """Conjugating a side reflection by a power of sigma reflects in the
    permuted side; side s < 6 reflects by flipping bit s, and every other
    side s lies on the reflected union's walls k . u_s, all in group
    s - 6; the powers of sigma are pairwise incongruent mod two."""
    ctx = pg.standard_context()
    reflections = [reflection_in(u) for u in ctx.polytope.normals]
    for a, g in enumerate(SIGMA_POWERS):
        g_inv = SIGMA_POWERS[-a % 8]
        for j, r in enumerate(reflections):
            assert mat_mul(mat_mul(g, r), g_inv) == \
                reflections[ctx.sigma_pows[a][j]]
    q6 = polytope.build_q(6)
    index = normal_index(q6)
    for s, (u, r) in enumerate(zip(ctx.polytope.normals, reflections)):
        if s < 6:
            assert r == pg.KElement.from_value(1 << s, 6).matrix()
            continue
        wall = index[u]
        for k, flip in enumerate(q6.flips):
            side = q6.sides[flip[wall]]
            assert side.group == s - 6
            assert side.normal == \
                mat_vec(pg.KElement.from_value(k, 6).matrix(), u)
    mod2 = {tuple(tuple(e % 2 for e in row) for row in g) for g in SIGMA_POWERS}
    assert len(mod2) == 8


def test_restriction():
    assert pg.restrict_code(tables.manifold_record(1).code).digits == \
        "EKB98LLG6R2"
    assert pg.restrict_code(tables.manifold_record(2).code).digits == \
        "EKB98LLG6R2"
    restricted = {pg.restrict_code(tables.manifold_record(m).code).digits
                  for m in range(3, 10)}
    assert restricted == {"2B7JB47JG81"}
    # the group map matched on the reflected unions: the Q6 group of the
    # Q5 group's unflipped side, with a zero first coordinate
    q5, q6 = polytope.build_q(5), polytope.build_q(6)
    assert pg._q5_group_map() == tuple(
        q6.sides[normal_index(q6)[(0,) + s.normal]].group
        for s in q5.sides if s.signs == (1,) * 5)


@pytest.mark.parametrize("n", [5, 6])
def test_flips_are_the_sign_flip_action(n):
    q = polytope.build_q(n)
    flips, index = q.flips, normal_index(q)
    assert len(flips) == 1 << n
    assert flips[0] == tuple(range(len(q.sides)))
    for a in range(1 << n):
        k = pg.KElement.from_value(a, n).matrix()
        assert flips[a] == tuple(index[mat_vec(k, s.normal)]
                                 for s in q.sides)
        for b in range(1 << n):
            assert tuple(flips[a][s] for s in flips[b]) == flips[a ^ b]


def test_builders_return_one_object_per_input():
    q6 = polytope.build_q(6)
    assert polytope.build_q(6) is q6
    assert polytope.build_q(6).faces is q6.faces
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


def test_sign_flip_table_pairs_every_side_consistently():
    """On every sign flip K and side s of the 252: the partner K(s) is in
    s's group and K(K(s)) = s, T_s T_K(s) = I, and T_s e1 = +-e1 on the
    walls with u_s[0] = 0.  These hold by construction (QSidePairing), so
    decoding and restriction check none of them."""
    e1 = (1,) + (0,) * 6
    for k in range(64):
        qsp = pg.decode_q_code(pg.ALPHABET[k] * 21)
        for s in qsp.q.sides:
            i, j = s.index, qsp.partner[s.index]
            assert qsp.values[i] == k
            assert qsp.q.sides[j].group == s.group
            assert qsp.partner[j] == i
            assert mat_mul(qsp.transforms[i], qsp.transforms[j]) == \
                identity(7)
            if s.normal[0] == 0:
                assert mat_vec(qsp.transforms[i], e1) in (
                    e1, tuple(-c for c in e1))


def test_orientability():
    for rec in tables.manifold_records():
        assert pg.orientability_of_code(rec.code) == rec.orientable
    assert pg.orientability_of_code("0" * 21) is False


def test_orientability_is_odd_weight_of_every_value():
    """A code is orientable iff each digit's sign flip reverses
    orientation: one value decides it alone, among digits that do."""
    for v in range(64):
        reverses = pg.KElement.from_value(v, 6).signs.count(-1) % 2 == 1
        assert pg.orientability_of_code(pg.ALPHABET[v] * 21) is reverses
        assert pg.orientability_of_code("1" * 20 + pg.ALPHABET[v]) is \
            reverses


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


@pytest.mark.parametrize("perm", [
    list(range(1, 9)), list(range(7)), [0] * 8,
    # equal as a set to 0..7, but not ints
    [0.0, 1, 2, 3, 4, 5, 6, 7], [False, True, 2, 3, 4, 5, 6, 7],
    # not iterable at all
    5, None,
])
def test_relabeled_rejects_non_permutations(perm):
    with pytest.raises(pg.PairingError,
                       match=re.escape(f"relabeling {perm} is not a perm")):
        pg.published_pairing(1).relabeled(perm)


@pytest.mark.parametrize("given", [
    pg.decode_q_code("EKB98LLG6R2"), [], None,
], ids=["QSidePairing", "list", "NoneType"])
def test_develop_needs_an_eight_copy_array(given):
    """Development, and so certification, refuses anything but an
    EightPPairing by its type."""
    name = type(given).__name__
    for run in (pg.develop, vf.certify_manifold):
        with pytest.raises(pg.PairingError, match=f"development needs an "
                                                  f"EightPPairing, not a "
                                                  f"{name}$"):
            run(given)


@pytest.mark.parametrize("code", [5, None, b"EKB98LLG6R2"],
                         ids=["int", "NoneType", "bytes"])
@pytest.mark.parametrize("run", [pg.orientability_of_code, pg.restrict_code,
                                 pg.decode_q_code, vf.build_code_matrix])
def test_a_code_is_a_str_or_a_pairing_code(run, code):
    """Every function that takes a code names the type of anything but a
    str or a PairingCode, and keeps its own wrong-length error."""
    name = type(code).__name__
    with pytest.raises(pg.PairingError,
                       match=f"code digits are a str, not a {name}$"):
        run(code)
    with pytest.raises(pg.PairingError, match="expected 21 .*got 20$"):
        run("0" * 20)


@pytest.mark.parametrize("digits", [5, ["E"] * 21, tuple("0" * 21)])
def test_pairing_code_digits_are_a_str(digits):
    with pytest.raises(pg.PairingError, match="code digits are a str, not "
                                              f"a {type(digits).__name__}$"):
        pg.PairingCode(6, digits)


def test_sigma_powers_checks_the_eighth_power():
    """sigma_powers raises unless sigma^8 is the identity; the standard
    context's side powers are its powers of sigma."""
    three_cycle = (1, 2, 0) + tuple(range(3, 27))
    with pytest.raises(AssertionError, match=r"sigma\^8 is not the identity"):
        pg.sigma_powers(three_cycle)
    ctx = pg.standard_context()
    assert ctx.sigma_pows == pg.sigma_powers(ctx.sigma)


def test_search_budget_zero():
    res = search_pairings(None, node_budget=0)
    assert res.solutions == ()
    assert res.budget_exhausted
    assert not res.complete


def test_search_leaf_reached_with_the_budget_spent():
    """With all 216 entries of m1 fixed the root is a leaf: a spent
    budget stops the search before it confirms the array, and the
    default budget confirms it without taking a node."""
    arr = pg.published_pairing(1)
    fixed = {(i, j): arr.entries[i][j] for i in range(8) for j in range(27)}
    res = search_pairings(fixed, node_budget=0)
    assert res.solutions == ()
    assert res.budget_exhausted and not res.complete
    assert res.nodes_used == 0
    res = search_pairings(fixed)
    assert [s.entries for s in res.solutions] == [arr.entries]
    assert res.nodes_used == 0


def test_search_infeasible_constraints():
    # entry and its forced partner disagree
    fixed = {(0, 0): (1, 0), (1, 0): (2, 0)}
    res = search_pairings(fixed, node_budget=100)
    assert res.infeasible
    assert res.solutions == ()


# m3 with its copy 3 put first also counts the crossings of the partner
# entry of each assignment: without them it takes 7,488
@pytest.mark.parametrize("mid, first, nodes",
                         [(1, 0, 9856), (9, 0, 5376), (3, 2, 7040)])
def test_search_from_first_row_rediscovers_published(mid, first, nodes):
    arr = pg.published_pairing(mid).relabeled(
        [(x - first) % 8 for x in range(8)])
    fixed = {(0, j): arr.entries[0][j] for j in range(27)}
    res = search_pairings(fixed)
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
    res = search_pairings(fixed, node_budget=10 ** 5)
    assert res.complete and not res.budget_exhausted
    assert res.nodes_used == 256
    assert res.solutions == ()
    assert res.infeasible


def _m9_row_with_negative_power() -> dict:
    arr = pg.published_pairing(9)
    fixed = {(0, j): arr.entries[0][j] for j in range(27)}
    fixed[(0, 1)] = (0, -1)
    return fixed


@pytest.mark.parametrize("fixed, named", [
    ({(0, 0): (9, 0)}, "(9, 0)"),
    ({(8, 0): (0, 0)}, "(8, 0)"),
    ({(0, 27): (0, 0)}, "(0, 27)"),
    ({(1.0, 0): (0, 0)}, "(1.0, 0)"),
    ({(0, 0): (1.0, 0)}, "(1.0, 0)"),
    (_m9_row_with_negative_power(), "(0, -1)"),
    # not a dict at all
    ([((0, 0), (1, 0))], "fixed [((0, 0), (1, 0))] is not None or a dict"),
    ("x", "fixed 'x' is not None or a dict"),
    (5, "fixed 5 is not None or a dict"),
])
def test_search_rejects_bad_fixed_entries(fixed, named):
    with pytest.raises(ValueError, match=re.escape(named)) as exc:
        search_pairings(fixed, node_budget=10)
    assert isinstance(exc.value, pg.PairingError)
    assert isinstance(exc.value, CoxglueError)


@pytest.mark.parametrize("budgets, named", [
    ({"node_budget": "5"}, "node_budget '5'"),
    ({"node_budget": 2.5}, "node_budget 2.5"),
    ({"node_budget": -1}, "node_budget -1"),
    ({"node_budget": True}, "node_budget True"),
    ({"time_budget_s": math.nan}, "time_budget_s nan"),
    ({"time_budget_s": math.inf}, "time_budget_s inf"),
    ({"time_budget_s": -0.5}, "time_budget_s -0.5"),
    ({"time_budget_s": "1"}, "time_budget_s '1'"),
    ({"time_budget_s": False}, "time_budget_s False"),
    ({"max_solutions": "3"}, "max_solutions '3'"),
    ({"max_solutions": 2.5}, "max_solutions 2.5"),
    ({"max_solutions": True}, "max_solutions True"),
    ({"max_solutions": 0}, "max_solutions 0"),
], ids=["str-nodes", "float-nodes", "negative-nodes", "bool-nodes",
        "nan-seconds", "inf-seconds", "negative-seconds", "str-seconds",
        "bool-seconds", "str-solutions", "float-solutions", "bool-solutions",
        "zero-solutions"])
def test_search_rejects_bad_budgets_before_any_work(budgets, named,
                                                    monkeypatch):
    from coxglue import verify as vf

    def no_work():
        raise AssertionError("the search started work")

    monkeypatch.setattr(vf, "lattice_context", no_work)
    with pytest.raises(pg.PairingError, match=re.escape(named)):
        search_pairings(None, **budgets)


def _first_row(mid: int, seed: int | None) -> dict:
    """Row 1 of the gluing with its copies shuffled by the seed, or with
    copy 3 put first when the seed is None."""
    perm = [(x - 2) % 8 for x in range(8)]
    if seed is not None:
        perm = list(range(8))
        random.Random(seed).shuffle(perm)
    arr = pg.published_pairing(mid).relabeled(perm)
    return {(0, j): arr.entries[0][j] for j in range(27)}


def _infeasible_row() -> dict:
    """Row 1 of m1 with one twist power changed: the 256-node tree."""
    row = pg.published_pairing(1).entries[0]
    fixed = {(0, j): e for j, e in enumerate(row)}
    k, p = fixed[(0, 4)]
    fixed[(0, 4)] = (k, (p + 1) % 8)
    return fixed


@pytest.mark.parametrize("fixed, budget, solved", [
    (_first_row(1, 11), 10 ** 6, True),
    (_first_row(1, 12), 10 ** 6, True),
    (_first_row(9, 11), 10 ** 6, True),
    (_first_row(9, 12), 10 ** 6, True),
    # the one of these that needs the partner entry's crossings
    (_first_row(3, None), 10 ** 6, True),
    (_infeasible_row(), 10 ** 5, False),
    (None, 2000, False),
    (None, 10000, False),
], ids=["m1-11", "m1-12", "m9-11", "m9-12", "m3-copy3", "infeasible",
        "probe-2000", "probe-10000"])
def test_search_matches_the_oracle(fixed, budget, solved):
    """Counting crossings at each union and scoring slots from one pass
    over the vertex instances prune, choose and find exactly what
    counting them after the unions and scoring by finds does."""
    res = search_pairings(fixed, node_budget=budget)
    assert res == oracle_search(fixed, node_budget=budget)
    assert res.complete == (fixed is not None)
    assert bool(res.solutions) == solved


def test_search_pruning_agrees_with_certification(monkeypatch):
    """With all 216 entries fixed and the confirming check stubbed out,
    the search keeps an array exactly when its pruning passes it, and
    that must be exactly when the face pass certifies it proper."""
    from coxglue import verify as vf
    face_cycles_proper = vf.face_cycles_proper
    monkeypatch.setattr(vf, "face_cycles_proper",
                        lambda arr: vf.PropernessCertificate(True, {}))
    # seed 4 draws a mutant that fails by holonomy (the ninth) among
    # mutants that fail by cycle length
    rng = random.Random(4)
    arrays = [pg.published_pairing(mid) for mid in range(1, 10)]
    arrays += [pg.mutated_pairing(arrays[rng.randrange(9)], rng)
               for _ in range(20)]
    for n, arr in enumerate(arrays):
        fixed = {(i, j): arr.entries[i][j] for i in range(8) for j in range(27)}
        res = search_pairings(fixed)
        assert res.complete and res.nodes_used == 0
        proper = face_cycles_proper(arr).proper
        assert proper == (n < 9)
        assert [s.entries for s in res.solutions] == \
            ([arr.entries] if proper else [])


def test_decode_random_codes_validate():
    rng = random.Random(77)
    for _ in range(10):
        code = "".join(pg.ALPHABET[rng.randrange(64)] for _ in range(21))
        qsp = pg.decode_q_code(code)
        groups = {}
        for s in qsp.q.sides:
            groups.setdefault(s.group, set()).add(qsp.values[s.index])
        assert all(len(ks) == 1 for ks in groups.values())
