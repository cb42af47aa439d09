"""Command-line interface: build polytopes, decode and develop pairing
codes, certify the nine glued manifolds, compute homology, and run the
full reproduction report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import homology as hm
from . import pairing as pg
from . import tables
from . import verify as vf
from .coxeter import constants
from .errors import CoxglueError
from .polytope import build_polytope, build_q, face_lattice
from .search import search_pairings

JOBS_ENV = "COXGLUE_JOBS"


class EnvSettingError(CoxglueError, ValueError):
    """An environment variable holds a value the command cannot use."""


class InputError(CoxglueError, ValueError):
    """The command was given no gluing it can read."""


def _positive_int(raw: str) -> int:
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a positive integer")
    return int(raw)


def _nonnegative_int(raw: str) -> int:
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a non-negative integer")
    return int(raw)


def _seconds(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a finite number of seconds >= 0")
    return value


def _jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise EnvSettingError(f"{JOBS_ENV}={exc}") from None


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=1))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _load_array(args) -> pg.EightPPairing:
    if getattr(args, "manifold", None):
        return pg.published_pairing(args.manifold)
    if getattr(args, "file", None):
        try:
            with open(args.file, encoding="utf-8") as fh:
                return pg.parse_8p_pairing(fh.read())
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.file} is not UTF-8 text ({exc.reason}"
                             f" at byte {exc.start})") from None
    raise InputError("need --manifold N or an array file")


def cmd_build(args) -> int:
    if args.doubled:
        q = build_q(args.dim)
        dims = [d for d, _ in q.faces]
        payload = {"sides": len(q.sides), "groups": q.n_groups,
                   "large_sides": sum(1 for s in q.sides if s.large),
                   **{f"faces_{d}": dims.count(d) for d in range(q.dim + 1)}}
    else:
        poly = build_polytope(args.dim)
        lat = face_lattice(poly)
        payload = dict(lat.census())
        if args.lattice:
            payload["faces"] = [
                {"dim": f.dim, "sides": sorted(s + 1 for s in f.sides),
                 "vertices": [v + 1 for v in lat.vertex_ids(f)],
                 "ideal_point": f.ideal_point, "edge_kind": f.edge_kind}
                for f in lat.faces]
    _emit(payload, args.json)
    return 0


def cmd_decode(args) -> int:
    qsp = pg.decode_q_code(args.code)
    payload = {
        "code": args.code,
        "dim": qsp.q.dim,
        "orientable": pg.orientability_of_code(qsp.code)
        if qsp.q.dim == 6 else None,
        "partners": [p + 1 for p in qsp.partner],
        "transformations": [[list(r) for r in g] for g in qsp.transforms],
    }
    _emit(payload, args.json)
    return 0


def cmd_develop(args) -> int:
    arr = _load_array(args)
    dev = pg.develop(arr)
    _emit({"code": dev.code.digits}, args.json)
    return 0


def cmd_restrict(args) -> int:
    _emit({"code": pg.restrict_code(args.code).digits}, args.json)
    return 0


def cmd_verify(args) -> int:
    arr = _load_array(args)
    cert = vf.face_cycles_proper(arr)
    _emit(cert.to_json(), args.json)
    return 0 if cert.proper else 1


def cmd_constants(args) -> int:
    c = constants(args.dim)
    payload = {
        "dim": c.dim,
        "index": c.index_gamma2,
        "symmetry_order": c.symmetry_order,
        "vol_polytope": str(c.vol_polytope) if c.vol_polytope else None,
        "vol_polytope_numeric": c.vol_polytope_numeric,
        "covolume": str(c.covolume) if c.covolume else None,
        "covolume_numeric": c.covolume_numeric,
        "chi_congruence": str(c.euler_char_gamma2),
        "chi_full_group": str(c.euler_char_full),
    }
    _emit(payload, args.json)
    return 0


def _encoded(group: hm.HomologyGroups, **powers) -> str | None:
    """The group's one-digit-per-count code, or None where it has none."""
    try:
        return group.encode(**powers)
    except hm.ComplexError:
        return None


def _homology_payload(mid: int | None, arr: pg.EightPPairing,
                      with_complex: bool) -> dict:
    cx = hm.build_quotient_complex(arr)
    groups = hm.homology_groups(cx)
    secs = hm.cusp_sections(cx)
    payload = {
        "euler_characteristic": cx.euler_characteristic(),
        "cell_counts": {str(d): c for d, c in cx.counts().items()},
        "homology": {f"H{d}": str(g) for d, g in enumerate(groups)},
        "homology_encoded": [_encoded(groups[d]) for d in range(1, 6)],
        "cusp_components": len(secs),
        "cusp_homology": sorted(
            ([_encoded(sec[d], powers=(2, 4)) for d in range(1, 6)]
             for sec in secs),
            key=lambda codes: [c or "" for c in codes]),
    }
    if mid is not None:
        rec = tables.manifold_record(mid)
        payload["matches_record"] = (
            payload["homology_encoded"] == list(rec.homology)
            and payload["cusp_components"] == rec.cusps
            and sorted(tuple(x) for x in payload["cusp_homology"])
            == sorted(tuple(r) for r in rec.cusp_homology))
    if with_complex:
        payload["complex"] = cx.to_json()
    return payload


def cmd_homology(args) -> int:
    mid = args.manifold if args.manifold else None
    arr = _load_array(args)
    payload = _homology_payload(mid, arr, args.complex)
    _emit(payload, args.json)
    return 1 if mid is not None and not payload["matches_record"] else 0


def certify_one(mid: int) -> dict:
    """Full certification of a published manifold against its record."""
    rec = tables.manifold_record(mid)
    arr = pg.published_pairing(mid)
    cert = vf.certify_manifold(arr, rec.code)
    hom = _homology_payload(mid, arr, False)
    expected_extension = "certified" if mid in (1, 3, 4, 5, 6) else "inconclusive"
    checks = {
        "develops_to_code": cert.code == rec.code,
        "proper": cert.proper.proper,
        "orientable_matches": cert.orientable == rec.orientable,
        "base_torsion_free_full": cert.torsion_full.h_torsion_free,
        "base_torsion_free_reduced": cert.torsion_reduced.h_torsion_free,
        "extension_status_matches":
            cert.extension["status"] == expected_extension,
        "euler_is_minus_one": cert.euler_characteristic == Fraction(-1),
        "homology_matches": hom["matches_record"],
    }
    return {
        "id": mid,
        "ok": all(checks.values()),
        "checks": checks,
        "certificate": cert.to_json(),
        "homology": {k: hom[k] for k in
                     ("homology_encoded", "cusp_components", "cusp_homology")},
    }


def cmd_certify(args) -> int:
    if args.manifold:
        payload = certify_one(args.manifold)
    else:
        arr = _load_array(args)
        cert = vf.certify_manifold(arr, args.code)
        payload = {"ok": cert.proper.proper, "certificate": cert.to_json()}
    _emit(payload, args.json)
    return 0 if payload["ok"] else 1


def cmd_search(args) -> int:
    fixed = {}
    if args.fix_rows:
        arr = pg.published_pairing(args.fix_rows_from or 1)
        for i in range(args.fix_rows):
            for j in range(27):
                fixed[(i, j)] = arr.entries[i][j]
    res = search_pairings(fixed or None, node_budget=args.budget,
                          time_budget_s=args.time_budget,
                          max_solutions=args.max_solutions)
    _emit(res.to_json(), args.json)
    return 0


def _report_static_items() -> dict[str, bool]:
    def polytope6_census() -> bool:
        c = face_lattice(build_polytope(6)).census()
        return (c["actual_vertices"], c["ideal_vertices"], c["ray_edges"],
                c["line_edges"], c["faces_2"], c["faces_3"], c["faces_4"],
                c["sides"]) == (72, 27, 432, 216, 1080, 720, 216, 27)

    def group_constants() -> bool:
        c6 = constants(6)
        c8 = constants(8)
        return (str(constants(2).vol_polytope) == "pi/2"
                and str(constants(4).vol_polytope) == "pi^2/12"
                and str(c6.vol_polytope) == "pi^3/15"
                and str(c8.vol_polytope) == "136*pi^4/105"
                and c6.index_gamma2 == 51840
                and c6.euler_char_gamma2 == Fraction(-1, 8)
                and c8.euler_char_gamma2 == Fraction(17, 4))

    def digit_codec() -> bool:
        return all(pg.decode_digit(ch).signs == row[:6]
                   and pg.encode_digit(pg.decode_digit(ch)) == ch
                   for ch, row in tables.digit_signs().items())

    def certification_tables() -> bool:
        from .gf2 import Gf2Matrix
        cmx = vf.build_code_matrix(tables.manifold_record(1).code)
        action = vf.pair_space_action(cmx)
        return (cmx.matrix.row_list()
                == [list(r) for r in tables.code_matrix_m1()]
                and action.bits
                == Gf2Matrix.from_rows(tables.sideperm_action_m1()).bits
                and (action.power(4) + Gf2Matrix.identity(21)).bits
                == Gf2Matrix.from_rows(tables.order4_action_m1()).bits
                and set(vf.torsion_free_H(cmx, "reduced").representative_sets)
                == set(tables.independent_sets_m1()))

    def restriction() -> bool:
        digits = [pg.restrict_code(tables.manifold_record(m).code).digits
                  for m in (1, *range(3, 10))]
        return digits[0] == "EKB98LLG6R2" and len(set(digits[1:])) == 1

    items: dict[str, bool] = {}
    for check in (polytope6_census, group_constants, digit_codec,
                  certification_tables, restriction):
        try:
            items[check.__name__] = check()
        except Exception as exc:
            items[check.__name__] = False
            print(f"coxglue report: {check.__name__} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return items


def cmd_report(args) -> int:
    jobs = _jobs()
    items = _report_static_items()
    mids = list(range(1, 10))
    if jobs > 1:
        # imported here: the import costs every other command 20-30 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(mids))) as pool:
            results = list(pool.map(certify_one, mids))
    else:
        results = [certify_one(m) for m in mids]
    matrix = {f"manifold_{res['id']}": res["checks"] for res in results}
    items.update((f"manifold_{res['id']}", res["ok"]) for res in results)
    ok = all(items.values())
    payload = {"pass": ok, "items": items, "matrix": matrix}
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        width = max(len(k) for k in items)
        for key, val in items.items():
            print(f"{key:<{width}}  {'PASS' if val else 'FAIL'}")
        print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _add_gluing_input(p: argparse.ArgumentParser) -> None:
    """An array file or a published manifold, not both."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("file", nargs="?")
    group.add_argument("--manifold", type=int, choices=range(1, 10))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coxglue",
        description="exact reconstruction and certification of right-angled "
                    "hyperbolic polytope gluings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a polytope and its face lattice")
    p.add_argument("dim", type=int, choices=range(2, 8), metavar="DIM")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--doubled", action="store_true",
                       help="the reflected union instead of the base polytope")
    group.add_argument("--lattice", action="store_true",
                       help="include every face of the base polytope")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decode", help="decode a side-pairing code")
    p.add_argument("code")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("develop",
                       help="develop an eight-copy gluing into its code")
    _add_gluing_input(p)
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("restrict",
                       help="restrict a code to the cross-section")
    p.add_argument("code")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("verify", help="check properness of a gluing")
    _add_gluing_input(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="full certification of a gluing")
    _add_gluing_input(p)
    p.add_argument("--code", help="expected code for a gluing file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("homology", help="homology of a glued manifold")
    _add_gluing_input(p)
    p.add_argument("--complex", action="store_true",
                   help="include the full cell complex")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("constants", help="exact group constants")
    p.add_argument("dim", type=int, choices=range(2, 9), metavar="DIM")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("search", help="search for symmetry-restricted gluings")
    p.add_argument("--budget", type=_nonnegative_int, default=10 ** 6)
    p.add_argument("--time-budget", type=_seconds, default=None)
    p.add_argument("--max-solutions", type=_positive_int, default=None)
    p.add_argument("--fix-rows", type=int, default=0, choices=range(9),
                   help="seed the first rows from a published gluing")
    p.add_argument("--fix-rows-from", type=int, choices=range(1, 10),
                   help="the published gluing to fix rows from (default 1)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="run the full reproduction report")
    p.set_defaults(func=cmd_report)

    for name, sp in sub.choices.items():
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    args = parser.parse_args(argv)
    if (args.command == "certify" and args.code is not None
            and args.file is None):
        sub.choices["certify"].error("argument --code: " + (
            "not allowed with argument --manifold" if args.manifold
            else "needs an array file"))
    if args.command == "search" and args.fix_rows_from and not args.fix_rows:
        sub.choices["search"].error(
            "argument --fix-rows-from: needs --fix-rows 1 or more")
    try:
        return args.func(args)
    except (CoxglueError, OSError) as exc:
        # bad input or data: one line on stderr, never a traceback
        print(f"coxglue {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
