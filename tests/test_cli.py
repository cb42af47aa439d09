from __future__ import annotations

import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import coxglue
from coxglue import cli
from coxglue import homology as hm
from coxglue import pairing as pg
from coxglue import tables
from coxglue import verify as vf
from coxglue.cli import EnvSettingError, _homology_payload, _jobs, main
from coxglue.errors import CoxglueError
from coxglue.search import search_pairings

import quotient_assembly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_json_deterministic(capsys):
    code1, out1 = run(capsys, "constants", "6", "--json")
    code2, out2 = run(capsys, "constants", "6", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["index"] == 51840
    assert payload["vol_polytope"] == "pi^3/15"
    assert payload["chi_congruence"] == "-1/8"


def test_constants_dim2(capsys):
    code, out = run(capsys, "constants", "2", "--json")
    payload = json.loads(out)
    assert payload["vol_polytope"] == "pi/2"
    assert payload["chi_congruence"] == "-1/4"


def test_constants_dim7_numeric(capsys):
    code, out = run(capsys, "constants", "7", "--json")
    payload = json.loads(out)
    assert payload["vol_polytope"] is None
    assert abs(payload["vol_polytope_numeric"] - 7.911556413928843) < 1e-12


def test_build(capsys):
    code, out = run(capsys, "build", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sides"] == 27 and payload["actual_vertices"] == 72


def test_build_doubled(capsys):
    code, out = run(capsys, "build", "6", "--doubled", "--json")
    payload = json.loads(out)
    assert payload["sides"] == 252 and payload["faces_0"] == 1344


def test_decode(capsys):
    code, out = run(capsys, "decode", tables.manifold_record(1).code, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orientable"] is True
    assert payload["partners"][0] == 3
    assert len(payload["transformations"]) == 252


def test_develop(capsys):
    code, out = run(capsys, "develop", "--manifold", "3", "--json")
    assert code == 0
    assert json.loads(out)["code"] == tables.manifold_record(3).code


def test_develop_from_file(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    path.write_text(tables.pairing_array_text(1))
    code, out = run(capsys, "develop", str(path), "--json")
    assert code == 0
    assert json.loads(out)["code"] == tables.manifold_record(1).code


def test_restrict(capsys):
    code, out = run(capsys, "restrict", tables.manifold_record(1).code)
    assert code == 0
    assert "EKB98LLG6R2" in out


def test_verify(capsys):
    code, out = run(capsys, "verify", "--manifold", "1", "--json")
    assert code == 0
    assert json.loads(out)["proper"] is True


def test_search_budget_zero(capsys):
    code, out = run(capsys, "search", "--budget", "0", "--json")
    payload = json.loads(out)
    assert payload["budget_exhausted"] is True
    assert payload["solutions"] == []
    code, out = run(capsys, "search", "--budget", "0", "--time-budget", "0",
                    "--json")
    assert code == 0 and json.loads(out)["budget_exhausted"] is True


@pytest.mark.parametrize("option, value", [("--budget", "-5"),
                                           ("--budget", "1.5"),
                                           ("--budget", "many"),
                                           ("--time-budget", "nan"),
                                           ("--time-budget", "-1"),
                                           ("--time-budget", "inf"),
                                           ("--time-budget", "soon")])
def test_search_rejects_bad_budgets(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", option, value, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert option in captured.err and not captured.out


def test_usage_error_exit_code(tmp_path, capsys):
    """Out-of-range and conflicting inputs are usage errors that name
    the options: a file or --manifold, --code only with a file,
    --fix-rows-from only with rows to fix, and no --lattice of the
    reflected union."""
    path = _array_file(tmp_path, pg.published_pairing(1).entries)
    cases = [(["certify", "--manifold", "10"], ["--manifold"]),
             (["certify", "--manifold", "1", "--code", "ABC"],
              ["--code", "--manifold"]),
             (["certify", "--code", "ABC"], ["--code", "array file"]),
             (["search", "--fix-rows-from", "3"],
              ["--fix-rows-from", "--fix-rows "]),
             (["search", "--fix-rows", "0", "--fix-rows-from", "9"],
              ["--fix-rows-from", "--fix-rows "]),
             (["build", "5", "--doubled", "--lattice"],
              ["--doubled", "--lattice"])]
    cases += [([cmd, path, "--manifold", "2"], ["file", "--manifold"])
              for cmd in ("develop", "verify", "certify", "homology")]
    for argv, names in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert all(name in captured.err for name in names), captured.err


def test_search_fixes_at_most_eight_rows(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--fix-rows", "9", "--budget", "0"])
    assert exc.value.code == 2
    assert "--fix-rows" in capsys.readouterr().err
    code, out = run(capsys, "search", "--fix-rows", "8", "--budget", "0",
                    "--json")
    assert code == 0 and json.loads(out)["budget_exhausted"] is True


def test_search_wants_at_least_one_solution(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--fix-rows", "8", "--max-solutions", "0"])
    assert exc.value.code == 2
    assert "--max-solutions" in capsys.readouterr().err
    with pytest.raises(ValueError, match="max_solutions") as exc:
        search_pairings(None, max_solutions=0)
    assert isinstance(exc.value, pg.PairingError)
    assert isinstance(exc.value, CoxglueError)
    code, out = run(capsys, "search", "--fix-rows", "8", "--max-solutions",
                    "1", "--json")
    assert code == 0 and len(json.loads(out)["solutions"]) == 1


def _array_file(tmp_path, rows):
    path = tmp_path / "arr.txt"
    path.write_text("\n".join(" ".join(f"{k + 1}^{p}" for k, p in row)
                              for row in rows))
    return str(path)


def _short_row_file(tmp_path):
    rows = list(pg.published_pairing(1).entries)
    rows[3] = rows[3][:2]
    return _array_file(tmp_path, rows)


def _mutated_file(tmp_path):
    mut = pg.mutated_pairing(pg.published_pairing(1), random.Random(31))
    return _array_file(tmp_path, mut.entries)


def _non_utf8_file(tmp_path):
    path = tmp_path / "arr.txt"
    path.write_bytes(b"\xff\xfe" + tables.pairing_array_text(1).encode())
    return str(path)


@pytest.mark.parametrize("argv, what", [
    (["decode", "XYZ"], "digits"),
    (["restrict", "0000"], "digits"),
    (["verify", "/nonexistent"], "No such file"),
    (["verify", _short_row_file], "row has 2 entries"),
    (["homology", _mutated_file], "not proper"),
    (["develop"], "need --manifold N or an array file"),
    (["build", "4", "--doubled"], "dimension 5 or 6"),
    (["build", "7", "--doubled"], "dimension 5 or 6"),
    (["decode", "0" * 20], "expected 21 or 11 digits, got 20"),
    (["develop", _non_utf8_file], "arr.txt is not UTF-8 text"),
])
def test_bad_input_is_one_line_and_exit_2(tmp_path, capsys, argv, what):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and what in err
    assert err.startswith(f"coxglue {argv[0]}: ")


@pytest.fixture
def corrupted_m3(monkeypatch):
    """The manifest holds a wrong checksum for the array file of m3."""
    manifest = dict(tables._manifest())
    manifest["arrays/m3.txt"] = "0" * 64
    monkeypatch.setattr(tables, "_manifest", lambda: manifest)
    tables._read.cache_clear()
    yield
    tables._read.cache_clear()


def test_corrupted_data_is_one_line_and_exit_2(corrupted_m3, capsys):
    code = main(["develop", "--manifold", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "coxglue develop: checksum mismatch for arrays/m3.txt\n"


# each exception class of coxglue and its ValueError or RuntimeError parent
PARENTS = {
    "CertificationError": RuntimeError, "ComplexError": RuntimeError,
    "DataIntegrityError": RuntimeError, "DevelopmentConflict": RuntimeError,
    "DimensionError": ValueError, "DimensionMismatch": ValueError,
    "EnvSettingError": ValueError, "InputError": ValueError,
    "InvarianceError": RuntimeError, "LatticeError": RuntimeError,
    "ManifoldIdError": ValueError, "OrbitBoundExceeded": RuntimeError,
    "PairingError": ValueError,
}


def test_every_exception_class_has_the_one_base():
    """The command line catches CoxglueError and OSError only, so every
    exception class of coxglue derives from CoxglueError and keeps its
    parent; one DimensionMismatch serves gf2 and lorentz."""
    classes: dict[str, set[type]] = {}
    for info in pkgutil.iter_modules(coxglue.__path__):
        module = importlib.import_module(f"coxglue.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("coxglue.")):
                classes.setdefault(name, set()).add(obj)
    assert classes.pop("CoxglueError") == {CoxglueError}
    assert sorted(classes) == sorted(PARENTS)
    for name, found in classes.items():
        (cls,) = found
        assert issubclass(cls, CoxglueError) and issubclass(cls, PARENTS[name])


def test_certify_manifold(capsys):
    code, out = run(capsys, "certify", "--manifold", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"]["extension_status_matches"] is True
    assert payload["homology"]["homology_encoded"] == \
        list(tables.manifold_record(3).homology)


def test_certify_checks_properness_once(capsys):
    """One eight-copy face pass per gluing: for `certify --manifold 5`,
    and for the benchmark's order, certification and then the complex
    of a relabeled gluing."""
    vf._cycles_eight.cache_clear()
    code, _ = run(capsys, "certify", "--manifold", "5", "--json")
    assert code == 0
    assert vf._cycles_eight.cache_info().misses == 1
    perm = random.Random(7).sample(range(8), 8)
    arr = pg.published_pairing(7).relabeled(perm)
    vf.certify_manifold(arr, tables.manifold_record(7).code)
    hm.build_quotient_complex(arr)
    assert vf._cycles_eight.cache_info().misses == 2


def test_serialized_complex_reads_back(capsys):
    """The boundaries that `homology --complex --json` writes form a
    chain complex (boundary squared zero) on the counted cells."""
    code, out = run(capsys, "homology", "--manifold", "1", "--complex",
                    "--json")
    assert code == 0
    payload = json.loads(out)
    cx = payload["complex"]
    dims = [c["dim"] for c in cx["cells"]]
    assert [c["index"] for c in cx["cells"]] == list(range(len(dims)))
    assert Counter(map(str, dims)) == cx["counts"] == payload["cell_counts"]
    bd = {int(d): {(r, c): v for r, c, v in entries}
          for d, entries in cx["boundaries"].items()}
    assert set(bd) == set(range(1, 7))
    for d, mat in bd.items():
        assert all(v and dims[r] == d - 1 and dims[c] == d
                   for (r, c), v in mat.items())
    cell_id = {key: i for i, key in enumerate(hm.truncated_cells().cells)}
    # the export flags boundary cells but does not name their cusps
    cells = [hm.QuotientCell(c["index"], c["dim"], c["copy"] - 1,
                             cell_id[tuple(c["cell"])],
                             0 if c["boundary"] else -1, c["orbit"])
             for c in cx["cells"]]
    quotient_assembly.check_dd_zero(cells, bd)


def test_homology_payload_rejects_improper_array():
    mut = pg.mutated_pairing(pg.published_pairing(1), random.Random(31))
    with pytest.raises(hm.ComplexError):
        _homology_payload(None, mut, False)


def test_homology_prints_groups_the_encoding_cannot_hold(
        tmp_path, capsys, monkeypatch):
    """H2 = Z + 10 Z/2 + Z/4, found by the unconstrained search, has a
    count above 9, and a cusp's Z/8 is outside its encoding: both are
    printed, encoded as null, and the command succeeds."""
    homology_groups, cusp_sections = hm.homology_groups, hm.cusp_sections
    big = hm.HomologyGroups(1, (2,) * 10 + (4,))
    eight = hm.HomologyGroups(0, (8,))
    monkeypatch.setattr(hm, "homology_groups", lambda cx: [
        big if d == 2 else g for d, g in enumerate(homology_groups(cx))])
    monkeypatch.setattr(hm, "cusp_sections", lambda cx: [
        sec[:1] + [eight] + sec[2:] if i == 0 else sec
        for i, sec in enumerate(cusp_sections(cx))])
    path = tmp_path / "arr.txt"
    path.write_text(tables.pairing_array_text(1))
    code, out = run(capsys, "homology", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"]["H2"] == str(big)
    rec = tables.manifold_record(1)
    assert payload["homology_encoded"] == \
        [None if d == 2 else c for d, c in enumerate(rec.homology, 1)]
    assert payload["cusp_components"] == rec.cusps
    cusps = payload["cusp_homology"]
    assert sum(c[0] is None for c in cusps) == 1
    assert all(None not in c[1:] for c in cusps)
    assert sorted(c[1:] for c in cusps) == \
        sorted(list(r[1:]) for r in rec.cusp_homology)


@pytest.mark.parametrize("jobs, workers", [("100000", 9), ("2", 2)])
def test_report_pool_has_at_most_one_worker_per_gluing(capsys, monkeypatch,
                                                       jobs, workers):
    """COXGLUE_JOBS above the nine gluings starts nine workers; a fake
    pool records the size asked for and maps serially."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_report_static_items", dict)
    monkeypatch.setattr(cli, "certify_one",
                        lambda mid: {"id": mid, "ok": True, "checks": {}})
    monkeypatch.setenv("COXGLUE_JOBS", jobs)
    code, out = run(capsys, "report", "--json")
    assert code == 0 and asked == [workers]
    assert json.loads(out)["items"] == {f"manifold_{m}": True
                                        for m in range(1, 10)}


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only `report` with COXGLUE_JOBS above 1 uses the process pool, so
    importing the CLI does not load concurrent.futures."""
    src = str(Path(coxglue.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys, coxglue.cli; "
              "assert 'concurrent.futures' not in sys.modules")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-3"])
def test_report_rejects_bad_jobs(capsys, monkeypatch, value):
    monkeypatch.setenv("COXGLUE_JOBS", value)
    with pytest.raises(EnvSettingError, match="COXGLUE_JOBS"):
        _jobs()
    code = main(["report"])
    out, err = capsys.readouterr()
    assert code != 0 and out == ""
    assert err.count("\n") == 1
    assert "COXGLUE_JOBS" in err and repr(value) in err


def test_report_names_a_static_item_that_raises(capsys, monkeypatch):
    def broken(code):
        raise RuntimeError("no cross-section")
    monkeypatch.setattr(pg, "restrict_code", broken)
    items = cli._report_static_items()
    assert items == {"polytope6_census": True, "group_constants": True,
                     "digit_codec": True, "certification_tables": True,
                     "restriction": False}
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("coxglue report: restriction raised RuntimeError: "
                   "no cross-section\n")


def test_report_all_pass(capsys, monkeypatch):
    monkeypatch.setenv("COXGLUE_JOBS", "1")
    code, out = run(capsys, "report", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(payload["items"].values())
    assert set(payload["matrix"]) == {f"manifold_{i}" for i in range(1, 10)}
    for checks in payload["matrix"].values():
        assert all(checks.values())
