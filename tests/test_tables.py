from __future__ import annotations

import hashlib
import json
from importlib import resources

import pytest

from coxglue import tables


def test_manifest_covers_every_data_file():
    root = resources.files("coxglue") / "data"
    manifest = json.loads((root / "manifest.json").read_text())
    found = set()
    for entry in root.rglob("*"):
        if entry.is_file() and entry.name != "manifest.json":
            rel = str(entry.relative_to(root))
            found.add(rel)
            want = manifest[rel]
            got = hashlib.sha256(entry.read_bytes()).hexdigest()
            assert got == want, rel
    assert found == set(manifest)


def test_loaders():
    assert len(tables.p6_side_normals()) == 27
    actual, ideal = tables.p6_vertices()
    assert len(actual) == 72 and len(ideal) == 27
    assert len(tables.digit_signs()) == 64
    recs = tables.manifold_records()
    assert len(recs) == 9
    assert recs[0].code == "MVStfMSJGgJgWDtD2fV84"
    assert recs[0].orientable and not recs[2].orientable
    assert all(r.cusps == 5 for r in recs)
    assert all(len(r.homology) == 5 for r in recs)
    assert all(len(r.cusp_homology) == 5 for r in recs)
    assert len(tables.independent_sets_m1()) == 36
    assert frozenset(range(6)) in tables.independent_sets_m1()


def test_record_range_guard():
    with pytest.raises(ValueError):
        tables.manifold_record(0)
    with pytest.raises(ValueError):
        tables.manifold_record(10)
    with pytest.raises(ValueError):
        tables.pairing_array_text(10)


@pytest.mark.parametrize("mid", [True, False, 2.5, "1", None, 0, 10])
def test_manifold_ids_are_ints_from_1_to_9(mid, monkeypatch):
    """A bool or anything but an int from 1 to 9 is refused, by a typed
    error that names it, before any file is opened: True once read as
    record 1, and published_pairing(True) looked for mTrue.txt."""
    from coxglue import pairing as pg
    monkeypatch.setattr(tables, "_read", lambda name: pytest.fail(name))
    monkeypatch.setattr(tables, "manifold_records",
                        lambda: pytest.fail("records read"))
    for read in (tables.manifold_record, tables.pairing_array_text,
                 pg.published_pairing):
        with pytest.raises(tables.ManifoldIdError,
                           match=f"^manifold id {mid!r} is not an int"):
            read(mid)


def test_checksum_guard(monkeypatch):
    import coxglue.tables as t
    real = t._manifest()
    tampered = dict(real)
    tampered["p6_side_normals.txt"] = "0" * 64
    monkeypatch.setattr(t, "_manifest", lambda: tampered)
    t._read.cache_clear()
    with pytest.raises(t.DataIntegrityError):
        t._read("p6_side_normals.txt")
    monkeypatch.undo()
    t._read.cache_clear()


@pytest.mark.parametrize("reader, name, edit, message", [
    (tables.p6_side_normals, "p6_side_normals.txt",
     lambda text: text.rstrip("\n").rsplit("\n", 1)[0],
     "p6_side_normals.txt: expected 27 rows"),
    (tables.sideperm_action_m1, "m1_sideperm_action.txt",
     lambda text: text.replace(" 0", "", 1),
     "m1_sideperm_action.txt: expected 21 rows of 21 entries"),
    (tables.code_matrix_m1, "m1_code_matrix.txt",
     lambda text: text.replace("1", "x", 1),
     "m1_code_matrix.txt: invalid literal for int()"),
    (tables.digit_signs, "digit_signs.txt",
     lambda text: text.replace("1", "x", 1),
     "digit_signs.txt: invalid literal for int()"),
    (tables.manifold_records, "manifolds.json",
     lambda text: text.replace('"cusps"', '"cusp"', 1),
     "manifolds.json: malformed record (KeyError: 'cusps')"),
], ids=["rows", "width", "token", "digit-token", "record-key"])
def test_malformed_data_names_the_file(monkeypatch, reader, name, edit,
                                       message):
    """A data file whose rows do not fit, even under a matching checksum,
    raises DataIntegrityError naming the file."""
    read = tables._read
    monkeypatch.setattr(tables, "_read",
                        lambda n: edit(read(n)) if n == name else read(n))
    with pytest.raises(tables.DataIntegrityError) as err:
        reader.__wrapped__()
    assert str(err.value).startswith(message)
