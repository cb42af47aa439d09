"""Embedded canonical data: side normals, vertices, pairing arrays,
manifold records, digit decryption, and the dimension-6 certification
matrices.  Every file is checksummed against the manifest at load time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import CoxglueError
from .lorentz import Vec


class DataIntegrityError(CoxglueError, RuntimeError):
    pass


class ManifoldIdError(CoxglueError, ValueError):
    """A manifold id that is not an int from 1 to 9 (bools refused)."""


def _manifold_id(mid: int) -> int:
    if type(mid) is not int or not 1 <= mid <= 9:
        raise ManifoldIdError(f"manifold id {mid!r} is not an int from 1 to 9")
    return mid


@lru_cache(maxsize=1)
def _manifest() -> dict[str, str]:
    root = resources.files(__package__) / "data"
    return json.loads((root / "manifest.json").read_text())


@lru_cache(maxsize=None)
def _read(name: str) -> str:
    root = resources.files(__package__) / "data"
    raw = (root / name).read_bytes()
    want = _manifest().get(name)
    if want is None:
        raise DataIntegrityError(f"{name} missing from manifest")
    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise DataIntegrityError(f"checksum mismatch for {name}")
    return raw.decode()


def _int_rows(name: str, count: int,
              width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The file's `count` rows of ints, each `width` long when given;
    DataIntegrityError naming the file otherwise."""
    try:
        rows = tuple(tuple(int(t) for t in line.split())
                     for line in _read(name).splitlines() if line.strip())
    except ValueError as exc:
        raise DataIntegrityError(f"{name}: {exc}") from None
    if len(rows) != count or (width is not None and any(
            len(r) != width for r in rows)):
        raise DataIntegrityError(f"{name}: expected {count} rows" + (
            f" of {width} entries" if width is not None else ""))
    return rows


@lru_cache(maxsize=1)
def p6_side_normals() -> tuple[Vec, ...]:
    return _int_rows("p6_side_normals.txt", 27)


@lru_cache(maxsize=1)
def p6_vertices() -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    rows = _int_rows("p6_vertices.txt", 99)
    return rows[:72], rows[72:]


@lru_cache(maxsize=1)
def digit_signs() -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    try:
        for line in _read("digit_signs.txt").splitlines():
            parts = line.split()
            if parts:
                out[parts[0]] = tuple(int(t) for t in parts[1:])
    except ValueError as exc:
        raise DataIntegrityError(f"digit_signs.txt: {exc}") from None
    if len(out) != 64:
        raise DataIntegrityError("digit_signs.txt: expected 64 digit rows")
    return out


@dataclass(frozen=True)
class ManifoldRecord:
    """Published record for one of the nine glued manifolds."""

    id: int
    code: str
    orientable: bool
    cusps: int
    homology: tuple[str, ...]
    cusp_homology: tuple[tuple[str, ...], ...]


@lru_cache(maxsize=1)
def manifold_records() -> tuple[ManifoldRecord, ...]:
    try:
        out = [ManifoldRecord(
            id=rec["id"], code=rec["code"], orientable=rec["orientable"],
            cusps=rec["cusps"], homology=tuple(rec["homology"]),
            cusp_homology=tuple(tuple(c) for c in rec["cusp_homology"]))
            for rec in json.loads(_read("manifolds.json"))]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataIntegrityError(f"manifolds.json: malformed record "
                                 f"({type(exc).__name__}: {exc})") from None
    if [r.id for r in out] != list(range(1, 10)):
        raise DataIntegrityError(
            "manifolds.json: manifold records must cover ids 1..9")
    return tuple(out)


def manifold_record(mid: int) -> ManifoldRecord:
    mid = _manifold_id(mid)  # before any file is read
    return manifold_records()[mid - 1]


def pairing_array_text(mid: int) -> str:
    return _read(f"arrays/m{_manifold_id(mid)}.txt")


@lru_cache(maxsize=1)
def code_matrix_m1() -> tuple[tuple[int, ...], ...]:
    return _int_rows("m1_code_matrix.txt", 6, 27)


@lru_cache(maxsize=1)
def sideperm_action_m1() -> tuple[tuple[int, ...], ...]:
    return _int_rows("m1_sideperm_action.txt", 21, 21)


@lru_cache(maxsize=1)
def order4_action_m1() -> tuple[tuple[int, ...], ...]:
    return _int_rows("m1_order4_action.txt", 21, 21)


@lru_cache(maxsize=1)
def independent_sets_m1() -> tuple[frozenset[int], ...]:
    """The 36 column index sets, converted to 0-based indices."""
    rows = _int_rows("m1_independent_sets.txt", 36)
    return tuple(frozenset(i - 1 for i in row) for row in rows)
