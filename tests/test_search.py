from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import coxglue
from coxglue import pairing as pg
from coxglue import search
from coxglue import verify as vf
from coxglue.search import search_pairings


def _relative_imports(tree: ast.AST) -> list[tuple[ast.ImportFrom, str]]:
    """Each `from .x import ...` and `from . import x`, with the sibling
    module it names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else \
                [a.name for a in node.names]
            out += [(node, name) for name in names]
    return out


def _parse(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_search_module_imports_verify_at_the_top():
    """verify imports pairing, so pairing reaches the search only through
    its `__getattr__` for `search_pairings`, and the search imports verify
    at module level and reads `verify.face_cycles_proper` at call time."""
    tree = _parse(pg)
    imported = _relative_imports(tree)
    getattr_fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "__getattr__")
    inside = set(map(id, ast.walk(getattr_fn)))
    assert "verify" not in {name for _, name in imported}
    assert [name for node, name in imported if id(node) in inside] == \
        ["search"]
    assert all(id(node) in inside for node, name in imported
               if name == "search")

    tree = _parse(search)
    top = {name for node, name in _relative_imports(tree) if node in tree.body}
    assert "verify" in top
    assert all(node in tree.body for node, _ in _relative_imports(tree))
    assert any(isinstance(node, ast.Attribute)
               and node.attr == "face_cycles_proper"
               and isinstance(node.value, ast.Name) and node.value.id == "verify"
               for node in ast.walk(tree))

    assert pg.search_pairings is coxglue.search_pairings \
        is search.search_pairings
    # perfbench/selftest.py finds the patch sites it checks through dir()
    assert "search_pairings" in dir(pg)


def test_every_leaf_the_search_reaches_is_proper(monkeypatch):
    """The pruning decides properness before the leaf's eight-copy pass
    runs: from prefixes of relabeled published arrays, every complete
    array the search reaches is proper by `verify.face_cycles_proper`."""
    face_cycles_proper = vf.face_cycles_proper
    verdicts = []

    def recorded(arr):
        cert = face_cycles_proper(arr)
        verdicts.append(cert.proper)
        return cert

    monkeypatch.setattr(vf, "face_cycles_proper", recorded)

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(mid=st.integers(1, 9), perm=st.permutations(range(8)),
           prefix=st.integers(20, 60), budget=st.integers(2000, 20000))
    def search_from_a_prefix(mid, perm, prefix, budget):
        arr = pg.published_pairing(mid).relabeled(perm)
        fixed = {divmod(n, 27): arr.entries[n // 27][n % 27]
                 for n in range(prefix)}
        search_pairings(fixed, node_budget=budget)

    search_from_a_prefix()
    assert verdicts and all(verdicts)
