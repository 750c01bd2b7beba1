"""Every name a module of the package imports is used in that module, and
every function and class a module defines is used by some module.

Lines marked `# noqa: F401` (re-exports) are exempt from the first scan; a
re-export in `__init__` counts as a use for the second. A third scan keeps
the contractions in `rewrite.py` building through the shape table, a
fourth keeps the trace audit in `analysis.py` from rebuilding a state, and
a fifth keeps `strategy.py` from ordering a session's moves itself.
"""

import ast
from pathlib import Path

import pytest

import lax

MODULES = sorted(Path(lax.__file__).parent.glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _referenced(node: ast.AST) -> tuple[set[str], set[str]]:
    """(names node reads bare, names it reads as an attribute or imports)."""
    bare, qualified = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute):
            qualified.add(n.attr)
        elif isinstance(n, ast.alias):
            qualified.add(n.name)
    return bare, qualified


def _unused_definitions(paths: list[Path]) -> list[str]:
    """Module-level functions and classes that no module references outside
    their own body (a recursive call does not keep one alive).

    A bare name counts only in the module that defines it: elsewhere it is
    a local of the same spelling. Another module must import the name or
    read it as an attribute.
    """
    defined: dict[tuple[str, str], int] = {}
    # name -> (module, owner, bare) of each top-level statement reading it
    users: dict[str, set[tuple[str, str | None, bool]]] = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = node.name if isinstance(node, _DEFINITIONS) else None
            if owner is not None:
                defined[(path.name, owner)] = node.lineno
            for bare, names in zip((True, False), _referenced(node)):
                for name in names:
                    users.setdefault(name, set()).add((path.name, owner, bare))
    return [
        f"{module}:{line}: {name}"
        for (module, name), line in defined.items()
        if not any(
            (m, owner) != (module, name) and (m == module or not bare)
            for m, owner, bare in users.get(name, ())
        )
    ]


def test_no_unused_definitions():
    assert _unused_definitions(MODULES) == []


def test_the_definition_scan_sees_a_helper_only_its_own_body_calls(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n"
        "class Kept:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Kept\n")
    assert _unused_definitions(sorted(tmp_path.glob("*.py"))) == ["a.py:4: orphan"]


def test_the_definition_scan_ignores_a_local_of_the_same_name_elsewhere(tmp_path):
    (tmp_path / "a.py").write_text(
        "def conj(fs):\n    return fs\n\n"
        "def used():\n    return 1\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nconj = a.used()\nprint(conj)\n")
    assert _unused_definitions(sorted(tmp_path.glob("*.py"))) == ["a.py:1: conj"]


def _calls(path: Path, names: set[str]) -> list[tuple[str, str]]:
    """(top-level definition, callee) for each call in path of a function
    or constructor in names, bare or read as an attribute."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(node, "name", None)
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                callee = getattr(n.func, "id", getattr(n.func, "attr", None))
                if callee in names:
                    out.append((owner, callee))
    return out


def test_contractions_rebuild_through_the_shape_table():
    """rewrite.py builds a session only where the two full crosses mint
    their fresh one, and never a join or a case by hand: every other
    contraction rebuilds through terms.with_child / with_children."""
    path = Path(lax.__file__).parent / "rewrite.py"
    assert sorted(_calls(path, {"ParBind", "Contract", "Case"})) == [
        ("_em_full_cross", "ParBind"),
        ("_general_full_cross", "ParBind"),
    ]


def test_the_audit_never_rebuilds_a_state():
    """The replay contracts each recorded redex where it sits and compares
    the recorded path: analysis.py calls neither step nor replace_at."""
    path = Path(lax.__file__).parent / "analysis.py"
    assert _calls(path, {"step", "replace_at"}) == []


def test_the_strategy_orders_no_moves_of_its_own():
    """The side strategy takes the first move of each kind in the order
    discovery gives (rewrite.redexes_at): strategy.py reads no redex's
    component, sender or receiver, and sorts nothing but sessions."""
    tree = ast.parse((Path(lax.__file__).parent / "strategy.py").read_text(encoding="utf-8"))
    fields = [n.attr for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr in {"comp", "sender", "receiver"}]
    assert fields == []
    ordered = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) in {"min", "max", "sorted"}]
    assert [ast.unparse(n.args[0]) for n in ordered] == ["upper"]
    upper = [n.value for n in ast.walk(tree)
             if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "upper"]
    assert [ast.unparse(v) for v in upper] == ["uppermost_active_sessions(run.t)"]
