"""Static checks over the library source, using only the stdlib `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "datalin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in the module
    refers to (`from __future__` imports excepted)."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def unreferenced_private(source: str) -> list[str]:
    """Module-level `_private` functions and classes whose name no
    expression in the module refers to."""
    tree = ast.parse(source)
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(defined - used)


def test_unused_imports_detects_and_ignores():
    src = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Mapping, Optional\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(src) == ["Mapping", "system"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unreferenced_private_detects_and_ignores():
    src = (
        "class _Kept:\n"
        "    def _method(self):\n"
        "        return 0\n"
        "def _dead():\n"
        "    return _Kept()\n"
        "def _helper():\n"
        "    return 1\n"
        "def public():\n"
        "    return _helper()\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    assert unreferenced_private(src) == ["_dead"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_private_helpers(module):
    assert unreferenced_private((SRC / module).read_text(encoding="utf-8")) == []


def calls_of(source: str, name: str) -> int:
    """Calls of `name`, as a bare name or as an attribute (`mod.name(...)`)."""
    return sum(
        isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
        )
        for node in ast.walk(ast.parse(source))
    )


def test_calls_of_detects_names_and_attributes():
    src = (
        "from .intlin import z_solve_system\n"
        "from . import intlin\n"
        "a = z_solve_system(m, y)\n"
        "b = intlin.z_solve_system(m, y)\n"
        "c = hnf(m).solve(y)\n"
    )
    assert calls_of(src, "z_solve_system") == 2
    assert calls_of(src, "solve") == 1


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "intlin.py")
)
def test_only_intlin_calls_the_one_shot_solver(module):
    # Callers hold a factorisation (`intlin.hnf`) and solve each right-hand
    # side against it; `z_solve_system` factors anew on every call.
    assert calls_of((SRC / module).read_text(encoding="utf-8"), "z_solve_system") == 0
