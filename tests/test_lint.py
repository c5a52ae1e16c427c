"""Static checks over the library source, using only the stdlib `ast`."""

import ast
import builtins
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "datalin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# The test files, less the acceptance suite, which is kept as written.
TESTS = sorted(
    p for p in (SRC.parent.parent / "tests").glob("*.py")
    if p.name != "test_acceptance.py"
)


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


@pytest.mark.parametrize(
    "path", [SRC / m for m in MODULES] + TESTS, ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name not in {"intlin.py", "zsolve.py"}),
)
def test_only_zsolve_factors_layers(module):
    # `zsolve.GeneratorLayers` owns every layer's factorisation, so a
    # generator family's layers are factored once however many targets
    # are checked against them.
    assert calls_of((SRC / module).read_text(encoding="utf-8"), "hnf") == 0


def key_deletions(source: str) -> list[int]:
    """Lines of `del x[key]` statements (a `Delete` with a subscript target)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Delete)
        and any(isinstance(t, ast.Subscript) for t in node.targets)
    )


def test_key_deletions_detects_and_ignores():
    src = (
        "del acc[key]\n"
        "del name\n"
        "del obj.attr\n"
        "acc.pop(key)\n"
        "del a, b[0]\n"
        "def f(d):\n"
        "    del d[1:]\n"
    )
    assert key_deletions(src) == [1, 5, 7]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py")
)
def test_only_core_deletes_a_key(module):
    # `core.add_into` adds every renamed copy into a sparse map and drops a
    # key whose sum cancels there, so "empty dict iff zero sum" is decided
    # in one module.
    assert key_deletions((SRC / module).read_text(encoding="utf-8")) == []


def reads_of(source: str, attr: str) -> int:
    """Reads of the attribute `attr` (`x.attr`) anywhere in the module."""
    return sum(
        isinstance(node, ast.Attribute) and node.attr == attr
        for node in ast.walk(ast.parse(source))
    )


def test_reads_of_detects_attribute_reads():
    src = (
        "layer = layers.layer(m)\n"
        "x = layer.factor.solve(y)\n"
        "factor = hnf(m)\n"
        "z = layers.solve(m, y)\n"
    )
    assert reads_of(src, "factor") == 1
    assert reads_of(src, "solve") == 2


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name not in {"intlin.py", "zsolve.py"}),
)
def test_only_zsolve_reads_a_layer_factorisation(module):
    # Every layer solve goes through `zsolve.GeneratorLayers.solve`, which
    # solves each distinct right-hand side of an owner once.
    assert reads_of((SRC / module).read_text(encoding="utf-8"), "factor") == 0


_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def looped_calls(source: str, names: set[str]) -> list[int]:
    """Lines of calls of `names` (bare or as attributes) inside a loop body
    or a comprehension, where each call would re-copy an accumulator."""
    lines: list[int] = []

    def visit(node: ast.AST, looped: bool) -> None:
        if looped and isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in names:
                lines.append(node.lineno)
        for field, value in ast.iter_fields(node):
            inner = looped or isinstance(node, _COMPREHENSIONS) or (
                isinstance(node, _LOOPS) and field in ("body", "orelse", "test")
            )
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_looped_calls_detects_loops_and_comprehensions():
    src = (
        "acc = dv_add(a, b)\n"
        "for x in dv_add(a, b).entries:\n"
        "    acc = dv_add(acc, x)\n"
        "while acc:\n"
        "    acc = core.dv_sub(acc, x)\n"
        "ys = [dv_add(y, y) for y in xs]\n"
        "def f(xs):\n"
        "    return sum(dv_add(x, x) for x in xs)\n"
        "z = dv_combine(1, 1, ((1, x, {}) for x in xs))\n"
    )
    assert looped_calls(src, {"dv_add", "dv_sub"}) == [3, 5, 6, 8]


@pytest.mark.parametrize("module", MODULES)
def test_no_dv_add_fold_in_a_loop(module):
    # A fold of dv_add copies and re-validates the whole accumulator per
    # term, quadratic in the number of terms; core.dv_combine sums any
    # number of renamed, scaled copies in one pass.
    source = (SRC / module).read_text(encoding="utf-8")
    assert looped_calls(source, {"dv_add", "dv_sub"}) == []


def library_imports(source: str) -> dict[str, set[str]]:
    """Modules imported by the source, each with the names taken from it
    (empty for a plain `import m`); relative imports as `.module`."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.setdefault(module, set()).update(a.name for a in node.names)
    return found


def test_library_imports_reads_plain_and_relative_imports():
    src = (
        "import sys, itertools\n"
        "from .core import DataVector, kset\n"
        "from . import zsolve\n"
        "from datalin.witness import Witness\n"
    )
    assert library_imports(src) == {
        "sys": set(),
        "itertools": set(),
        ".core": {"DataVector", "kset"},
        ".": {"zsolve"},
        "datalin.witness": {"Witness"},
    }


def test_oracle_stays_independent_of_the_deciders():
    # The oracle is the ground truth the deciders are checked against, so it
    # may use `core` and the witness verifier only; its search is iterative,
    # so it has no use for `sys` (the recursion limit).
    imports = library_imports((SRC / "oracle.py").read_text(encoding="utf-8"))
    library = {m for m in imports if m.startswith(".") or m.startswith("datalin")}
    assert library <= {".core", ".witness"}
    assert imports.get(".witness", set()) <= {"Witness", "make_witness", "verify_witness"}
    assert "sys" not in imports


def defaulted_params(source: str) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position) for every defaulted parameter of a
    `def`.  The callee name is the function's, or the class's for an
    `__init__`; the position counts the positional arguments a call passes
    (after the bound `self` of a method) and is None for keyword-only ones."""
    found: list[tuple[str, str, int | None]] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            name = cls if cls is not None and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for pos, param in enumerate(positional[first:], first):
                found.append((name, param.arg, pos))
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((name, param.arg, None))
            visit(child, None)

    visit(ast.parse(source), None)
    return found


def passed_arguments(sources: list[str]) -> dict[str, tuple[float, set[str]]]:
    """For each name called (bare or as an attribute): the most positional
    arguments one call passes (infinite after a `*` argument) and the
    keywords passed (`**` for a `**` argument)."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            most, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            most = max(most, float("inf") if starred else len(node.args))
            keywords |= {k.arg or "**" for k in node.keywords}
            passed[name] = (most, keywords)
    return passed


def unpassed_defaults(defining: str, callers: list[str]) -> list[str]:
    """Defaulted parameters of the `def`s in `defining` that no call in
    `callers` passes, by keyword, by position or via `*`/`**`."""
    passed = passed_arguments(callers)
    dead = []
    for name, param, pos in defaulted_params(defining):
        most, keywords = passed.get(name, (0, set()))
        if not (param in keywords or "**" in keywords or pos is not None and pos < most):
            dead.append(f"{name}({param})")
    return dead


def test_unpassed_defaults_detects_and_ignores():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    def inner(x=0):\n"
        "        return x\n"
        "    return inner()\n"
        "class K:\n"
        "    def __init__(self, n=1, m=2):\n"
        "        self.n = n\n"
        "    def tick(self, step=1, size=2):\n"
        "        return step\n"
        "    @staticmethod\n"
        "    def make(rows, cols=None):\n"
        "        return rows\n"
        "def g(p=0, q=0):\n"
        "    return f(p, *q)\n"
    )
    callers = [defining, "f(0, 1, d=2)\nK(3)\nK().tick(1)\nK.make(1, 2)\ng(**{})\n"]
    assert unpassed_defaults(defining, callers) == [
        "f(e)", "inner(x)", "K(m)", "tick(size)"
    ]


def test_no_defaulted_parameter_goes_unpassed():
    # A default that no caller overrides is a constant dressed up as a
    # parameter; name it as a constant in the module instead.
    root = SRC.parent.parent
    callers = [
        p.read_text(encoding="utf-8")
        for pattern in ("src/**/*.py", "tests/**/*.py", "perfbench/**/*.py")
        for p in sorted(root.glob(pattern))
    ]
    dead = {
        module: unpassed_defaults((SRC / module).read_text(encoding="utf-8"), callers)
        for module in MODULES
    }
    assert {m: d for m, d in dead.items() if d} == {}


def unmapped_input_errors(source: str) -> list[int]:
    """Lines of `except` clauses that catch `ValueError` or `ShapeError`
    (bare, as an attribute or in a tuple) without raising `FormatError` in
    their body."""
    def named(node: ast.AST) -> str | None:
        return getattr(node, "id", None) or getattr(node, "attr", None)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if not {"ValueError", "ShapeError"} & {named(c) for c in caught}:
            continue
        raised = [
            n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Raise) and n.exc is not None
        ]
        if "FormatError" not in {named(r) for r in raised}:
            lines.append(node.lineno)
    return lines


def test_unmapped_input_errors_detects_and_ignores():
    src = (
        "try:\n"
        "    f()\n"
        "except ValueError:\n"
        "    raise FormatError('bad') from None\n"
        "except (ShapeError, IndexError) as exc:\n"
        "    raise FormatError(str(exc))\n"
        "except (FormatError, core.ShapeError) as exc:\n"
        "    print(exc)\n"
        "except OSError:\n"
        "    pass\n"
        "except ShapeError:\n"
        "    raise\n"
        "except Exception:\n"
        "    pass\n"
    )
    assert unmapped_input_errors(src) == [7, 11]


@pytest.mark.parametrize("module", MODULES)
def test_caught_value_errors_become_input_errors(module):
    # Input problems are `FormatError`s, raised where the input is read or
    # checked; a `ValueError` or `ShapeError` caught anywhere else would
    # report a bug inside the library as bad input.
    assert unmapped_input_errors((SRC / module).read_text(encoding="utf-8")) == []


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"^\w+\.(\w+)$")


def references(source: str, skip: str | None = None) -> set[str]:
    """Names the source refers to: bare and attribute names, names taken by
    `from ... import`, and the `name` of "module.name" string constants.
    The definition at the path `skip` is not read ("name" for a module-level
    `def` or `class`, "Class.name" for a method), so that a definition's
    references to itself do not count."""
    tree = ast.parse(source)
    skipped: list[ast.AST] = []
    if skip:
        skipped = [tree]
        for part in skip.split("."):
            skipped = [
                n for scope in skipped for n in scope.body
                if isinstance(n, _DEFS) and n.name == part
            ]
    found: set[str] = set()
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if node in skipped:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted = _DOTTED.match(node.value)
            if dotted:
                found.add(dotted.group(1))
    return found


def public_definitions(source: str) -> list[str]:
    """Paths of the public module-level functions and classes, and of the
    public methods of every module-level class ("Class.name")."""
    paths = []
    for node in ast.parse(source).body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            paths.append(node.name)
        if isinstance(node, ast.ClassDef):
            paths.extend(
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, _DEFS) and not member.name.startswith("_")
            )
    return paths


def unreached_public(library: dict[str, str], outside: list[str]) -> list[str]:
    """Public definitions of the `library` sources (by module name; see
    `public_definitions`) whose name no library source refers to outside
    the definition itself and no `outside` source refers to at all.  A
    method is reached by any reference to its name, whatever the object."""
    reached = set().union(*map(references, outside))
    unreached = []
    for module, source in library.items():
        elsewhere = reached.union(
            *(references(other) for name, other in library.items() if name != module)
        )
        for path in public_definitions(source):
            if path.rpartition(".")[2] not in elsewhere | references(source, path):
                unreached.append(path)
    return sorted(unreached)


def test_unreached_public_detects_and_ignores():
    library = {
        "a.py": (
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def called():\n"
            "    return 0\n"
            "class Named:\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "def _private():\n"
            "    return called()\n"
        ),
        "b.py": "from . import a\nx = a.Named\n",
    }
    outside = ["from datalin.a import imported\n", 'TARGETS = (Target("a.traced"),)\n']
    assert unreached_public(library, outside) == ["recursive"]


def test_unreached_public_methods_detects_and_ignores():
    library = {
        "a.py": (
            "class Box:\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 0\n"
            "    def tested(self):\n"
            "        return 0\n"
            "    def _private(self):\n"
            "        return 0\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "class _Hidden:\n"
            "    def dead(self):\n"
            "        return 0\n"
        ),
        "b.py": "from .a import Box\nBox().used()\n",
    }
    outside = ["box.tested()\n"]
    # a method's own body does not reach it; another method's body does
    assert unreached_public(library, outside) == ["Box.recursive", "_Hidden.dead"]


# Public names that neither the library, the acceptance suite nor the
# benchmark reaches, each kept for the reason given.
TESTED_ONLY = {
    "dv_permute": "documented one-call wrapper: a renamed copy, one dv_combine term",
    "dv_sub": "documented one-call wrapper: a difference, two dv_combine terms",
}


def test_every_public_name_is_reached():
    # A public name or method that only tests reach is code kept alive by
    # its tests.  The acceptance suite's names stay, and so do the names the
    # benchmark's tracer binds (directly or as "module.name" strings).
    root = SRC.parent.parent
    library = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES}
    outside = [
        p.read_text(encoding="utf-8")
        for p in [root / "tests" / "test_acceptance.py", *sorted(root.glob("perfbench/**/*.py"))]
    ]
    unreached = unreached_public(library, outside)
    assert [name for name in unreached if name not in TESTED_ONLY] == []
    # an entry is stale once src/ no longer defines its name or something
    # reaches it, and would let a later unreached name of that spelling pass
    assert sorted(TESTED_ONLY.keys() - set(unreached)) == []


def assert_lines(source: str) -> list[int]:
    """Lines of `assert` statements, which `python -O` strips."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


def test_assert_lines_detects_statements_only():
    src = (
        "assert x\n"
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    return x  # assert x\n"
        "s = 'assert y'\n"
        "assert_ok = 1\n"
    )
    assert assert_lines(src) == [1, 3]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    # Self-checks are explicit raises of `VerificationError` so that they
    # still run under `python -O`.
    assert assert_lines((SRC / module).read_text(encoding="utf-8")) == []


_BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}
# The library's exception classes, one per class of failure; every other
# exception class derives from one of them, except the CLI's `FormatError`.
_EXCEPTION_ROOTS = {"core.ShapeError", "core.VerificationError", "core.CapExceeded"}


def stray_exceptions(sources: dict[str, str]) -> list[str]:
    """Module-level exception classes ("module.Class") of the sources (by
    file name) that derive from none of `_EXCEPTION_ROOTS`, other than
    those and `cli.FormatError`.  A class is an exception when an ancestor
    is a builtin exception; bases are resolved by name among the classes of
    the sources, so an imported base counts as its defining module's."""
    bases: dict[str, list[str]] = {}
    defined: dict[str, str] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                path = f"{module.removesuffix('.py')}.{node.name}"
                defined[node.name] = path
                bases[path] = [getattr(b, "id", None) or getattr(b, "attr", None)
                               for b in node.bases]

    def ancestors(path: str) -> set[str]:
        found: set[str] = set()
        for base in bases[path]:
            if base in defined:
                found |= {defined[base]} | ancestors(defined[base])
            else:
                found.add(base)
        return found

    lineage = {path: ancestors(path) for path in bases}
    return sorted(
        path for path, found in lineage.items()
        if found & _BUILTIN_EXCEPTIONS and not found & _EXCEPTION_ROOTS
        and path not in _EXCEPTION_ROOTS | {"cli.FormatError"}
    )


def test_stray_exceptions_detects_and_ignores():
    sources = {
        "core.py": (
            "class ShapeError(ValueError):\n    pass\n"
            "class VerificationError(Exception):\n    pass\n"
            "class CapExceeded(Exception):\n    pass\n"
        ),
        "cli.py": "class FormatError(ValueError):\n    pass\n",
        "a.py": (
            "from .core import CapExceeded, core\n"
            "class Guard(CapExceeded):\n    pass\n"
            "class Deeper(Guard):\n    pass\n"
            "class Dotted(core.VerificationError):\n    pass\n"
            "class Loose(Exception):\n    pass\n"
            "class Child(Loose):\n    pass\n"
            "class Bug(RuntimeError):\n    pass\n"
            "class Record:\n    pass\n"
        ),
    }
    assert stray_exceptions(sources) == ["a.Bug", "a.Child", "a.Loose"]


def test_every_exception_has_its_exit_code_class():
    # `cli.main` maps each class once: `FormatError` exits 2, `CapExceeded`
    # 3 (INCONCLUSIVE), anything else 4.  A cap or a self-check raised as a
    # class of its own would escape that mapping, or blur it.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert stray_exceptions(sources) == []
