"""Source hygiene: no module or test file imports a name it never uses,
every top-level name of the package is referenced somewhere, only
`core` builds a `Config` from raw cells or bisects them, and no module
scans the occurrences of a marker set.

Package `__init__.py` files are skipped by the import check (their imports
are re-exports), as is `from __future__ import ...`.  A name counts as used
when it is read as a bare name anywhere in the file, inside a string
annotation, or in `__all__`.  A top-level name of `src/fourshift` counts as
referenced when some package, test or bench file uses it in that way, reads
it as an attribute, or imports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fourshift").glob("*.py"))
FILES = sorted(p for d in (ROOT / "src" / "fourshift", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")
OTHERS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").rglob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        ann = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in _imported(tree).items() if name not in used)


def _top_level(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every top-level def, class and assignment, dunder
    names left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return {n: line for n, line in out.items() if not n.startswith("__")}


def _referenced(tree: ast.Module) -> set[str]:
    """Names used, attributes read and names imported."""
    return _used(tree) | {
        node.attr if isinstance(node, ast.Attribute) else node.name.split(".")[-1]
        for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.alias))}


def unreferenced_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """Top-level names of `modules` (name -> source) that neither a module
    nor one of the `others` sources references."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    refs = set().union(*map(_referenced, trees.values()),
                       *(_referenced(ast.parse(src)) for src in others))
    return sorted(f"{mod}.{name} (line {line})" for mod, tree in trees.items()
                  for name, line in _top_level(tree).items() if name not in refs)


def test_checker_finds_unreferenced_names():
    modules = {
        "a": ("X = 1\nY: int = 2\nP, Q = 3, 4\n__all__ = []\n"
              "def f():\n    return g()\ndef g():\n    pass\n"
              "class C:\n    pass\n"),
        "b": "from a import f\nimport a\nprint(a.Y)\nQ = 5\n",
    }
    assert unreferenced_names(modules, ["def h(c: 'C'): pass"]) == [
        "a.P (line 3)", "a.Q (line 3)", "a.X (line 1)", "b.Q (line 4)"]


def test_no_unreferenced_top_level_names():
    modules = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_names(modules, [p.read_text() for p in OTHERS]) == []


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from typing import Mapping, Sequence\n"
              "import json\n"
              "def f(m: 'Mapping') -> int:\n"
              "    return json.dumps(m)\n")
    assert unused_imports(source) == ["Sequence (line 3)", "os (line 2)",
                                      "osp (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _calls(source: str):
    """(name, node) of every call in the source, the name of `f(...)` and
    of `a.f(...)` both being f."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            yield (func.id if isinstance(func, ast.Name)
                   else getattr(func, "attr", "")), node


def raw_cell_access(source: str) -> list[str]:
    """Calls of the raw `Config(...)` constructor, and bisect calls on a
    `.cells` attribute or a name `cells`: the reads and writes that
    `Config.cells_in` and `Config.overwrite` do in one place."""
    found = []
    for name, node in _calls(source):
        arg = node.args[0] if node.args else None
        if name == "Config":
            found.append(f"Config(...) (line {node.lineno})")
        elif name.startswith(("bisect", "insort")) and (
                isinstance(arg, ast.Attribute) and arg.attr == "cells"
                or isinstance(arg, ast.Name) and arg.id == "cells"):
            found.append(f"{name} on cells (line {node.lineno})")
    return found


def test_checker_finds_raw_cell_access():
    source = ("x = Config(((0, 1),))\n"
              "y = core.Config(())\n"
              "z = Config.from_cells({0: 1})\n"
              "i = bisect_left(x.cells, (0,))\n"
              "j = bisect.bisect_right(cells, (0,))\n"
              "k = bisect_left(heads, 0)\n")
    assert raw_cell_access(source) == [
        "Config(...) (line 1)", "Config(...) (line 2)",
        "bisect_left on cells (line 4)", "bisect_right on cells (line 5)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_touches_raw_cells(path):
    assert raw_cell_access(path.read_text()) == []


def marker_occurrence_scans(source: str) -> list[str]:
    """Calls of `occurrences` with an argument `<expr>.V`: a marker set's
    occurrences are read off its marker cells, not scanned."""
    return [f"occurrences of .V (line {node.lineno})"
            for name, node in _calls(source) if name == "occurrences"
            and any(isinstance(a, ast.Attribute) and a.attr == "V"
                    for a in [*node.args, *(k.value for k in node.keywords)])]


def test_checker_finds_marker_occurrence_scans():
    source = ("a = occurrences(x, spec.V)\n"
              "b = safety.occurrences(x, wset=self.V)\n"
              "c = occurrences(x, spec.U)\n"
              "d = occurrences(x, V)\n"
              "e = chi_sites(x, spec.V)\n")
    assert marker_occurrence_scans(source) == [
        "occurrences of .V (line 1)", "occurrences of .V (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_scans_marker_occurrences(path):
    assert marker_occurrence_scans(path.read_text()) == []
