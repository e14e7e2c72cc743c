"""Source hygiene: no module or test file imports a name it never uses.

Package `__init__.py` files are skipped (their imports are re-exports), as
is `from __future__ import ...`.  A name counts as used when it appears as
a bare name anywhere in the file, inside a string annotation, or in
`__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in (ROOT / "src" / "fourshift", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")


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
        if isinstance(node, ast.Name):
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
