"""Every name a spinchi module imports is used in that module.

A stdlib ``ast`` scan: a module's imported names must each appear as a
name somewhere in its code or in a string annotation.  ``__init__.py``
only re-exports, and ``__future__`` imports are directives, so both are
exempt.  A second scan keeps ``dataclasses`` to ``profinite``: generated
classes cost about 1 ms each at import, and the runtime value types
build on ``exactq.Value`` instead.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinchi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "PiExact | Scalar"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "euler.py", "exactq.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _referenced_names(tree)
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Iterator, Optional\n"
                     "def f(x: 'Optional[int]'): return x\n")
    assert _imported_names(tree) - _referenced_names(tree) == {"math", "Iterator"}


def _imports_dataclasses(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
               for node in ast.walk(tree))


def test_only_profinite_imports_dataclasses():
    users = {p.name for p in SRC.glob("*.py")
             if _imports_dataclasses(ast.parse(p.read_text(), filename=str(p)))}
    assert users == {"profinite.py"}, sorted(users)
    for text in ("import dataclasses", "from dataclasses import dataclass",
                 "def f():\n    import dataclasses as dc\n"):
        assert _imports_dataclasses(ast.parse(text))
    assert not _imports_dataclasses(ast.parse("import dataclass_tools\nimport fractions"))
