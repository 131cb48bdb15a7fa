"""Every name a spinchi module imports is used in that module.

A stdlib ``ast`` scan: a module's imported names must each appear as a
name somewhere in its code or in a string annotation.  ``__init__.py``
only re-exports, and ``__future__`` imports are directives, so both are
exempt.  A second scan keeps ``dataclasses`` to ``profinite``, and there
to the two reports ``bench/selftest.py`` corrupts: generated classes
cost about 1 ms each at import, and the runtime value types build on
``exactq.Value`` instead.  Two more keep the referees apart from
the code they check: only ``cli`` imports ``oracles``, and ``oracles``
takes only the three Clifford types from ``clifford``, no function.
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


def _dataclass_names(tree: ast.Module) -> set[str]:
    """The classes decorated with ``dataclass`` or ``dataclass(...)``."""
    def is_dataclass(node: ast.expr) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None) == "dataclass"
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(is_dataclass(d) for d in node.decorator_list)}


def test_profinite_keeps_only_the_dataclasses_selftest_replaces():
    # bench/selftest.py corrupts SweepReport and ChiMismatchPair with
    # dataclasses.replace; CommensurabilityReport is an exactq.Value.
    tree = ast.parse((SRC / "profinite.py").read_text())
    assert _dataclass_names(tree) == {"SweepReport", "ChiMismatchPair"}
    assert _dataclass_names(ast.parse(
        "@dataclass(frozen=True)\nclass A: pass\n@dataclasses.dataclass\nclass B: pass\n"
        "@cache\nclass C: pass\n")) == {"A", "B"}


def _spinchi_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each name a module takes from a spinchi module;
    name "" for the module itself, as in ``from . import oracles``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((a.name.partition("spinchi.")[2], "") for a in node.names
                         if a.name.startswith("spinchi."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "spinchi"
                                                  or (node.module or "").startswith("spinchi.")):
            module = (node.module or "").removeprefix("spinchi").lstrip(".")
            found.update((module, a.name) if module else (a.name, "") for a in node.names)
    return found


def test_only_cli_imports_oracles():
    users = {p.name for p in MODULES
             if any(m == "oracles" for m, _ in _spinchi_imports(ast.parse(p.read_text())))}
    assert users == {"cli.py"}, sorted(users)
    for text in ("from . import oracles", "from .oracles import hilbert_bruteforce",
                 "import spinchi.oracles", "from spinchi import clifford, oracles",
                 "from spinchi.oracles import weyl_order"):
        assert ("oracles" in {m for m, _ in _spinchi_imports(ast.parse(text))}), text


def test_oracles_takes_only_types_from_clifford():
    taken = {name for module, name in _spinchi_imports(ast.parse((SRC / "oracles.py").read_text()))
             if module == "clifford"}
    assert taken == {"Blade", "CliffordElement", "Signature"}, sorted(taken)
    assert _spinchi_imports(ast.parse("from .clifford import Blade, sign_mask\n"
                                      "from . import clifford")) == {
        ("clifford", "Blade"), ("clifford", "sign_mask"), ("clifford", "")}
