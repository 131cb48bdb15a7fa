"""Every name a spinchi module imports is used in that module.

A stdlib ``ast`` scan: a module's imported names must each appear as a
name somewhere in its code or in a string annotation.  ``__init__.py``
only re-exports, and ``__future__`` imports are directives, so both are
exempt.  A second scan keeps ``dataclasses`` to ``profinite``, and there
to the two reports ``bench/selftest.py`` corrupts: generated classes
cost about 1 ms each at import, and the runtime value types build on
``exactq.Value`` instead.  Two more keep the referees apart from
the code they check: only ``cli`` imports ``oracles``, and ``oracles``
takes only the four Clifford types from ``clifford``, no function.

A cold ``import spinchi, spinchi.cli``, in a fresh interpreter, runs
none of ``clifford``, ``oracles`` or ``profinite`` and so loads neither
``dataclasses`` nor the ``inspect`` it brings: only ``compare`` and
``verify`` reach them.  The package holds the three as lazy modules, in
``sys.modules`` from the start (``bench/tracing.py`` looks the modules it
wraps up there) but run on first attribute access or on an import by name,
and every name of ``spinchi.__all__`` still resolves to its submodule's
object.

Two guards keep the runtime's state bounded.  Every cache has a finite
``maxsize``: no ``functools.cache``, and no ``lru_cache`` or
``exactq.running`` with maxsize None, whether as a decorator or called on
a function.  And no module has a ``global`` statement: state that
outlives a call lives in a cache.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinchi"
BENCH = SRC.parent.parent / "bench"
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
    assert taken == {"Blade", "CliffordElement", "CoefficientRing", "Signature"}, sorted(taken)
    assert _spinchi_imports(ast.parse("from .clifford import Blade, sign_mask\n"
                                      "from . import clifford")) == {
        ("clifford", "Blade"), ("clifford", "sign_mask"), ("clifford", "")}


_MAXSIZE_AT = {"lru_cache": 0, "running": 2}  # the position of maxsize


def _attr_name(node: ast.expr) -> str | None:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _unbounded(spec: ast.expr) -> bool:
    """Whether a decorator, or the callee of ``name = spec(f)``, caches
    without a bound; a bare ``lru_cache`` keeps 128."""
    if _attr_name(spec) == "cache":
        return True
    if not (isinstance(spec, ast.Call) and _attr_name(spec.func) in _MAXSIZE_AT):
        return False
    at = _MAXSIZE_AT[_attr_name(spec.func)]
    size = next((k.value for k in spec.keywords if k.arg == "maxsize"),
                spec.args[at] if len(spec.args) > at else None)
    return isinstance(size, ast.Constant) and size.value is None


def _unbounded_caches(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(_unbounded(d) for d in node.decorator_list):
                found.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _unbounded(node.value.func):
                found.update(_attr_name(t) for t in node.targets)
    return found


def test_every_cache_has_a_bound():
    found = {f"{p.stem}.{name}" for p in SRC.glob("*.py")
             for name in _unbounded_caches(ast.parse(p.read_text(), filename=str(p)))}
    assert not found, sorted(found)
    flagged = ("@lru_cache(maxsize=None)\ndef a(): pass\n"
               "@lru_cache(None)\ndef b(): pass\n"
               "c = lru_cache(maxsize=None)(C)\n"
               "@cache\ndef d(): pass\n"
               "@functools.cache\ndef e(): pass\n"
               "@running(0, 0, None)\ndef f(x, n): pass\n")
    assert _unbounded_caches(ast.parse(flagged)) == set("abcdef")
    assert not _unbounded_caches(ast.parse(
        "@lru_cache\ndef a(): pass\n@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
        "c = lru_cache(256)(C)\n@running(0, 0, 64)\ndef d(x, n): pass\n"))


def _has_global(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Global) for node in ast.walk(tree))


def test_no_module_uses_a_global_statement():
    users = {p.name for p in SRC.glob("*.py") if _has_global(ast.parse(p.read_text()))}
    assert not users, sorted(users)
    assert _has_global(ast.parse("def f():\n    global x\n"))
    assert not _has_global(ast.parse("x = 1\ndef f():\n    return x\n"))


# Run in a fresh interpreter: which modules the cold import ran, whether the
# modules bench/tracing.py wraps are in sys.modules, which an import by name
# runs, and what the package's names resolve to.  An audit hook names the
# source file of every code object that runs, so a module counts once its
# code runs, however it was imported.
_COLD_IMPORT = """
import json, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
import spinchi, spinchi.cli
out = {"ran": sorted(ran)}
sys.path.insert(0, sys.argv[1])
import tracing
out["untraceable"] = sorted({mod for _, mod, _, _ in tracing.TRACED} - {
    n.removeprefix("spinchi.") for n in sys.modules})
from spinchi import clifford, profinite
out["ran_on_import"] = sorted(ran)
from spinchi import euler, exactq, ggroups, qforms
out["unresolved"] = [name for name in spinchi.__all__ if getattr(spinchi, name) is not next(
    getattr(m, name) for m in (euler, exactq, ggroups, profinite, qforms) if hasattr(m, name))]
try:
    spinchi.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


def _module_names(files: list[str]) -> set[str]:
    """``spinchi.<stem>`` for a file of the package, else the file's stem."""
    return {p.stem if p.parent.name != "spinchi" else "spinchi" if p.stem == "__init__"
            else f"spinchi.{p.stem}" for p in map(Path, files)}


def test_cold_import_runs_only_what_every_command_needs():
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT, str(BENCH)], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    ran = _module_names(out["ran"])
    skipped = {"spinchi.clifford", "spinchi.oracles", "spinchi.profinite", "dataclasses", "inspect"}
    assert not skipped & ran, sorted(skipped & ran)
    assert {"spinchi", "spinchi.cli", "spinchi.euler"} <= ran, sorted(ran)
    assert out["untraceable"] == []
    assert out["unresolved"] == []
    assert out["missing"] == "module 'spinchi' has no attribute 'no_such_name'"
    # as bench/workloads.py needs, a plan that imports a module by name runs it
    # before its ops are timed
    assert {"spinchi.clifford", "spinchi.profinite", "dataclasses"} <= _module_names(
        out["ran_on_import"])
