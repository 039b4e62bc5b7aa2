"""The benchmark's hooks into roac0 exist: the tracer's wrap targets, so a
traced run wraps every span, and the caches a pass clears before each step.
Every name a module imports is read there, or kept only for the tracer, and
every private module-level function or class is used by other library code."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "roac0"
TRACED = "noqa: F401  (perfbench's tracer wraps this name here)"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    bench_trace = _load("bench_trace")
    missing = []
    for _, _, _, targets in bench_trace.WRAPS:
        for module, path in targets:
            owner = importlib.import_module(module)
            for attr in path.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"{module}.{path}")
    assert not missing


def test_every_cleared_cache_resolves():
    # clear_caches looks each cache up by name and calls its cache_clear, so
    # a renamed or uncached function fails here as it would fail every run
    bench_workloads = _load("bench_workloads")
    tree = ast.parse(inspect.getsource(bench_workloads.clear_caches))
    names = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "prg"]
    assert len(names) >= 3
    missing = [name for name in names
               if not callable(getattr(getattr(bench_workloads.prg, name, None), "cache_clear", None))]
    assert not missing
    bench_workloads.clear_caches()


def test_every_import_is_read_or_traced():
    # no linter runs here, so this stands in for F401: an import no code reads
    # is dead unless it is marked, and a marked one must be a tracer target
    bench_trace = _load("bench_trace")
    wrapped = {target for *_, targets in bench_trace.WRAPS for target in targets}
    unread, unwrapped = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = f"roac0.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if TRACED in lines[alias.lineno - 1]:
                    if (module, name) not in wrapped:
                        unwrapped.append(f"{module}.{name}")
                elif name not in read:
                    unread.append(f"{module}.{name}")
    assert not unread
    assert not unwrapped


def test_every_private_definition_is_used():
    # a private helper that no library line outside its own body names is
    # dead, or kept only for the tests
    uses = []  # (name, file, line) of every name read, attribute read or name imported
    defs = []  # (name, file, first line, last line) of the private module-level defs
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((alias.name, path, node.lineno) for alias in node.names)
        defs.extend((node.name, path, node.lineno, node.end_lineno) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__"))
    assert defs
    unused = [f"{path.stem}.{name}" for name, path, first, last in defs
              if not any(used == name and (where != path or not first <= line <= last)
                         for used, where, line in uses)]
    assert not unused
