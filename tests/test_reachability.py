"""Every module under ``src/repro/`` is reached by a command or a benchmark.

The walk starts at the CLI entry points and at every ``.py`` file under
``benchmarks/`` and follows imports, read with :mod:`ast` only, so
nothing from ``repro`` is imported here.  Tests and examples do not
count: a module only they reach is code no user runs.  Importing
``a.b.c`` also runs the packages ``a`` and ``a.b``.  Only absolute
imports are followed; the package uses no relative ones.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.lint.__main__")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _with_parents(name):
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def _imports(path):
    """Every module name ``path`` imports, parents included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return set().union(*map(_with_parents, names))


def test_every_module_is_reached_by_a_command_or_benchmark():
    files = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    todo = set().union(*map(_with_parents, ENTRY_POINTS))
    for path in (ROOT / "benchmarks").rglob("*.py"):
        todo |= _imports(path) & files.keys()
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (_imports(files[name]) & files.keys()) - reached
    unreached = sorted(files.keys() - reached)
    assert not unreached, (
        f"modules no command or benchmark imports: {unreached}; delete "
        f"them, or reach them from repro.cli or benchmarks/")
