"""Every module in ``src/repro`` is reachable from an entry point.

The entry points are the ``specasr`` console script and ``python -m repro``
(``repro.cli``, ``repro.__main__``) and every script under ``tools/``,
``perfbench/``, ``examples/`` and ``benchmarks/``.  The walk follows the
static import graph: ``from x import y`` reaches the submodule ``x.y`` when
one exists, and importing a module also runs its parent packages.  A module
no walk reaches is code that only tests run.

The entry points perfbench traces are checked by name as well, so a
renamed, deleted or inherited method fails here rather than in the
benchmark's trace step.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("tools", "perfbench", "examples", "benchmarks")


def _modules() -> dict[str, Path]:
    """Dotted name -> source file of every module in ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _with_parents(name: str, modules: dict[str, Path]) -> set[str]:
    """``name`` and each parent package of it that is a ``repro`` module."""
    parts = name.split(".")
    prefixes = (".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return {prefix for prefix in prefixes if prefix in modules}


def _imports(path: Path, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules that executing ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name | ast.Attribute):
            ident = node.id if isinstance(node, ast.Name) else node.attr
            # a dynamic import would hide edges from this walk
            assert ident not in ("__import__", "import_module"), path
    return {module for name in names for module in _with_parents(name, modules)}


def _unreachable() -> list[str]:
    modules = _modules()
    stack = [m for name in ENTRY_MODULES for m in _with_parents(name, modules)]
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            stack.extend(_imports(path, modules))
    reached: set[str] = set()
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(_imports(modules[name], modules) - reached)
    return sorted(set(modules) - reached)


def test_every_module_is_reachable_from_an_entry_point():
    assert _unreachable() == []


def test_perfbench_entry_points_resolve():
    """Every ``(layer, owner, attribute)`` perfbench traces exists where
    its tracer patches it: the tracer replaces ``cls.__dict__[attribute]``,
    so a class owner must define the method itself (an inherited one fails
    the trace step), and a module owner must have the attribute."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from workloads import entry_points
    finally:
        sys.path.remove(perfbench)
    missing = []
    for layer, owner, attribute in entry_points():
        if isinstance(owner, type):
            present = attribute in vars(owner)
        else:
            present = hasattr(owner, attribute)
        if not present:
            missing.append(f"{layer}: {owner.__name__}.{attribute}")
    assert missing == []
