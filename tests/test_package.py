"""The package holds what a run uses.

Every top-level ``def``, ``class`` and ``NAME =`` in a module of ``src/hidlr``
must be used somewhere in ``src/hidlr``, ``scripts/`` or ``perfbench/``.
References that only the tests need live under ``tests/`` (``oracle.py``,
``conftest.py``). A use is a loaded name or an attribute name; imports and
``__all__`` strings are not uses. String constants in ``perfbench/`` count,
because its tracer binds package functions by name.

The modules of ``src/hidlr`` also import each other without a cycle, counting
imports made inside functions.
"""

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "hidlr"
USERS = (PACKAGE, REPO_ROOT / "scripts", REPO_ROOT / "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """Top-level names defined in every non-``__init__`` module of the package."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _uses():
    names = set()
    for root in USERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    root.name == "perfbench"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    names.add(node.value)
    return names


def test_every_package_definition_has_a_use_outside_the_tests():
    defined = _definitions()
    assert {"hidlr_step", "run_experiment", "LossProblem"} <= defined
    unused = sorted(defined - _uses())
    assert unused == [], f"defined in src/hidlr, used by no run: {unused}"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_graph():
    """Each package module -> the package modules its import statements name.

    Imports inside functions count. ``from .x import y`` names the submodule
    ``x.y`` where one exists, else the module ``x``.
    """
    paths = {_module_name(path): path for path in PACKAGE.rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        targets = set()
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package.split(".")
                base = base[: len(base) - node.level + 1] if node.level else []
                source = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    sub = f"{source}.{alias.name}"
                    targets.add(sub if sub in paths else source)
        graph[name] = sorted(targets & paths.keys())
    return graph


def _cycles(graph):
    """Each cycle a depth-first walk closes, as ``a → b → a``."""
    cycles, done, stack = [], set(), []

    def visit(node):
        stack.append(node)
        for nxt in graph[node]:
            if nxt in stack:
                cycles.append(" → ".join(stack[stack.index(nxt):] + [nxt]))
            elif nxt not in done:
                visit(nxt)
        stack.pop()
        done.add(node)

    for node in sorted(graph):
        if node not in done:
            visit(node)
    return cycles


def test_package_has_no_import_cycle():
    graph = _import_graph()
    assert "hidlr.controller" in graph["hidlr.harness.runner"]
    assert "hidlr.controller" in graph["hidlr.harness.cli"]  # from .. import controller
    cycles = _cycles(graph)
    assert cycles == [], f"import cycles in src/hidlr: {cycles}"
