"""The package holds what a run uses.

Every top-level ``def``, ``class`` and ``NAME =`` in a module of ``src/hidlr``
must be used somewhere in ``src/hidlr``, ``scripts/`` or ``perfbench/``.
References that only the tests need live under ``tests/`` (``oracle.py``,
``conftest.py``). A use is a loaded name or an attribute name; imports and
``__all__`` strings are not uses. String constants in ``perfbench/`` count,
because its tracer binds package functions by name.
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
