"""Every name a module of the package imports is used in that module.

No linter is a dependency of this project, so the check walks the syntax tree
with the standard library.  ``__init__.py`` imports to re-export and is
skipped, as are ``from __future__`` imports.

A second check asks the same of private helpers: every module-level
function or class whose name starts with ``_`` is named somewhere in the
package outside its own definition, as a ``Name``, an ``Attribute`` or an
imported alias.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "ExactMatrix" name a class without a Name node
    used |= {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import gcd, lcm\nprint(lcm)\n"
    assert unused_imports(source) == [(2, "os"), (3, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names_in(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
            if sub.asname:
                names.add(sub.asname)
    return names


def dead_private_helpers(sources):
    """(module, name) for each module-level ``_``-prefixed function or class
    in ``sources`` ({module: source}) that no other statement names."""
    statements = [
        (module, stmt)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
    ]
    names = [_names_in(stmt) for _, stmt in statements]
    dead = []
    for k, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_"):
            continue
        if not any(stmt.name in used for i, used in enumerate(names) if i != k):
            dead.append((module, stmt.name))
    return sorted(dead)


def test_guard_flags_a_dead_private_helper():
    sources = {
        "a": (
            "def _called():\n    pass\n"
            "def _imported():\n    pass\n"
            "def _as_attribute():\n    pass\n"
            "def _only_itself(k):\n    return _only_itself(k - 1)\n"
            "class _Orphan:\n    pass\n"
            "def public():\n    return _called()\n"
        ),
        "b": "from .a import _imported\nfrom . import a\nx = a._as_attribute\n",
    }
    assert dead_private_helpers(sources) == [("a", "_Orphan"), ("a", "_only_itself")]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_helpers(sources) == []
