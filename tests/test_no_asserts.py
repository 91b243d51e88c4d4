"""No module of the package checks anything with ``assert``.

``python -O`` strips assert statements, so a check written as one would pass
by accident; the package raises typed errors instead.  The check walks the
syntax tree with the standard library, like ``test_unused_imports``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorlab"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str):
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_guard_flags_an_assert():
    source = "def f(x):\n    assert x, 'never under -O'\n    return x\nassert_ok = True\n"
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []
