"""Only ``rings`` may name ``FracElem`` or ``Dual``, and ``cech`` names no
``Fraction``.

No module of the package builds a fraction-field element or a dual number
any more: the cocycle layer works over Laurent polynomials in its line
symbol, the moment layer in Lie-algebra coordinates, and ``matrix``
eliminates over Q only.  ``rings`` still defines both classes for the test
oracles.  The Cech layer works on integer matrices.  The check walks the
syntax tree with the standard library, like ``test_unused_imports``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorlab"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"FracElem": {"rings.py"}, "Dual": {"rings.py"}}


def named(source: str) -> set:
    """Identifiers a module names: names, attributes, imported names and
    quoted annotations."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name.split(".")[-1])
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def test_guard_flags_every_kind_of_reference():
    for source in (
        "from .rings import FracElem\n",
        "import spinorlab.rings as r\nx = r.FracElem(1)\n",
        "def f(x: 'FracElem'): pass\n",
        "from .rings import FracElem as F\n",
    ):
        assert "FracElem" in named(source)
    assert "FracElem" not in named('"""Works without a FracElem."""\n')


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_fraction_field_and_dual_stay_in_their_modules(path):
    names = named(path.read_text())
    assert sorted(cls for cls, where in ALLOWED.items() if cls in names and path.name not in where) == []


def test_cech_works_without_fraction():
    assert "Fraction" not in named((SRC / "cech.py").read_text())
