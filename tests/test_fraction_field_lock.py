"""Only ``rings`` may name ``FracElem`` or ``Dual``, ``cech`` names no
``Fraction``, and no module names the helpers that only tests use.

No module of the package builds a fraction-field element or a dual number
any more: the cocycle layer works over Laurent polynomials in its line
symbol, the moment layer in Lie-algebra coordinates, and ``matrix``
eliminates over Q only.  ``rings`` still defines both classes for the test
oracles.  The Cech layer works on integer matrices.  ``split_linear``,
the polynomial view of a section, the per-representation Euler pair, the
map-by-map joint kernel, the lazy Bareiss Gauss-Jordan (``_rref_int``,
``_reduce``) and the per-pair bracket loop (``pairwise_brackets``) live
beside the oracles that use them, and ``moment`` names neither the dense
Gram view nor the algebra's coordinate solve.  The removed copies of a rule
stay out of the package: ``_clear_denominators`` (``matrix._cleared`` alone
decides what is rational), ``check_glue_at_config`` (``check_glue`` serves
the off-grid glue case), ``_inverse_rows``, ``_cleared_rows`` and
``_integer_flats`` (``matrix._cleared_inverse`` alone eliminates [X | I],
clearing row by row), ``_CoordinateSolver`` and ``_coord_solver`` (the
algebra solves its own coordinates) and ``_pairing_forms``
(``moment._polarized`` alone polarizes a form), and ``cocycle``
reads ``LaurentPoly.terms`` as they are, never the per-power ``coeffs``
view.  The check walks the syntax tree with the standard library, like
``test_unused_imports``.
"""

import ast
from pathlib import Path

import pytest

from spinorlab.petri import SectionSpace

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorlab"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"FracElem": {"rings.py"}, "Dual": {"rings.py"}}
TEST_ONLY = {
    "split_linear",
    "section_polys",
    "coords_from_polys",
    "pair_euler_for_rep",
    "_iterative_kernel",
    "iterative_kernel",
    "_rref_int",
    "_reduce",
    "pairwise_brackets",
}
REMOVED = {
    "_clear_denominators",
    "check_glue_at_config",
    "_inverse_rows",
    "_cleared_rows",
    "_CoordinateSolver",
    "_coord_solver",
    "_integer_flats",
    "_pairing_forms",
}


def named(source: str) -> set:
    """Identifiers a module names or defines: names, attributes, imported
    names, quoted annotations, functions and classes."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
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
        "class FracElem:\n    pass\n",
    ):
        assert "FracElem" in named(source)
    assert "FracElem" not in named('"""Works without a FracElem."""\n')


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_fraction_field_and_dual_stay_in_their_modules(path):
    names = named(path.read_text())
    assert sorted(cls for cls, where in ALLOWED.items() if cls in names and path.name not in where) == []


def test_cech_works_without_fraction():
    assert "Fraction" not in named((SRC / "cech.py").read_text())


def test_cech_models_check_themselves_when_built():
    """Models and morphisms check their invariants in ``__init__``: no lazy,
    cached ``validate`` is left to call."""
    assert sorted({"validate", "_validated"} & named((SRC / "cech.py").read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_test_only_helpers_stay_beside_the_tests(path):
    assert sorted(TEST_ONLY & named(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_removed_copies_stay_out_of_the_package(path):
    assert sorted(REMOVED & named(path.read_text())) == []


def test_cocycle_reads_laurent_terms_as_they_are():
    """``cocycle`` reads and builds Laurent polynomials through their one
    layout, the flat ``(e, m): q`` terms: it regroups nothing by power."""
    assert "coeffs" not in named((SRC / "cocycle.py").read_text())


def test_moment_builds_no_dense_gram():
    """``MomentContext`` inverts the nonzeros of the trace form through
    ``matrix._cleared_inverse``: it neither reads the dense Gram view nor
    borrows the algebra's coordinate solve to invert it."""
    assert sorted({"trace_gram", "_solver", "_scaled_coords"} & named((SRC / "moment.py").read_text())) == []


def test_section_space_does_not_evaluate():
    assert not hasattr(SectionSpace, "evaluate")
