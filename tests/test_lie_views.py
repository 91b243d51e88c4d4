"""Lie algebras and representations store only the nonzeros of their
matrices: ``MatrixLieAlgebra._flat`` and ``SymplecticRep._rho_flat``.
``basis`` and ``rho`` keep the matrices given to the public constructors,
and are otherwise dense views built from the nonzeros on first read.

The constructors that write nonzeros directly (``sp_algebra``,
``sp_standard``, ``sl2_algebra``, ``sl2_standard``, ``sl2_w_plus_wdual``,
``sl2_sym_cube``, ``trivial_rep`` and ``direct_sum``) are checked against
their dense bodies in ``tests/lie_oracles.py``; their text forms against
digests taken from the dense constructors; and the suites are checked to
read no dense view of sp(2n), of sl2 or of their built-in representations.
"""

import copy
import hashlib
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinorlab
from lie_oracles import (
    dense_direct_sum,
    dense_sl2_algebra,
    dense_sl2_standard,
    dense_sl2_sym_cube,
    dense_sl2_w_plus_wdual,
    dense_sp_basis,
    dense_sp_standard,
    dense_trivial_rep,
    flattened,
)
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    conjugate_rep,
    direct_sum,
    rep_to_text,
    sl2_algebra,
    sl2_standard,
    sl2_sym_cube,
    sl2_w_plus_wdual,
    sp_algebra,
    sp_standard,
    trivial_rep,
    verify_symplectic_rep,
)
from spinorlab.matrix import ExactMatrix, standard_omega

SHEAR = ExactMatrix([[1, Fraction(1, 2)], [0, 1]])


def typed_items(flats):
    """Each map's (position, type, value) in its own order."""
    return [[(p, type(x), x) for p, x in f.items()] for f in flats]


def typed_entries(mats):
    return [[[(type(x), x) for x in row] for row in M.entries] for M in mats]


@pytest.mark.parametrize("n", range(1, 9))
def test_sp_nonzeros_are_the_flattened_dense_basis(n):
    alg = sp_algebra(n)
    assert typed_items(alg._flat) == typed_items(flattened(X) for X in dense_sp_basis(n))
    assert typed_entries(alg.basis) == typed_entries(dense_sp_basis(n))


# each constructor that writes nonzeros, beside its dense body
SPARSE_AND_DENSE = {
    **{f"sp_standard({n})": (lambda n=n: sp_standard(n), lambda n=n: dense_sp_standard(n)) for n in (1, 2, 3, 4)},
    "sl2_standard()": (sl2_standard, dense_sl2_standard),
    "trivial_rep(sl2_algebra())": (
        lambda: trivial_rep(sl2_algebra.__wrapped__()),
        lambda: dense_trivial_rep(dense_sl2_algebra()),
    ),
    "sl2_w_plus_wdual()": (sl2_w_plus_wdual.__wrapped__, dense_sl2_w_plus_wdual),
    "sl2_sym_cube()": (sl2_sym_cube.__wrapped__, dense_sl2_sym_cube),
    "trivial_rep(sl2_algebra(), 2)": (lambda: trivial_rep(sl2_algebra(), 2), lambda: dense_trivial_rep(sl2_algebra(), 2)),
    "trivial_rep(sp_algebra(2))": (lambda: trivial_rep(sp_algebra(2)), lambda: dense_trivial_rep(sp_algebra(2))),
    "direct_sum(W+W*, Sym3)": (
        lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
        lambda: dense_direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
    ),
    "direct_sum(conjugated, trivial)": (
        lambda: direct_sum(conjugate_rep(sl2_standard(), SHEAR), trivial_rep(sl2_algebra())),
        lambda: dense_direct_sum(conjugate_rep(dense_sl2_standard(), SHEAR), dense_trivial_rep(sl2_algebra())),
    ),
    "direct_sum(direct_sum(standard, Sym3), trivial)": (
        lambda: direct_sum(direct_sum(sl2_standard(), sl2_sym_cube()), trivial_rep(sl2_algebra(), 2)),
        lambda: dense_direct_sum(
            dense_direct_sum(dense_sl2_standard(), sl2_sym_cube()), dense_trivial_rep(sl2_algebra(), 2)
        ),
    ),
    "direct_sum(sp_standard(2), trivial)": (
        lambda: direct_sum(sp_standard(2), trivial_rep(sp_algebra(2))),
        lambda: dense_direct_sum(sp_standard(2), dense_trivial_rep(sp_algebra(2))),
    ),
}


@pytest.mark.parametrize("name", list(SPARSE_AND_DENSE))
def test_constructor_is_its_dense_body(name):
    sparse, dense = SPARSE_AND_DENSE[name]
    got, want = sparse(), dense()
    assert typed_items(got._rho_flat) == typed_items(want._rho_flat)
    assert typed_entries(got.rho) == typed_entries(want.rho)
    assert typed_entries([got.omega]) == typed_entries([want.omega])
    assert (got.summands, got.name, got.dimV) == (want.summands, want.name, want.dimV)
    assert typed_items(got.algebra._flat) == typed_items(want.algebra._flat)
    assert typed_entries(got.algebra.basis) == typed_entries(want.algebra.basis)
    assert got.algebra.structure_constants == want.algebra.structure_constants
    assert rep_to_text(got) == rep_to_text(want)
    assert verify_symplectic_rep(got) == verify_symplectic_rep(want)
    assert verify_symplectic_rep(got).passed


# sha256 of rep_to_text, taken from the dense constructors
TEXT_DIGESTS = {
    **{f"sp_standard({n})": lambda n=n: sp_standard(n) for n in (1, 2, 3, 4)},
    "sl2_standard()": sl2_standard,
    "sl2_w_plus_wdual()": sl2_w_plus_wdual,
    "sl2_sym_cube()": sl2_sym_cube,
    "trivial_rep(sl2_algebra(), 2)": lambda: trivial_rep(sl2_algebra(), 2),
    "direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())": lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
    "direct_sum(conjugate_rep(sl2_standard(), SHEAR), trivial_rep(sl2_algebra()))": lambda: direct_sum(
        conjugate_rep(sl2_standard(), SHEAR), trivial_rep(sl2_algebra())
    ),
}
DIGESTS = {
    "sp_standard(1)": "55b100e565de0edf64da7d3c5de033fde822c6a32e67e40d1bece7c81a8c6dc3",
    "sp_standard(2)": "af0226988f4f13234a50aac2c0c5c8e12e48d8d4e823337ca1caa6a024579db5",
    "sp_standard(3)": "17dbb0d3f4692cd237abb3e8e7c8060d9ed7cc30777ab2bbe103f344b2340693",
    "sp_standard(4)": "703c5a30886e35e9d2bc441b97f71cbdf2c7053c1198da8bcdf1748dd592fc5a",
    "sl2_standard()": "f41cef648a5563c2ffd67b5d7c996b04d9a4c94211d740060dd6d38c4b16889c",
    "sl2_w_plus_wdual()": "ff2882db31422c685e68f7ccadcaca368003eedede968238368a27fb4f2540b7",
    "sl2_sym_cube()": "66226196b5f88998ceffe0a5bef1fa2c9bc8c2c2b9ef044dd90f8bb38a77205b",
    "trivial_rep(sl2_algebra(), 2)": "fbfc84d5fded7e058038004486220f71e2b8469cf20890878d6a4567f72375fa",
    "direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())": "bbb9bf6a14bac058ceb057886f45549537eaa209167a803d49eb44d24e2d10d6",
    "direct_sum(conjugate_rep(sl2_standard(), SHEAR), trivial_rep(sl2_algebra()))": (
        "3c061936e226e9d8d2fac2086c0983cd01c8ef072b2d9576e46781a2a7604cc7"
    ),
}


@pytest.mark.parametrize("name", list(TEXT_DIGESTS))
def test_text_form_is_unchanged(name):
    assert hashlib.sha256(rep_to_text(TEXT_DIGESTS[name]()).encode()).hexdigest() == DIGESTS[name]


def test_direct_sum_compares_the_algebras_by_their_nonzeros():
    """An equal but distinct algebra is common; sp(2) in its own basis is
    not sl2, and nonzeros at the same positions of a different ambient size
    are a different algebra."""
    twin = MatrixLieAlgebra(list(sl2_algebra().basis))
    assert direct_sum(sl2_standard(), trivial_rep(twin)).algebra is sl2_algebra()
    with pytest.raises(ValueError, match="common algebra"):
        direct_sum(sl2_standard(), trivial_rep(sp_algebra(1)))
    e01 = [ExactMatrix([[0, 1], [0, 0]])], [ExactMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])]
    a2, a3 = (MatrixLieAlgebra(b) for b in e01)
    assert a2._flat == a3._flat
    with pytest.raises(ValueError, match="common algebra"):
        direct_sum(trivial_rep(a2), trivial_rep(a3))


def test_public_constructors_keep_the_given_matrices():
    mats = dense_sp_basis(1)
    alg = MatrixLieAlgebra(mats)
    rep = SymplecticRep(alg, standard_omega(1), mats, [Summand("irreducible", 0, 2)])
    assert all(a is b for a, b in zip(alg.basis, mats))
    assert all(a is b for a, b in zip(rep.rho, mats))


def test_a_rho_image_of_the_wrong_size_is_rejected():
    """Nonzeros are keyed by position in a dimV x dimV matrix, so an image
    of another size is refused before it is flattened."""
    alg = sl2_algebra()
    for bad in (ExactMatrix.zeros(3, 3), ExactMatrix.zeros(2, 3)):
        with pytest.raises(ValueError, match="dimV x dimV"):
            SymplecticRep(alg, standard_omega(1), [bad, *alg.basis[1:]], [Summand("irreducible", 0, 2)])


def test_views_are_built_once_on_first_read():
    alg = sp_algebra.__wrapped__(2)
    rep = sp_standard.__wrapped__(2)
    assert "basis" not in vars(alg) and "rho" not in vars(rep)
    assert alg.basis is alg.basis and rep.rho is rep.rho
    assert "basis" in vars(alg) and "rho" in vars(rep)


def pickled(x):
    return pickle.loads(pickle.dumps(x))


# (factory, nonzeros, view): algebras and representations of both paths
SUBJECTS = {
    "sp_algebra(2)": (lambda: sp_algebra.__wrapped__(2), "_flat", "basis"),
    "MatrixLieAlgebra(sl2)": (lambda: MatrixLieAlgebra(sl2_algebra().basis, name="sl2"), "_flat", "basis"),
    "sp_standard(2)": (lambda: sp_standard.__wrapped__(2), "_rho_flat", "rho"),
    "trivial_rep(sl2)": (lambda: trivial_rep(sl2_algebra()), "_rho_flat", "rho"),
    "direct_sum(W+W*, Sym3)": (lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()), "_rho_flat", "rho"),
    "conjugate_rep": (lambda: conjugate_rep(sl2_standard(), SHEAR), "_rho_flat", "rho"),
}


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("round_trip", [pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("name", list(SUBJECTS))
def test_round_trip_keeps_nonzeros_and_views(name, round_trip, read_first):
    make, flat, view = SUBJECTS[name]
    x = make()
    if read_first:
        getattr(x, view)
    y = round_trip(x)
    assert y is not x and (view in vars(y)) == (view in vars(x))
    assert typed_items(getattr(y, flat)) == typed_items(getattr(x, flat))
    assert typed_entries(getattr(y, view)) == typed_entries(getattr(x, view))
    if view == "rho":
        assert typed_items(y.algebra._flat) == typed_items(x.algebra._flat)
        assert (y.omega, y.summands, y.name) == (x.omega, x.summands, x.name)
        assert verify_symplectic_rep(y) == verify_symplectic_rep(x)
    else:
        assert y.structure_constants == x.structure_constants
        assert y.coordinates_of(x.basis[-1]) == tuple(int(j == x.dim - 1) for j in range(x.dim))


SUITES_READ_NO_VIEW = """
import sys
sys.path.insert(0, {src!r})
from spinorlab.lie import MatrixLieAlgebra, sl2_algebra, sl2_sym_cube, sl2_w_plus_wdual, sp_algebra, sp_standard
from spinorlab.suites import SuiteConfig, run_suite

def refuse(self):
    raise RuntimeError("dense Gram read")

MatrixLieAlgebra.trace_gram = refuse
for cfg in (
    SuiteConfig("moment-equivariance", n=4, trials=3, seed=2),
    SuiteConfig("petri", n=4, s=4, trials=2, seed=2),
    SuiteConfig("all", n=2, s=2, trials=2, seed=2),
):
    report = run_suite(cfg)
    if report.failures:
        sys.exit(f"{{cfg.suite}} failed: {{report.failures}}")
print(sorted(
    (n, "basis" in vars(sp_algebra(n)), "rho" in vars(sp_standard(n)))
    for n in range(1, 5)
))
print(["basis" in vars(sl2_algebra()), "rho" in vars(sl2_w_plus_wdual()), "rho" in vars(sl2_sym_cube())])
"""


def test_suites_read_no_dense_view_of_sp():
    """The suite path works on nonzeros only: after moment-equivariance,
    petri and every suite, neither sp(2n) nor its standard representation
    has built its dense view, nor have sl2, W + W* and Sym^3, and the moment
    contexts are set up from the nonzeros of the trace form: a call of
    ``trace_gram`` raises inside a case and fails it.  Run in a fresh
    interpreter, since the constructors and contexts are cached across this
    test session."""
    src = str(Path(spinorlab.__file__).resolve().parent.parent)
    probe = SUITES_READ_NO_VIEW.format(src=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str([(n, False, False) for n in range(1, 5)]), str([False] * 3)]
