"""Closure of a matrix Lie algebra by membership and count, and the
structure constants built on first read.

- A basis of d(d+1)/2 independent elements of sp(Omega), Omega the standard
  form of an even size d, spans sp(Omega), which is closed: such a basis is
  accepted at construction with no bracket solved, and its flat table
  ``_constants`` is built on first read.  That table equals the all-pairs
  oracle of ``tests/lie_oracles.py`` (``dense_constants``), values and
  types, for sp(2) to sp(8), for sl2 and for a basis of sp(4) conjugated
  by a rational symplectic matrix.
- Every other basis has all of its brackets solved at construction: a
  basis of the right count with one element outside sp(Omega) still
  raises when it is not closed, and a dependent basis raises.
- The pair rule on nonzeros (``matrix._in_standard_sp``) agrees with the
  dense product X^T Omega + Omega X (``matrix_oracles.dense_in_sp``).
- ``verify_symplectic_rep`` reads sp-membership from the nonzeros of each
  image against the standard form, and its verdicts are the dense ones.
- In a fresh interpreter: a petri run builds no table, no coordinate
  solver and no moment context over sp(2n), and a moment-equivariance run
  builds one table and one solver per algebra, which every context reads.
"""

import ast
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinorlab
from lie_oracles import dense_constants, flattened
from matrix_oracles import dense_in_sp, exactly_equal
from spinorlab import lie
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    conjugate_rep,
    direct_sum,
    rep_from_text,
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
from spinorlab.matrix import ExactMatrix, _in_standard_sp, inverse, random_symplectic, standard_omega

SRC = Path(spinorlab.__file__).resolve().parent.parent

E = ExactMatrix([[0, 1], [0, 0]])
F = ExactMatrix([[0, 0], [1, 0]])
H = ExactMatrix([[1, 0], [0, -1]])
I2 = ExactMatrix.identity(2)


def conjugated_sp4():
    """The basis of sp(4) conjugated by g X g^-1, g a rational symplectic
    matrix: every entry a Fraction, the basis still in sp(Omega)."""
    g = random_symplectic(2, 0)
    ginv = inverse(g)
    return [g * X * ginv for X in sp_algebra(2).basis]


PROVED = {
    **{f"sp{2 * n}": (lambda n=n: sp_algebra(n).basis) for n in range(1, 5)},
    "sl2": lambda: sl2_algebra().basis,
    "sp4-conjugated": conjugated_sp4,
}


@pytest.mark.parametrize("name", list(PROVED))
def test_proved_basis_builds_its_table_on_first_read(name):
    basis = PROVED[name]()
    alg = MatrixLieAlgebra(basis)
    assert "_constants" not in alg.__dict__
    got = alg._constants
    assert exactly_equal(got, dense_constants(basis, alg._den))
    kind = Fraction if name == "sp4-conjugated" else int
    assert all(type(c) is kind for *_, c in got)


@pytest.mark.parametrize("n", range(1, 5))
def test_package_constructors_take_the_proof(n):
    """``sp_algebra`` and ``sl2_algebra`` as the package builds them, and the
    algebra ``rep_from_text`` reads back, are accepted unsolved."""
    for alg in (
        lie._sparse(MatrixLieAlgebra, sp_algebra(n)._flat, 2 * n, "sp"),
        lie._sparse(MatrixLieAlgebra, sl2_algebra()._flat, 2, "sl2"),
        rep_from_text(rep_to_text(sp_standard(n))).algebra,
    ):
        assert "_constants" not in alg.__dict__
        assert exactly_equal(alg._constants, dense_constants(alg.basis, alg._den))
    alg = sp_algebra(n)
    assert exactly_equal(alg._constants, dense_constants(alg.basis, alg._den))


def test_right_count_with_an_element_outside_sp_raises():
    """{e, f, I}: three 2 x 2 elements, as many as sp(2) has, but I is not in
    sp(2); the all-pairs check finds [e, f] = h outside the span."""
    assert not dense_in_sp(I2)
    with pytest.raises(ValueError, match="not closed under the bracket"):
        MatrixLieAlgebra([E, F, I2])


def test_sp4_with_one_element_moved_outside_sp_raises():
    basis = list(sp_algebra(2).basis)
    basis[-1] = basis[-1] + ExactMatrix.identity(4)
    with pytest.raises(ValueError, match="not closed under the bracket"):
        MatrixLieAlgebra(basis)


@pytest.mark.parametrize(
    "basis",
    [[E, F, E + F], list(sp_algebra(2).basis[:-1]) + [sp_algebra(2).basis[0] + sp_algebra(2).basis[1]]],
    ids=["sl2", "sp4"],
)
def test_dependent_basis_of_the_right_count_raises(basis):
    assert all(dense_in_sp(X) for X in basis)
    with pytest.raises(ValueError, match="linearly dependent"):
        MatrixLieAlgebra(basis)


@pytest.mark.parametrize(
    "name, basis",
    [
        ("outside sp", [E, H, I2]),
        ("short of sp", [H]),
        ("sp2 + sp2 in sp4", [sp_algebra(2).basis[k] for k in (0, 1, 4, 7, 8, 9)]),
        ("odd size", [lie._combination((1,), (f,), 3) for f in lie._sym_power(2)]),
    ],
)
def test_every_other_closed_basis_is_solved_at_construction(name, basis):
    """A closed basis outside the proof has its table built, and so every
    bracket checked, by the constructor itself."""
    alg = MatrixLieAlgebra(basis)
    assert "_constants" in alg.__dict__
    assert exactly_equal(alg._constants, dense_constants(basis, alg._den))


def _member(n, rng):
    X = ExactMatrix.zeros(2 * n, 2 * n)
    for B in sp_algebra(n).basis:
        X = X + B.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return X


@pytest.mark.parametrize("n", range(1, 5))
def test_pair_rule_on_nonzeros_matches_the_dense_product(n):
    """Random members pass; changing one entry fails exactly where the dense
    product says so (an entry X[a][a^1] is free), and so do random
    matrices."""
    rng = random.Random(n)
    d = 2 * n
    for _ in range(2):
        X = _member(n, rng)
        assert _in_standard_sp(flattened(X), d) and dense_in_sp(X)
        for r in range(d):
            for c in range(d):
                rows = [list(row) for row in X.entries]
                rows[r][c] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
                Y = ExactMatrix(rows)
                assert _in_standard_sp(flattened(Y), d) is dense_in_sp(Y) is (c == r ^ 1)
        R = ExactMatrix([[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)])
        assert _in_standard_sp(flattened(R), d) is dense_in_sp(R)


_SHEAR = ExactMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]])

BUILT_IN = {
    **{f"sp_standard({n})": (lambda n=n: sp_standard(n)) for n in range(1, 5)},
    "sl2_standard": sl2_standard,
    "sl2_w_plus_wdual": sl2_w_plus_wdual,
    "sl2_sym_cube": sl2_sym_cube,
    "trivial_rep(sp4)": lambda: trivial_rep(sp_algebra(2)),
    "direct_sum(W+W*, Sym3)": lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
    "conjugate_rep(sp4)": lambda: conjugate_rep(sp_standard(2), random_symplectic(2, 3)),
    "conjugate_rep(Sym3)": lambda: conjugate_rep(sl2_sym_cube(), _SHEAR),
}


def _membership(report):
    return [ok for name, ok in report.checks if name.startswith("sp-membership")]


def _corrupted(rep):
    """A copy of rep with entry (0, 0) of the first image raised by one,
    through the public constructor: outside sp(omega) for every
    nondegenerate omega, whose row 0 is not zero."""
    rho = [[list(row) for row in R.entries] for R in rep.rho]
    rho[0][0][0] += 1
    return SymplecticRep(rep.algebra, rep.omega, [ExactMatrix(R) for R in rho], rep.summands, rep.name)


@pytest.mark.parametrize("name", list(BUILT_IN))
def test_membership_verdicts_are_the_dense_ones(name):
    rep = BUILT_IN[name]()
    for r in (rep, _corrupted(rep)):
        got = _membership(verify_symplectic_rep(r))
        assert got == [dense_in_sp(R, r.omega) for R in r.rho]
    assert all(_membership(verify_symplectic_rep(rep)))
    assert not all(_membership(verify_symplectic_rep(_corrupted(rep))))


def test_verifying_the_standard_rep_builds_no_dense_view():
    alg = sp_algebra(4)
    rep = lie._sparse(SymplecticRep, alg, standard_omega(4), alg._flat, [Summand("irreducible", 0, 8)], "sp8-standard")
    assert verify_symplectic_rep(rep).passed
    assert "rho" not in rep.__dict__


PROBE = """
import sys
sys.path.insert(0, {src!r})
from spinorlab import moment, petri
from spinorlab.lie import MatrixLieAlgebra, Summand, SymplecticRep, _sparse, sl2_algebra, sp_algebra
from spinorlab.matrix import standard_omega
from spinorlab.suites import SuiteConfig, run_suite

built = []
table = MatrixLieAlgebra.__dict__["_constants"]
build = table.func
table.func = lambda alg: built.append(alg.name) or build(alg)
solvers = []
solver = MatrixLieAlgebra.__dict__["_solver"]
build_solver = solver.func
solver.func = lambda alg: solvers.append(alg.name) or build_solver(alg)
contexts = []
init = moment.MomentContext.__init__
def recording(self, *args, **kwargs):
    contexts.append(self)
    init(self, *args, **kwargs)
moment.MomentContext.__init__ = recording
out = {{}}

report = run_suite(SuiteConfig("petri", n=4, s=4, trials=2, seed=1))
out["petri"] = (
    report.failed,
    built[:],
    "_constants" in sp_algebra(4).__dict__,
    solvers[:],
    "_solver" in sp_algebra(4).__dict__,
    [ctx.rep.name for ctx in contexts],
)

contexts.clear()
alg = sp_algebra(16)
rep = _sparse(SymplecticRep, alg, standard_omega(16), alg._flat, [Summand("irreducible", 0, 32)], "sp32-standard")
kernel = petri.petri_kernel(petri.SectionSpace(rep, 2), [k % 5 - 2 for k in range(64)])
out["petri_kernel"] = (len(kernel), built[:], "_constants" in alg.__dict__, solvers[:], len(contexts))

contexts.clear()
report = run_suite(SuiteConfig("moment-equivariance", n=4, trials=3, seed=1))
algebras = [sp_algebra(4), sl2_algebra()]
out["moment"] = (
    report.failed,
    built[:],
    [[i for i, a in enumerate(algebras) if a is ctx.rep.algebra] for ctx in contexts],
    ["_constants" in vars(ctx) for ctx in contexts],
    solvers[:],
)
print(out)
"""


def test_fresh_interpreter_builds_each_table_only_when_read():
    probe = PROBE.format(src=str(SRC))
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = ast.literal_eval(done.stdout)
    # petri reads no structure constant and builds no coordinate solver, at
    # n = 4 and at n = 16; its only context is the one of the W + W* scaling
    # check, none over sp(2n)
    assert out["petri"] == (0, [], False, [], False, ["sl2-W+W*"])
    assert out["petri_kernel"] == (0, [], False, [], 0)
    # one build of each table per algebra: sl2's serves both sl2 contexts,
    # and no context holds a copy
    assert out["moment"] == (0, ["sp8", "sl2"], [[0], [1], [1]], [False, False, False], ["sp8", "sl2"])
