"""The coordinate moment layer against its oracles: the ambient-matrix
equivariance check and the dual-number differential (tests/moment_oracles.py),
and sympy for the row pick of the coordinate solver."""

import random
from fractions import Fraction

import pytest
import sympy

import petri_oracles
from cech_oracles import fraction_cleared_inverse
from lie_oracles import dense_constants
from matrix_oracles import exactly_equal
from moment_oracles import (
    ambient_equivariance_check,
    dual_moment_differential,
    fraction_context_fields,
    generic_quadratic_coords,
)
from spinorlab import petri
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    conjugate_rep,
    direct_sum,
    sl2_algebra,
    sl2_sym_cube,
    sl2_w_plus_wdual,
    sp_algebra,
    sp_standard,
)
from spinorlab.matrix import ExactMatrix, standard_omega
from spinorlab.matrix import _cleared_inverse
from spinorlab.moment import MomentContext, equivariance_check, moment_differential, moment_map
from spinorlab.rings import MultiPoly

_SHEAR = ExactMatrix(
    [
        [1, Fraction(1, 2), 0, 0],
        [0, 1, Fraction(-2, 3), 0],
        [0, 0, 1, 3],
        [Fraction(1, 5), 0, 0, 1],
    ]
)

def sl2_halved_standard():
    """sl2 on its standard module in the basis (e/2, h, f), whose structure
    constants are not all integers: [e/2, f] = h/2."""
    e, h, f = sl2_algebra().basis
    alg = MatrixLieAlgebra([e.scale(Fraction(1, 2)), h, f])
    return SymplecticRep(alg, standard_omega(1), alg.basis, [Summand("irreducible", 0, 2)])


def sl2_doubled_standard():
    """sl2 on its standard module in the basis (2e, h, f), whose coordinate
    solver clears its inverse with den 2: the constants are 2 c^k_ij."""
    e, h, f = sl2_algebra().basis
    alg = MatrixLieAlgebra([e.scale(2), h, f])
    return SymplecticRep(alg, standard_omega(1), alg.basis, [Summand("irreducible", 0, 2)])


REPS = {
    "sp2": lambda: sp_standard(1),
    "sp4": lambda: sp_standard(2),
    "sp6": lambda: sp_standard(3),
    "sp8": lambda: sp_standard(4),
    "sl2-W+W*": sl2_w_plus_wdual,
    "sl2-Sym3": sl2_sym_cube,
    "direct-sum": lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
    "conjugated": lambda: conjugate_rep(sl2_sym_cube(), _SHEAR),
    "sl2-halved": sl2_halved_standard,
    "sl2-doubled": sl2_doubled_standard,
}


def mixed_rational(rng):
    return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 5, 6, 7]))


def rand_poly(rng):
    terms = {(a, b): mixed_rational(rng) for a in range(2) for b in range(2) if rng.random() < 0.6}
    return MultiPoly(("x", "y"), terms)


@pytest.mark.parametrize("name", sorted(REPS))
@pytest.mark.parametrize("b_scale", [1, 5, Fraction(-2, 3)])
def test_equivariance_agrees_with_ambient_route(name, b_scale):
    rep = REPS[name]()
    if name == "conjugated":
        assert any(Fraction(x).denominator > 1 for R in rep.rho for r in R.entries for x in r)
    if name == "sl2-halved":
        assert rep.algebra.bracket_coords(0, 2) == {1: Fraction(1, 2)}
    if name == "sl2-doubled":
        assert rep.algebra._den == 2
    ctx = MomentContext(rep, b_scale=b_scale)
    rng = random.Random(sorted(REPS).index(name) * 10 + int(b_scale * 3))
    for t in range(6):
        psi = [mixed_rational(rng) for _ in range(rep.dimV)]
        if t % 2:
            xi = [mixed_rational(rng) for _ in range(rep.algebra.dim)]
        else:
            xi = [rng.randint(-3, 3) for _ in range(rep.algebra.dim)]
        ok, res = equivariance_check(ctx, psi, xi)
        ok_ref, res_ref = ambient_equivariance_check(ctx, psi, xi)
        assert ok and ok_ref
        assert res == res_ref


@pytest.mark.parametrize("name", sorted(REPS))
@pytest.mark.parametrize("b_scale", [1, 5, Fraction(-2, 3)])
def test_context_fields_match_the_fraction_route(name, b_scale):
    """Integer Gram-inverse rows and the gcd give the q, forms, rho and
    structure-constant entries of the Fraction route, with their types."""
    ctx = MomentContext(REPS[name](), b_scale=b_scale)
    want = fraction_context_fields(ctx.rep, b_scale)
    got = {field: getattr(ctx, field) for field in want}
    assert got == want
    assert type(ctx._q_inv) is Fraction
    for field in ("_Z", "_S", "_rho"):
        assert all(type(v) is int for *_, v in got[field])
    # the constants the check reads are the algebra's, not a copy
    alg = ctx.rep.algebra
    assert not hasattr(ctx, "_constants")
    want = dense_constants(alg.basis, alg._den)
    assert alg._constants == want
    if name != "sl2-halved":
        assert exactly_equal(alg._constants, want)
    assert all(type(v) is int for *_, v in alg._constants) is (name != "sl2-halved")


def test_context_builds_no_fraction_structure_constants():
    """``MomentContext`` and ``equivariance_check`` read the algebra's
    integer structure constants: the ``Fraction`` table is built only when
    something asks for it."""
    alg = MatrixLieAlgebra(sp_algebra(2).basis)
    rep = SymplecticRep(alg, standard_omega(2), alg.basis, [Summand("irreducible", 0, 4)])
    ok, _ = equivariance_check(MomentContext(rep), [1, Fraction(-2, 3), 3, 5], [Fraction(k + 1, 2) for k in range(10)])
    assert ok and alg._den == 1
    assert "structure_constants" not in alg.__dict__
    assert alg.structure_constants == sp_algebra(2).structure_constants
    assert "structure_constants" in alg.__dict__


@pytest.mark.parametrize("name", ["sp2", "sp4", "sl2-halved", "sl2-doubled"])
def test_corrupted_rho_fails_with_the_ambient_residual(name):
    rep = REPS[name]()
    rng = random.Random(sorted(REPS).index(name))
    bad0 = [list(r) for r in rep.rho[0].entries]
    bad0[0][1] += Fraction(1, 3)
    corrupted = SymplecticRep(
        rep.algebra, rep.omega, [ExactMatrix(bad0)] + list(rep.rho[1:]), rep.summands
    )
    ctx = MomentContext(corrupted)
    failures = 0
    for _ in range(10):
        psi = [mixed_rational(rng) for _ in range(rep.dimV)]
        xi = [mixed_rational(rng) for _ in range(rep.algebra.dim)]
        ok, res = equivariance_check(ctx, psi, xi)
        ok_ref, res_ref = ambient_equivariance_check(ctx, psi, xi)
        assert ok == ok_ref
        assert res == res_ref
        assert ok == res.is_zero
        failures += not ok
    assert failures > 0


@pytest.mark.parametrize("name", ["sp4", "sp6", "sl2-Sym3", "direct-sum", "conjugated"])
def test_differential_agrees_with_dual_route(name):
    rep = REPS[name]()
    ctx = MomentContext(rep)
    rng = random.Random(sorted(REPS).index(name))
    for _ in range(10):
        psi = [mixed_rational(rng) for _ in range(rep.dimV)]
        psidot = [mixed_rational(rng) for _ in range(rep.dimV)]
        assert moment_differential(ctx, psi, psidot) == dual_moment_differential(ctx, psi, psidot)
    for _ in range(3):
        psi = [rand_poly(rng) for _ in range(rep.dimV)]
        psidot = [rand_poly(rng) for _ in range(rep.dimV)]
        assert moment_differential(ctx, psi, psidot) == dual_moment_differential(ctx, psi, psidot)


def test_petri_matrix_unchanged_on_sp8(monkeypatch):
    space = petri.SectionSpace(sp_standard(4), 4)
    rng = random.Random(48)
    sections = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(space.dim)]
                for _ in range(2)]
    got = [petri.petri_matrix(space, psi).matrix for psi in sections]
    # the column-by-column route, with the dual-number differential in it
    monkeypatch.setattr(petri_oracles, "moment_differential", dual_moment_differential)
    want = [petri_oracles.multipoly_petri_matrix(space, psi) for psi in sections]
    assert got == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_coordinate_solver_rows_and_span(n):
    alg = sl2_algebra() if n == 0 else sp_algebra(n)
    _, inv = alg._solver
    flat = [[X.entries[p // alg.ambient_dim][p % alg.ambient_dim] for X in alg.basis]
            for p in range(alg.ambient_dim ** 2)]
    block = sympy.Matrix([flat[p] for p in inv])
    assert block.shape == (alg.dim, alg.dim)
    assert block.rank() == alg.dim

    rng = random.Random(alg.dim)
    coords = tuple(mixed_rational(rng) for _ in range(alg.dim))
    assert alg.coordinates_of(alg.from_coordinates(coords)) == coords
    # the identity has nonzero trace, so it lies outside every sl and sp
    assert alg.coordinates_of(ExactMatrix.identity(alg.ambient_dim)) is None
    outside = [[0] * alg.ambient_dim for _ in range(alg.ambient_dim)]
    outside[0][0] = 1
    assert alg.coordinates_of(ExactMatrix(outside)) is None


@pytest.mark.parametrize("name", sorted(REPS))
@pytest.mark.parametrize("b_scale", [1, 5, Fraction(-2, 3)])
def test_cleared_gram_inverse_matches_the_fraction_route(name, b_scale):
    """``matrix._cleared_inverse``, which ``MomentContext`` solves with, on
    the nonzeros of the trace-form Gram rows times b_scale: den and
    den G^-1 equal those read off the Fraction Gauss-Jordan inverse of the
    dense Gram matrix, keyed by the rows 0..D-1."""
    alg = REPS[name]().algebra
    den, inv = _cleared_inverse([{j: b_scale * x for j, x in row.items()} for row in alg._trace_form], alg.dim)
    want_den, N = fraction_cleared_inverse(alg.trace_gram().scale(b_scale))
    assert den == want_den
    assert inv == {k: {j: x for j, x in enumerate(row) if x} for k, row in enumerate(N.entries)}
    assert list(inv) == list(range(alg.dim))
    assert all(type(x) is int for row in inv.values() for x in row.values())


@pytest.mark.parametrize("name", sorted(REPS))
def test_coordinate_solver_clears_the_inverse_of_its_pivot_block(name):
    """The solver's den and den E, E the inverse of the basis restricted to
    its pivot positions, equal those read off the Fraction inverse."""
    alg = REPS[name]().algebra
    solver_den, inv = alg._solver
    d = alg.ambient_dim
    block = ExactMatrix([[X.entries[p // d][p % d] for p in inv] for X in alg.basis])
    den, N = fraction_cleared_inverse(block)
    assert solver_den == den
    assert inv == {
        p: [(j, x) for j, x in enumerate(row) if x] for p, row in zip(inv, N.entries)
    }


@pytest.mark.parametrize("name", sorted(REPS))
def test_rational_spinors_match_the_generic_forms(name):
    """A rational psi goes through cleared integers; its coordinates equal
    the generic evaluation in value and in type (all ``Fraction``), for int,
    Fraction, mixed and zero spinors.  ``MultiPoly`` spinors keep the
    generic route."""
    rep = REPS[name]()
    ctx = MomentContext(rep, b_scale=Fraction(-2, 3) if name == "sp4" else 1)
    rng = random.Random(sorted(REPS).index(name) + 100)
    d = rep.dimV
    spinors = [
        [0] * d,
        [Fraction(0)] * d,
        [rng.randint(-9, 9) for _ in range(d)],
        [mixed_rational(rng) for _ in range(d)],
        [rng.randint(-3, 3) if k % 2 else mixed_rational(rng) for k in range(d)],
        [True] + [0] * (d - 1),
        [rand_poly(rng) for _ in range(d)],
        [rand_poly(rng) if k == 0 else mixed_rational(rng) for k in range(d)],
    ]
    for psi in spinors:
        got = moment_map(ctx, psi)
        assert exactly_equal(got, generic_quadratic_coords(ctx, psi))
        assert exactly_equal(ctx.quadratic_coords(tuple(psi)), got)
    assert all(type(x) is Fraction for x in moment_map(ctx, spinors[2]))
