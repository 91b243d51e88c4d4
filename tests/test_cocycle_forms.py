"""The cocycle route on cleared integer linear forms against the Laurent
route it replaced (``cocycle_oracles``): the closed-form theta-dual, the
residual with a perturbation in every slot, and the necessity solve, at
n = 2..8.  The CLI stops at n = 4, so the functions are called directly.
A suite case must run no polynomial product at all."""

import random
from fractions import Fraction

import pytest

from spinorlab import suites
from spinorlab.cocycle import (
    BlockCocycle,
    InvalidCocycleError,
    fresh_symbol_cocycle,
    middle_theta,
    necessity_solve,
    perturb_gamma,
    theta_dual,
    verify_form_preservation,
)
from spinorlab.matrix import ExactMatrix, random_symplectic, random_symplectic_laurent
from spinorlab.rings import LaurentPoly, MultiPoly

from cocycle_oracles import (
    laurent_form_residual,
    laurent_fresh_symbol_cocycle,
    laurent_necessity_solve,
)
from matrix_oracles import exactly_equal

NS = range(2, 9)


def _seeds(n):
    """Several seeds where a case is cheap, one at n >= 6."""
    return range(6) if n <= 4 else range(2) if n == 5 else range(1)


def _structure(g):
    """A gamma entry as ``{exponent: (vars, terms)}``."""
    return {e: (p.vars, p.terms) for e, p in g.coeffs.items()}


@pytest.mark.parametrize("n", NS)
def test_closed_form_gamma_matches_the_laurent_route(n):
    for seed in _seeds(n):
        new = fresh_symbol_cocycle(n, seed)
        old = laurent_fresh_symbol_cocycle(n, seed)
        assert exactly_equal(new.u, old.u)
        assert all(isinstance(g, LaurentPoly) for g in new.gamma)
        assert [_structure(g) for g in new.gamma] == [_structure(g) for g in old.gamma]
        assert [str(g) for g in new.gamma] == [str(g) for g in old.gamma]


def _perturbations(c):
    """c, c with 1 added in every slot, and two symbolic perturbations."""
    k = 2 * c.n - 2
    yield c
    for slot in range(k):
        yield perturb_gamma(c, slot)
    yield perturb_gamma(c, k - 1, MultiPoly.var("a"))
    yield perturb_gamma(c, 0, LaurentPoly("l", {-1: MultiPoly.var("d1") * Fraction(-1, 3)}))


@pytest.mark.parametrize("n", NS)
def test_residual_matches_the_laurent_route_with_a_perturbation_in_every_slot(n):
    for i, c in enumerate(_perturbations(fresh_symbol_cocycle(n, seed=n))):
        got, want = verify_form_preservation(c), laurent_form_residual(c)
        assert got.is_zero == want.is_zero == (i == 0)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert all(x == y for row, wrow in zip(got.entries, want.entries) for x, y in zip(row, wrow))


@pytest.mark.parametrize("n", NS)
def test_necessity_matches_the_laurent_route(n):
    rng = random.Random(9000 + n)
    k = 2 * n - 2
    for seed in _seeds(n):
        u = random_symplectic(n - 1, seed)
        l = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        d = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(k))
        a = Fraction(rng.randint(-4, 4))
        res = necessity_solve(n, l, u, d, a)
        want = laurent_necessity_solve(n, l, u, d, a)
        assert exactly_equal(res.gamma, want.gamma)
        assert (res.system_rank, res.unknowns) == (want.system_rank, want.unknowns) == (k, k)
        assert list(res.gamma) == list(theta_dual(d, u, l, middle_theta(n)))


def test_residual_rejects_what_the_forms_cannot_hold():
    n, k = 2, 2
    u = random_symplectic_laurent(1, 3)
    with pytest.raises(InvalidCocycleError, match="rational"):
        verify_form_preservation(BlockCocycle(n, 1, u, (0,) * k, 0, (0,) * k))
    u = random_symplectic(1, 3)
    mixed = (LaurentPoly("z", {1: 1}), 0)
    with pytest.raises(ValueError, match="mixed Laurent"):
        verify_form_preservation(BlockCocycle(n, LaurentPoly("l", {1: 1}), u, (0,) * k, 0, mixed))
    inner = (MultiPoly.var("l"), 0)
    with pytest.raises(ValueError, match="Laurent variable"):
        verify_form_preservation(BlockCocycle(n, LaurentPoly("l", {1: 1}), u, (0,) * k, 0, inner))


# Every polynomial product, sum and re-normalization that the Laurent route
# ran; the integer route builds its polynomials without any of them.
POLYNOMIAL_ARITHMETIC = [
    (LaurentPoly, "__mul__"), (LaurentPoly, "__rmul__"),
    (MultiPoly, "__mul__"), (MultiPoly, "__rmul__"),
    (MultiPoly, "__add__"), (MultiPoly, "__radd__"),
    (MultiPoly, "__init__"),
]


@pytest.fixture
def no_polynomial_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial arithmetic on the cocycle path")

    for cls, name in POLYNOMIAL_ARITHMETIC:
        monkeypatch.setattr(cls, name, refuse)


def test_check_cocycle_runs_no_polynomial_arithmetic(no_polynomial_arithmetic):
    for n in (2, 3, 4):
        for i in range(5):
            ok, detail = suites.check_cocycle(random.Random(i), n)
            assert ok, detail


def test_the_lock_stops_the_laurent_route(no_polynomial_arithmetic):
    c = perturb_gamma(fresh_symbol_cocycle(2, 1), 0)
    assert not verify_form_preservation(c).is_zero
    with pytest.raises(AssertionError, match="polynomial arithmetic"):
        laurent_form_residual(c)
    with pytest.raises(AssertionError, match="polynomial arithmetic"):
        laurent_fresh_symbol_cocycle(2, 1)


def test_zero_residual_is_a_matrix_of_ints():
    c = fresh_symbol_cocycle(3, 2)
    res = verify_form_preservation(c)
    assert res == ExactMatrix.zeros(6, 6) and all(type(x) is int for r in res.entries for x in r)
