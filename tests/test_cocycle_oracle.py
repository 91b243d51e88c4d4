"""The Laurent-in-l cocycle route against the fraction-field route it
replaced (``cocycle_oracles``): the same dual block, the same residuals with
and without a perturbation in every slot, and the same necessity solve.  The
block residual of ``verify_form_preservation`` against the dense residual
``dense_form_residual`` it replaced, entry by entry."""

import random
from fractions import Fraction

import pytest

from spinorlab import cocycle, rings, suites
from spinorlab.cocycle import (
    BlockCocycle,
    InvalidCocycleError,
    NecessityResult,
    fresh_symbol_cocycle,
    middle_theta,
    necessity_solve,
    perturb_gamma,
    theta_dual,
    verify_form_preservation,
)
from spinorlab.matrix import ExactMatrix, random_symplectic
from spinorlab.rings import LaurentPoly, MultiPoly

from cocycle_oracles import (
    dense_form_residual,
    frac_fresh_symbol_cocycle,
    frac_necessity_solve,
    frac_perturb_gamma,
    frac_verify_form_preservation,
    laurent_to_frac,
)

NS = [2, 3, 4, 5]


@pytest.mark.parametrize("n", NS)
def test_gamma_matches_fraction_field(n):
    for seed in range(20):
        new = fresh_symbol_cocycle(n, seed)
        old = frac_fresh_symbol_cocycle(n, seed)
        assert all(isinstance(g, LaurentPoly) and set(g.coeffs) <= {-1} for g in new.gamma)
        assert [laurent_to_frac(g) for g in new.gamma] == list(old.gamma)


@pytest.mark.parametrize("n", NS)
def test_residuals_match_with_a_perturbation_in_every_slot(n):
    for seed in range(3):
        new = fresh_symbol_cocycle(n, seed)
        old = frac_fresh_symbol_cocycle(n, seed)
        pairs = [(new, old)] + [
            (perturb_gamma(new, slot), frac_perturb_gamma(old, slot)) for slot in range(2 * n - 2)
        ]
        for i, (c, o) in enumerate(pairs):
            res = verify_form_preservation(c)
            want = frac_verify_form_preservation(o)
            assert res.is_zero == want.is_zero == (i == 0)
            assert all(
                laurent_to_frac(x) == y
                for row, wrow in zip(res.entries, want.entries)
                for x, y in zip(row, wrow)
            )


@pytest.mark.parametrize("n", NS)
def test_necessity_matches_fraction_field(n):
    rng = random.Random(7000 + n)
    k = 2 * n - 2
    for seed in range(5):
        u = random_symplectic(n - 1, seed)
        l = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        d = tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(k))
        a = Fraction(rng.randint(-4, 4))
        res = necessity_solve(n, l, u, d, a)
        gamma, system_rank = frac_necessity_solve(n, l, u, d, a)
        assert res.unique and res.system_rank == system_rank == k
        assert list(res.gamma) == list(gamma)


def test_necessity_rejects_symbolic_data():
    u = random_symplectic(1, 3)
    with pytest.raises(InvalidCocycleError):
        necessity_solve(2, LaurentPoly("l", {1: 1}), u, (1, 0), 0)
    with pytest.raises(InvalidCocycleError):
        necessity_solve(2, 2, u, (MultiPoly.var("d1"), 0), 0)


def test_check_cocycle_builds_no_fraction_field_element(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("FracElem built on the cocycle path")

    monkeypatch.setattr(rings.FracElem, "__init__", refuse)
    for n in (2, 3, 4):
        for i in range(5):
            ok, detail = suites.check_cocycle(random.Random(i), n)
            assert ok, detail


def _off_by_one_necessity(good):
    def wrong(*args):
        res = good(*args)
        return NecessityResult((res.gamma[0] + 1, *res.gamma[1:]), res.system_rank, res.unknowns)

    return wrong


@pytest.mark.parametrize(
    "target, breaker, flag",
    [
        ("necessity_solve", _off_by_one_necessity, "necessity=False"),
        ("perturb_gamma", lambda good: lambda c, slot=0: c, "perturbation_detected=False"),
    ],
)
def test_check_cocycle_fails_on_a_broken_step(monkeypatch, target, breaker, flag):
    monkeypatch.setattr(cocycle, target, breaker(getattr(cocycle, target)))
    ok, detail = suites.check_cocycle(random.Random(3), 3)
    assert not ok and flag in detail


def _residual_cases(n):
    """``(label, cocycle, residual is zero)`` for the cocycles whose block and
    dense residuals are compared: fresh ones with l and with l = (3/2) l^-2,
    a perturbation in every slot, a MultiPoly perturbation, the unknown
    gamma of the necessity solve at rational l, and a rational cocycle with
    its theta-dual gamma, with and without a perturbation."""
    k = 2 * n - 2
    fresh = fresh_symbol_cocycle(n, seed=n)
    yield "fresh", fresh, True
    for slot in range(k):
        yield f"slot {slot} + 1", perturb_gamma(fresh, slot), False
    yield f"slot {k - 1} + a", perturb_gamma(fresh, k - 1, MultiPoly.var("a")), False
    u = random_symplectic(n - 1, 100 + n)
    l = LaurentPoly("l", {-2: Fraction(3, 2)})
    d = tuple(MultiPoly.var(f"d{i+1}") for i in range(k))
    scaled = BlockCocycle(n, l, u, d, MultiPoly.var("a"), theta_dual(d, u, l, middle_theta(n)))
    yield "l = (3/2) l^-2", scaled, True
    yield "l = (3/2) l^-2, slot 0 - 1/3", perturb_gamma(scaled, 0, Fraction(-1, 3)), False
    unknowns = tuple(MultiPoly.var(f"_g{i}") for i in range(k))
    rational_d = tuple(Fraction(i - 2, 3) for i in range(k))
    yield "necessity unknowns", BlockCocycle(n, Fraction(-3, 2), u, rational_d, 5, unknowns), False
    dual = theta_dual(rational_d, u, Fraction(-3, 2), middle_theta(n))
    over_q = BlockCocycle(n, Fraction(-3, 2), u, rational_d, 5, dual)
    yield "l = -3/2 over Q", over_q, True
    yield f"l = -3/2 over Q, slot {k - 1} + 1", perturb_gamma(over_q, k - 1), False


def _mismatches(residual, ns):
    """``(n, label)`` of every case, n in ns, where ``residual`` differs in
    value from the dense residual in some entry, or the dense residual is
    not zero exactly as expected."""
    bad = []
    for n in ns:
        for label, c, zero in _residual_cases(n):
            got, want = residual(c), dense_form_residual(c)
            same = (got.rows, got.cols) == (want.rows, want.cols) and all(
                x == y for row, wrow in zip(got.entries, want.entries) for x, y in zip(row, wrow)
            )
            if not same or want.is_zero != zero:
                bad.append((n, label))
    return bad


def test_block_residual_matches_the_dense_residual():
    assert _mismatches(verify_form_preservation, range(2, 7)) == []


def test_residual_comparison_catches_a_dropped_row():
    """A residual whose row k+1 (the entries -r_j) is dropped fails in every
    case where the residual is not zero."""

    def dropped(c):
        rows = [list(r) for r in verify_form_preservation(c).entries]
        rows[-1] = [0] * len(rows[-1])
        return ExactMatrix(rows)

    ns = (2, 3)
    nonzero = [(n, label) for n in ns for label, _, zero in _residual_cases(n) if not zero]
    assert _mismatches(dropped, ns) == nonzero
