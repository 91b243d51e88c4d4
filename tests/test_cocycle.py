"""Cocycle reconstruction tests: the symbolic residual is the machine proof
of the forward direction; the converse is a linear solve for gamma."""

import random
from fractions import Fraction

import pytest

import spinorlab.cocycle as cocycle
from spinorlab.cocycle import (
    BlockCocycle,
    InvalidCocycleError,
    ThetaDualError,
    assemble_transition,
    fresh_symbol_cocycle,
    middle_theta,
    necessity_solve,
    perturb_gamma,
    standard_form,
    theta_dual,
    verify_form_preservation,
)
from spinorlab.matrix import ExactMatrix, ShapeError, random_symplectic
from spinorlab.rings import FracElem, LaurentPoly, MultiPoly

from cocycle_oracles import frac_assemble_transition, frac_fresh_symbol_cocycle, frac_theta_dual
from cocycle_oracles import loop_block_form
from spinorlab.bbflow import graded_omega

L = LaurentPoly("l", {1: 1})


class TestThetaDual:
    def test_zero_d_gives_zero_gamma(self):
        theta = middle_theta(2)
        u = ExactMatrix.identity(2)
        gamma = theta_dual((0, 0), u, 1, theta)
        assert all(g == 0 for g in gamma)

    def test_identity_blocks_hand_solution(self):
        # u = I, l = 1, d = (1, 0): gamma solves gamma^T Theta = d -> (0, -1)
        theta = middle_theta(2)
        gamma = theta_dual((1, 0), ExactMatrix.identity(2), 1, theta)
        assert list(gamma) == [0, -1]

    def test_linearity_in_d(self):
        theta = middle_theta(3)
        u = random_symplectic(2, 5)
        d = tuple(MultiPoly.var(f"d{i}") for i in range(4))
        g1 = theta_dual(d, u, L, theta)
        g3 = theta_dual(tuple(3 * x for x in d), u, L, theta)
        assert [3 * x for x in g1] == list(g3)

    def test_singular_u_rejected(self):
        theta = middle_theta(2)
        with pytest.raises(InvalidCocycleError):
            theta_dual((1, 0), ExactMatrix.zeros(2, 2), 1, theta)

    @pytest.mark.parametrize("u", [ExactMatrix.identity(2), ExactMatrix([[1, 2], [2, 4]])],
                             ids=["u-regular", "u-singular"])
    def test_singular_theta_named(self, u):
        """theta is checked before u, as it was when the ranks came first."""
        with pytest.raises(InvalidCocycleError, match=r"^theta is singular$"):
            theta_dual((1, 0), u, 1, ExactMatrix([[0, 1], [0, 0]]))

    def test_singular_u_named(self):
        with pytest.raises(InvalidCocycleError, match=r"^u is singular$"):
            theta_dual((1, 0), ExactMatrix([[1, 2], [2, 4]]), 1, middle_theta(2))

    @pytest.mark.parametrize("u, error, message", [
        (ExactMatrix([[1, 0, 1], [0, 1, 1]]), ShapeError, "inverse needs a square matrix"),
        (ExactMatrix([[1, 0], [0, 1], [1, 1]]), ShapeError, "multiplication shape mismatch"),
    ], ids=["wide", "tall"])
    def test_u_of_full_rank_but_not_square_keeps_its_error(self, u, error, message):
        with pytest.raises(error, match=f"^{message}$") as caught:
            theta_dual((1, 0), u, 1, middle_theta(2))
        assert not isinstance(caught.value, InvalidCocycleError)

    def test_square_u_of_the_wrong_size_is_a_shape_error(self):
        """A 3 x 3 u against a 2 x 2 theta was reported as singular."""
        with pytest.raises(ShapeError, match="^multiplication shape mismatch$") as caught:
            theta_dual((1, 2), ExactMatrix.identity(3), 1, middle_theta(2))
        assert not isinstance(caught.value, InvalidCocycleError)

    @pytest.mark.parametrize("d", [(1, 2, 3), (1,)], ids=["long", "short"])
    def test_d_of_the_wrong_length_is_a_shape_error(self, d):
        """A long d lost its last entry and a short one leaked IndexError."""
        with pytest.raises(ShapeError, match=f"^d has {len(d)} entries, theta is 2 x 2$") as caught:
            theta_dual(d, ExactMatrix.identity(2), 1, middle_theta(2))
        assert not isinstance(caught.value, InvalidCocycleError)

    def test_ranks_taken_only_after_a_failed_inverse(self, monkeypatch):
        def no_rank(M):
            raise AssertionError("rank taken on a regular input")

        monkeypatch.setattr(cocycle, "rank", no_rank)
        for n in (2, 3, 5):
            u = random_symplectic(n - 1, 7)
            d = tuple(range(1, 2 * n - 1))
            assert theta_dual(d, u, 2, middle_theta(n)) == frac_theta_dual(d, u, 2, middle_theta(n))

    def test_wrong_solution_raises(self, monkeypatch):
        good = cocycle.inverse
        monkeypatch.setattr(cocycle, "inverse", lambda M: good(M) + ExactMatrix.identity(M.rows))
        with pytest.raises(ThetaDualError):
            theta_dual((1, 0), ExactMatrix.identity(2), 1, middle_theta(2))

    @pytest.mark.parametrize(
        "l",
        [
            0,
            LaurentPoly("l", {}),
            LaurentPoly("l", {1: 1, 0: 1}),
            LaurentPoly("l", {1: MultiPoly.var("c")}),
            FracElem(MultiPoly.var("l")),
            FracElem(2),
            MultiPoly.var("l"),
        ],
        ids=["zero", "laurent-zero", "non-monomial", "symbolic-coefficient", "fracelem",
             "constant-fracelem", "multipoly"],
    )
    def test_bad_line_transition_rejected(self, l):
        u = random_symplectic(1, 3)
        with pytest.raises(InvalidCocycleError):
            theta_dual((1, 0), u, l, middle_theta(2))
        with pytest.raises(InvalidCocycleError):
            BlockCocycle(2, l, u, (0, 0), 0, (0, 0))

    def test_unit_monomial_of_any_degree(self):
        # l = (3/2) l^-2: gamma picks up (2/3) l^2 and the residual still vanishes
        for n in (2, 3):
            u = random_symplectic(n - 1, 19)
            d = tuple(MultiPoly.var(f"d{i}") for i in range(2 * n - 2))
            l = LaurentPoly("l", {-2: Fraction(3, 2)})
            gamma = theta_dual(d, u, l, middle_theta(n))
            assert all(set(g.coeffs) == {2} for g in gamma if not g.is_zero)
            c = BlockCocycle(n, l, u, d, MultiPoly.var("a"), gamma)
            assert verify_form_preservation(c).is_zero


class TestAssemble:
    def test_trivial_blocks_give_identity(self):
        c = BlockCocycle(2, 1, ExactMatrix.identity(2), (0, 0), 0, (0, 0))
        assert assemble_transition(c) == ExactMatrix.identity(4)

    def test_block_placement(self):
        c = fresh_symbol_cocycle(2, seed=3)
        v = assemble_transition(c)
        assert v.entries[0][0] == c.l
        assert v.entries[0][3] == c.a
        assert v.entries[0][1] == c.d[0] and v.entries[0][2] == c.d[1]
        assert v.entries[3][3] == LaurentPoly("l", {-1: 1})
        for i in (1, 2):
            assert v.entries[i][0] == 0
            assert v.entries[i][3] == c.gamma[i - 1]
        assert v.entries[3][0] == 0 and v.entries[3][1] == 0 and v.entries[3][2] == 0

    def test_product_keeps_block_shape(self):
        v1 = assemble_transition(fresh_symbol_cocycle(2, seed=1))
        v2 = assemble_transition(fresh_symbol_cocycle(2, seed=2))
        p = v1 * v2
        for i in range(1, 4):
            assert _iszero(p.entries[i][0])
        assert _iszero(p.entries[3][1]) and _iszero(p.entries[3][2])


def _iszero(x):
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero


class TestFormPreservation:
    def test_dual_gamma_gives_zero_residual_symbolically(self):
        for n in (2, 3):
            for seed in range(10):
                c = fresh_symbol_cocycle(n, seed=seed)
                assert verify_form_preservation(c).is_zero

    def test_perturbed_gamma_nonzero(self):
        for n in (2, 3):
            c = perturb_gamma(fresh_symbol_cocycle(n, seed=7))
            assert not verify_form_preservation(c).is_zero

    def test_zero_d_zero_gamma_any_a(self):
        # isolates the line-to-line cancellation: with no mixed blocks the
        # residual vanishes for a completely arbitrary a
        for n in (2, 3):
            k = 2 * n - 2
            c = BlockCocycle(
                n,
                L,
                random_symplectic(n - 1, 29),
                (0,) * k,
                MultiPoly.var("a"),
                (0,) * k,
            )
            assert verify_form_preservation(c).is_zero

    def test_residual_independent_of_a(self):
        base = fresh_symbol_cocycle(2, seed=11, gamma=(MultiPoly.var("g1"), MultiPoly.var("g2")))
        other = BlockCocycle(2, base.l, base.u, base.d, MultiPoly.var("other_a"), base.gamma)
        r1 = verify_form_preservation(base)
        r2 = verify_form_preservation(other)
        assert r1 == r2

    def test_corner_block_zero_for_any_gamma(self):
        # the dual-line-vs-dual-line entry carries the isotropy cancellation
        rng = random.Random(13)
        for n in (2, 3):
            k = 2 * n - 2
            gamma = tuple(rng.randint(-5, 5) for _ in range(k))
            c = fresh_symbol_cocycle(n, seed=17, gamma=gamma)
            res = verify_form_preservation(c)
            assert _iszero(res.entries[2 * n - 1][2 * n - 1])

    def test_composition_preserves_form(self):
        # three-chart sanity: the product of two form-preserving transitions
        # preserves the standard form.  The charts keep independent line
        # symbols l and l2, which a one-variable LaurentPoly cannot hold, so
        # this runs on the fraction-field route of cocycle_oracles.
        n = 2
        omega = standard_form(n)
        v1 = frac_assemble_transition(frac_fresh_symbol_cocycle(n, seed=21))
        c2 = frac_fresh_symbol_cocycle(n, seed=22, names=("l2", "e", "a2"))
        v2 = frac_assemble_transition(c2)
        prod = v1 * v2
        assert (prod.transpose() * omega * prod - omega).is_zero


class TestNecessity:
    def test_zero_d(self):
        u = random_symplectic(1, 3)
        res = necessity_solve(2, 1, u, (0, 0), Fraction(5))
        assert res.unique
        assert all(x == 0 for x in res.gamma)

    def test_reproduces_theta_dual(self):
        rng = random.Random(31)
        for n in (2, 3):
            k = 2 * n - 2
            for seed in range(5):
                u = random_symplectic(n - 1, seed)
                l = Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 2]))
                d = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
                a = Fraction(rng.randint(-4, 4))
                res = necessity_solve(n, l, u, d, a)
                want = theta_dual(d, u, l, middle_theta(n))
                assert res.unique
                assert all(isinstance(w, (int, Fraction)) for w in want)
                assert list(res.gamma) == list(want)

    def test_full_rank(self):
        for n in (2, 3):
            u = random_symplectic(n - 1, 9)
            res = necessity_solve(n, Fraction(2), u, tuple(range(1, 2 * n - 1)), 0)
            assert res.system_rank == res.unknowns == 2 * n - 2


class TestMiddleBlockCheck:
    """``fresh_symbol_cocycle`` and ``perturb_gamma`` reuse a u that is
    already checked; every other way in still checks it."""

    NOT_SYMPLECTIC = {
        2: ExactMatrix([[2, 0], [0, 1]]),
        3: ExactMatrix.diag([1, 1, 1, 2]),
        4: random_symplectic(3, 5) * ExactMatrix.diag([1, 1, 1, 1, 3, 1]),
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_cocycle_rejects_a_non_symplectic_u(self, n):
        u = self.NOT_SYMPLECTIC[n]
        k = 2 * n - 2
        with pytest.raises(InvalidCocycleError, match="not symplectic"):
            BlockCocycle(n, 1, u, (0,) * k, 0, (0,) * k)
        with pytest.raises(InvalidCocycleError, match="not symplectic"):
            BlockCocycle(n, L, u, tuple(range(k)), MultiPoly.var("a"), (0,) * k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_necessity_solve_rejects_a_non_symplectic_u(self, n):
        k = 2 * n - 2
        with pytest.raises(InvalidCocycleError, match="not symplectic"):
            necessity_solve(n, Fraction(2), self.NOT_SYMPLECTIC[n], tuple(range(1, k + 1)), 0)

    def test_perturbation_changes_only_gamma(self):
        c = fresh_symbol_cocycle(3, 4)
        p = perturb_gamma(c, slot=1, amount=2)
        assert (p.n, p.l, p.u, p.d, p.a) == (c.n, c.l, c.u, c.d, c.a) and p.u is c.u
        assert p.gamma[1] == c.gamma[1] + 2
        assert p.gamma[:1] + p.gamma[2:] == c.gamma[:1] + c.gamma[2:]
        assert not verify_form_preservation(p).is_zero

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_check_per_u_and_one_for_the_solve(self, monkeypatch, n):
        """A suite case checks u twice: in random_symplectic and in the
        necessity solve, which takes u from its caller."""
        import spinorlab.matrix as matrix
        from spinorlab.suites import check_cocycle

        checked = []
        real = matrix.is_symplectic

        def counting(M, omega=None):
            checked.append(M)
            return real(M, omega)

        monkeypatch.setattr(matrix, "is_symplectic", counting)
        monkeypatch.setattr(cocycle, "is_symplectic", counting)
        for seed in range(3):
            checked.clear()
            ok, detail = check_cocycle(random.Random(seed), n)
            assert ok, detail
            assert len(checked) == 2 and checked[0] == checked[1]


@pytest.mark.parametrize("n", range(1, 9))
def test_block_form_matches_the_entrywise_loop(n):
    """``standard_form`` and ``graded_omega`` build one block form, entry for
    entry the loop each ran before; each keeps its own bound on n."""
    want = loop_block_form(n)
    got = graded_omega(n)
    assert got == want and all(type(x) is int for r in got.entries for x in r)
    if n >= 2:
        assert standard_form(n) == want
    else:
        with pytest.raises(ValueError):
            standard_form(n)
        with pytest.raises(ValueError):
            graded_omega(n - 1)
