"""Moment map tests.  The independent oracles are: direct construction of the
rank-one field v -> omega(v,psi)psi, the polarization identity for quadratic
maps, and explicit tensor symmetrization for the differential."""

import random
from fractions import Fraction

import pytest

from moment_oracles import fraction_context_fields, generic_quadratic_coords
from spinorlab import lie, moment
from spinorlab.lie import MatrixLieAlgebra, Summand, SymplecticRep, sl2_algebra, sp_standard, sl2_w_plus_wdual
from spinorlab.matrix import ExactMatrix, _cleared_inverse, rank, standard_omega
from spinorlab.moment import (
    InvalidContextError,
    MomentContext,
    equivariance_check,
    gaiotto_field,
    hitchin_invariants,
    is_nilpotent_cone_member,
    moment_differential,
    moment_map,
    moment_matrix,
)
from spinorlab.rings import LaurentPoly, MultiPoly, UnsupportedRingError


def rand_vec(rng, n, rational=False):
    if rational:
        return [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
    return [rng.randint(-6, 6) for _ in range(n)]


class TestMomentMap:
    def test_zero_spinor(self):
        ctx = MomentContext(sp_standard(2))
        assert all(c == 0 for c in moment_map(ctx, [0, 0, 0, 0]))

    def test_sp2_matches_rank_one_field(self):
        # mu((1,0)) must equal the matrix sending v to omega(v,psi)psi
        ctx = MomentContext(sp_standard(1))
        got = moment_matrix(ctx, [1, 0])
        assert got == ExactMatrix([[0, -1], [0, 0]])
        assert got == gaiotto_field(standard_omega(1), [1, 0])

    def test_normalization_agrees_with_gaiotto_everywhere(self):
        rng = random.Random(1)
        for n in (1, 2, 3):
            ctx = MomentContext(sp_standard(n))
            for _ in range(10):
                psi = rand_vec(rng, 2 * n, rational=True)
                assert moment_matrix(ctx, psi) == gaiotto_field(standard_omega(n), psi)

    def test_quadratic_homogeneity(self):
        rng = random.Random(2)
        for rep in (sp_standard(2), sl2_w_plus_wdual()):
            ctx = MomentContext(rep)
            psi = rand_vec(rng, rep.dimV)
            lhs = moment_map(ctx, [3 * x for x in psi])
            rhs = tuple(9 * c for c in moment_map(ctx, psi))
            assert lhs == rhs

    def test_characterizing_identity(self):
        # B(mu(psi), xi) = omega(rho(xi) psi, psi) for every basis xi
        rng = random.Random(3)
        for rep in (sp_standard(2), sl2_w_plus_wdual()):
            ctx = MomentContext(rep)
            psi = rand_vec(rng, rep.dimV, rational=True)
            mu = moment_matrix(ctx, psi)
            for R, X in zip(rep.rho, rep.algebra.basis):
                lhs = sum(
                    mu.entries[i][j] * X.entries[j][i]
                    for i in range(X.rows)
                    for j in range(X.rows)
                )
                w = rep.omega.apply(psi)
                rpsi = R.apply(psi)
                rhs = sum(a * b for a, b in zip(rpsi, w))
                assert lhs == rhs


class TestDifferential:
    def test_zero_direction(self):
        ctx = MomentContext(sp_standard(2))
        assert all(c == 0 for c in moment_differential(ctx, [1, 2, 3, 4], [0] * 4))

    def test_euler_identity(self):
        rng = random.Random(4)
        ctx = MomentContext(sp_standard(2))
        psi = rand_vec(rng, 4, rational=True)
        d = moment_differential(ctx, psi, psi)
        mu = moment_map(ctx, psi)
        assert d == tuple(2 * c for c in mu)

    def test_symmetric_tensor_formula(self):
        # independent route: the matrix v -> omega(v,psi)psidot + omega(v,psidot)psi
        rng = random.Random(5)
        for n in (1, 2, 3):
            ctx = MomentContext(sp_standard(n))
            omega = standard_omega(n)
            for _ in range(10):
                psi = rand_vec(rng, 2 * n)
                psidot = rand_vec(rng, 2 * n)
                got = ctx.rep.algebra.from_coordinates(
                    moment_differential(ctx, psi, psidot)
                )
                wpsi = omega.apply(psi)
                wdot = omega.apply(psidot)
                want = ExactMatrix(
                    [[psidot[i] * wpsi[j] + psi[i] * wdot[j] for j in range(2 * n)]
                     for i in range(2 * n)]
                )
                assert got == want

    def test_polarization_oracle(self):
        rng = random.Random(6)
        for rep in (sp_standard(2), sl2_w_plus_wdual()):
            ctx = MomentContext(rep)
            for _ in range(10):
                psi = rand_vec(rng, rep.dimV, rational=True)
                psidot = rand_vec(rng, rep.dimV, rational=True)
                d = moment_differential(ctx, psi, psidot)
                a = moment_map(ctx, [x + y for x, y in zip(psi, psidot)])
                b = moment_map(ctx, psi)
                c = moment_map(ctx, psidot)
                assert d == tuple(x - y - z for x, y, z in zip(a, b, c))

    def test_bilinear_symmetry(self):
        rng = random.Random(7)
        ctx = MomentContext(sl2_w_plus_wdual())
        psi = rand_vec(rng, 4)
        psidot = rand_vec(rng, 4)
        assert moment_differential(ctx, psi, psidot) == moment_differential(ctx, psidot, psi)


class TestEquivariance:
    def test_zero_xi(self):
        ctx = MomentContext(sp_standard(2))
        ok, res = equivariance_check(ctx, [1, 2, 3, 4], [0] * ctx.rep.algebra.dim)
        assert ok and res.is_zero

    def test_random_sp4(self):
        rng = random.Random(8)
        ctx = MomentContext(sp_standard(2))
        for _ in range(25):
            psi = rand_vec(rng, 4, rational=True)
            xi = rand_vec(rng, ctx.rep.algebra.dim)
            ok, res = equivariance_check(ctx, psi, xi)
            assert ok, res

    def test_passing_checks_share_one_zero_residual(self):
        rng = random.Random(12)
        for rep in (sp_standard(2), sl2_w_plus_wdual()):
            ctx = MomentContext(rep)
            n = rep.algebra.ambient_dim
            residuals = []
            for _ in range(3):
                ok, res = equivariance_check(
                    ctx, rand_vec(rng, rep.dimV, rational=True), rand_vec(rng, rep.algebra.dim)
                )
                assert ok
                residuals.append(res)
            assert residuals[0] is residuals[1] is residuals[2]
            assert residuals[0] == ExactMatrix.zeros(n, n)
            assert (residuals[0].rows, residuals[0].cols) == (n, n)

    def test_b_scale_invariance(self):
        rng = random.Random(9)
        rep = sp_standard(2)
        for scale in (1, 5, Fraction(-2, 3)):
            ctx = MomentContext(rep, b_scale=scale)
            psi = rand_vec(rng, 4)
            xi = rand_vec(rng, rep.algebra.dim)
            ok, _ = equivariance_check(ctx, psi, xi)
            assert ok

    def test_corrupted_rho_breaks_equivariance(self):
        rep = sp_standard(1)
        bad0 = [list(r) for r in rep.rho[0].entries]
        bad0[0][1] += 1
        corrupted = SymplecticRep(
            rep.algebra, rep.omega, [ExactMatrix(bad0)] + list(rep.rho[1:]), rep.summands
        )
        ctx = MomentContext(corrupted)
        ok, res = equivariance_check(ctx, [1, 1], [1, 0, 0])
        assert not ok and not res.is_zero

    def test_rho_is_cleared_once_per_rep(self, monkeypatch):
        """The rep clears rho once (``_rho_cleared``): its pairing forms and
        every context on it read that one table, and a context clears no
        vector of its own."""
        cleared = []
        real = lie._cleared
        monkeypatch.setattr(lie, "_cleared", lambda v: cleared.append(list(v)) or real(v))
        monkeypatch.setattr(moment, "_cleared", lambda v: pytest.fail("a context cleared a vector"))
        built = sl2_w_plus_wdual()
        rep = SymplecticRep(built.algebra, built.omega, built.rho, built.summands)
        contexts = [MomentContext(rep), MomentContext(rep, Fraction(-2, 3))]
        rho_values = [x for flat in rep._rho_flat for x in flat.values()]
        assert cleared == [rho_values, [x for r in rep.omega.entries for x in r]]
        d, table = rep._rho_cleared
        assert all(ctx._rho is table and ctx._rho_den == d for ctx in contexts)
        assert [Fraction(v, d) for *_, v in table] == rho_values

    def test_context_on_a_skew_basis_matches_the_fraction_route(self):
        """sl2 in the basis (f, h, e + f), whose cleared Gram inverse has a
        row of two nonzeros that the elimination leaves out of column order:
        each Z_k still sums its row's terms in ascending j, as the oracle."""
        e, h, f = sl2_algebra().basis
        alg = MatrixLieAlgebra([f, h, e + f])
        rep = SymplecticRep(alg, standard_omega(1), alg.basis, [Summand("irreducible", 0, 2)])
        rows = _cleared_inverse(alg._trace_form, alg.dim)[1].values()
        assert any(list(row) != sorted(row) for row in rows)
        for b_scale in (1, 5, Fraction(-2, 3)):
            ctx = MomentContext(rep, b_scale)
            want = fraction_context_fields(rep, b_scale)
            assert {field: getattr(ctx, field) for field in want} == want

    def test_singular_gram_rejected(self):
        e = ExactMatrix([[0, 1], [0, 0]])
        nil = MatrixLieAlgebra([e])  # abelian; trace form vanishes
        rep = SymplecticRep(nil, standard_omega(1), [e], [Summand("irreducible", 0, 2)])
        with pytest.raises(InvalidContextError):
            MomentContext(rep)

    def test_zero_b_scale_rejected(self):
        with pytest.raises(InvalidContextError, match="B-scale must be nonzero"):
            MomentContext(sp_standard(1), b_scale=0)


# sp(2) on its standard 2-dimensional space: psi has 2 entries and xi 3
WRONG_LENGTHS = {
    "moment_map psi": (lambda ctx: moment_map(ctx, [1, 0, 0]), "spinor has wrong length"),
    "moment_differential psi": (lambda ctx: moment_differential(ctx, [1], [1, 0]), "spinor has wrong length"),
    "moment_differential psidot": (
        lambda ctx: moment_differential(ctx, [1, 0], [1, 0, 0]), "spinor has wrong length",
    ),
    "equivariance_check psi": (
        lambda ctx: equivariance_check(ctx, [1], [1, 0, 0]), "spinor or algebra element has wrong length",
    ),
    "equivariance_check xi": (
        lambda ctx: equivariance_check(ctx, [1, 0], [1, 0]), "spinor or algebra element has wrong length",
    ),
    "gaiotto_field psi": (lambda ctx: gaiotto_field(standard_omega(1), [1, 0, 0]), "spinor has wrong length"),
}


@pytest.mark.parametrize("call", WRONG_LENGTHS)
def test_wrong_length_rejected(call):
    run, message = WRONG_LENGTHS[call]
    with pytest.raises(ValueError, match=message):
        run(MomentContext(sp_standard(1)))


class TestCoordinateTypes:
    """A coordinate that is not rational raises UnsupportedRingError, naming
    its type, wherever the moment layer clears a vector (``matrix._cleared``);
    ``moment_map`` takes its route over the ring of psi instead."""

    BAD = [MultiPoly.var("x"), MultiPoly.const(1), 0.5, 0.0, "a", None]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("where", ["psi", "xi"])
    def test_equivariance_check_rejects(self, where, bad):
        ctx = MomentContext(sp_standard(1))
        psi, xi = [1, Fraction(1, 2)], [1, 0, Fraction(2, 3)]
        (psi if where == "psi" else xi)[1] = bad
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
            equivariance_check(ctx, psi, xi)

    @pytest.mark.parametrize("bad", [MultiPoly.var("x"), MultiPoly.const(1)], ids=repr)
    @pytest.mark.parametrize("where", ["omega", "rho"])
    def test_context_rejects(self, where, bad):
        rep = sp_standard(1)
        omega, rho = [list(r) for r in rep.omega.entries], list(rep.rho)
        if where == "omega":
            omega[0][1] = bad
        else:
            image = [list(r) for r in rho[0].entries]
            r, c = next((r, c) for r, row in enumerate(image) for c, x in enumerate(row) if x)
            image[r][c] = bad
            rho[0] = ExactMatrix(image)
        bad_rep = SymplecticRep(rep.algebra, ExactMatrix(omega), rho, rep.summands)
        with pytest.raises(UnsupportedRingError, match="not MultiPoly$"):
            MomentContext(bad_rep)

    def test_moment_map_keeps_its_generic_route(self):
        ctx = MomentContext(sp_standard(1))
        x, z = MultiPoly.var("x"), LaurentPoly.term("z", -1)
        for psi in ([x, 1], [z, Fraction(1, 2)], [x, x * x]):
            got = moment_map(ctx, psi)
            assert got == generic_quadratic_coords(ctx, psi)
            assert moment_matrix(ctx, psi) == gaiotto_field(standard_omega(1), psi)
        assert moment_map(ctx, [x, 1]) == (1, -x, x * x)
        assert moment_map(ctx, [z, Fraction(1, 2)]) == (Fraction(1, 4), z * Fraction(-1, 2), z * z)


class TestGaiotto:
    def test_zero_spinor(self):
        Phi = gaiotto_field(standard_omega(2), [0, 0, 0, 0])
        assert Phi.is_zero
        assert hitchin_invariants(Phi) == [0, 0, 0, 0, 1]

    def test_sp2_example(self):
        Phi = gaiotto_field(standard_omega(1), [1, 0])
        assert Phi == ExactMatrix([[0, -1], [0, 0]])
        assert (Phi * Phi).is_zero
        assert hitchin_invariants(Phi) == [0, 0, 1]

    def test_sp4_hundred_random(self):
        rng = random.Random(10)
        omega = standard_omega(2)
        for _ in range(100):
            psi = rand_vec(rng, 4, rational=True)
            Phi = gaiotto_field(omega, psi)
            assert (Phi * Phi).is_zero
            assert (Phi.transpose() * omega + omega * Phi).is_zero
            assert is_nilpotent_cone_member(Phi)

    def test_rank_at_most_one(self):
        rng = random.Random(11)
        omega = standard_omega(3)
        for _ in range(20):
            psi = rand_vec(rng, 6)
            Phi = gaiotto_field(omega, psi)
            if all(x == 0 for x in psi):
                assert rank(Phi) == 0
            else:
                assert rank(Phi) == 1
