"""Scaling-flow tests: exponent bookkeeping, limit existence, the weight-two
fixed-point identity, and the bridge to the rank-one Higgs field."""

import random
from fractions import Fraction

import pytest

from spinorlab.bbflow import (
    GradedHiggsModel,
    bb_limit,
    fixed_point_scale_check,
    graded_model,
    graded_omega,
    graded_weights,
    lambda_s_conversion_check,
    scaling_conjugate,
    strictly_filtered_phi,
    torus_preserves_form,
)
from spinorlab.matrix import ExactMatrix
from spinorlab.moment import gaiotto_field


class TestModel:
    def test_weights_and_omega(self):
        assert graded_weights(2) == (1, 0, 0, -1)
        m = graded_model(2, ExactMatrix.zeros(4, 4))
        assert m.omega.entries[0][3] == 1 and m.omega.entries[3][0] == -1

    def test_n1_no_middle(self):
        m = graded_model(1, ExactMatrix.zeros(2, 2))
        assert m.weights == (1, -1)

    def test_mixed_weight_pairing_rejected(self):
        bad = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        with pytest.raises(ValueError):
            GradedHiggsModel(graded_weights(2), ExactMatrix(bad), ExactMatrix.zeros(4, 4))

    def test_degenerate_form_rejected(self):
        with pytest.raises(ValueError, match="not symplectic"):
            GradedHiggsModel((1, 0, -1), ExactMatrix.zeros(3, 3), ExactMatrix.zeros(3, 3))

    def test_dimension_mismatch_rejected(self):
        # four weights and a 4x4 form, but a 3x3 phi
        with pytest.raises(ValueError, match="dimension mismatch"):
            GradedHiggsModel(graded_weights(2), graded_omega(2), ExactMatrix.zeros(3, 3))

    def test_weight_multiset_rejected(self):
        # the form is the graded one, so only the weights are wrong
        with pytest.raises(ValueError, match=r"weight multiset must be one \+1, one -1, rest 0"):
            GradedHiggsModel((1, 1, 0, -1), graded_omega(2), ExactMatrix.zeros(4, 4))

    def test_symmetric_form_rejected(self):
        # nondegenerate and pairs the +1 slot with the -1 slot, but symmetric
        symmetric = ExactMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="not symplectic"):
            GradedHiggsModel((1, -1), symmetric, ExactMatrix.zeros(2, 2))


class TestScalingConjugate:
    def test_zero_phi(self):
        m = graded_model(2, ExactMatrix.zeros(4, 4))
        assert scaling_conjugate(m).is_zero

    def test_weight_two_block_is_constant(self):
        m = graded_model(2, strictly_filtered_phi(2, scale=Fraction(7, 2)))
        scaled = scaling_conjugate(m, include_inverse_square=True)
        p = scaled.entries[0][3]
        assert p.ord() == 0 and p.coefficient(0) == Fraction(7, 2)

    def test_opposite_block_pole_order_four(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[3][0] = 1  # weight -1 <- weight +1
        m = graded_model(2, ExactMatrix(rows))
        scaled = scaling_conjugate(m, include_inverse_square=True)
        assert scaled.entries[3][0].ord() == -4
        assert bb_limit(m) is None

    def test_exponent_table(self):
        rng = random.Random(61)
        n = 2
        phi = ExactMatrix([[rng.randint(1, 3) for _ in range(4)] for _ in range(4)])
        m = graded_model(n, phi)
        w = graded_weights(n)
        scaled = scaling_conjugate(m, include_inverse_square=False)
        for i in range(4):
            for j in range(4):
                assert scaled.entries[i][j].ord() == w[i] - w[j]


class TestLimit:
    def test_strictly_filtered_limit_exists(self):
        for n in (1, 2, 3):
            m = graded_model(n, strictly_filtered_phi(n, scale=5))
            lim = bb_limit(m)
            assert lim is not None
            assert lim == strictly_filtered_phi(n, scale=5)
            nonzero = [(i, j) for i in range(2 * n) for j in range(2 * n)
                       if lim.entries[i][j] != 0]
            assert nonzero == [(0, 2 * n - 1)]

    def test_generic_phi_no_limit(self):
        rng = random.Random(62)
        phi = ExactMatrix([[rng.randint(1, 4) for _ in range(4)] for _ in range(4)])
        assert bb_limit(graded_model(2, phi)) is None

    def test_zero_phi_limit_zero(self):
        m = graded_model(2, ExactMatrix.zeros(4, 4))
        assert bb_limit(m) == ExactMatrix.zeros(4, 4)

    def test_limit_is_fixed_point(self):
        # without the inverse-square factor the limit rescales uniformly
        m = graded_model(2, strictly_filtered_phi(2))
        lim = bb_limit(m)
        scaled = scaling_conjugate(graded_model(2, lim), include_inverse_square=False)
        orders = {p.ord() for row in scaled.entries for p in row if not p.is_zero}
        assert orders == {2}


class TestFixedPointScale:
    def test_a_one(self):
        m = graded_model(2, strictly_filtered_phi(2))
        assert fixed_point_scale_check(m, 1)

    def test_a_three_identity_block(self):
        m = graded_model(2, strictly_filtered_phi(2))
        assert fixed_point_scale_check(m, 3)

    def test_twenty_rational_a(self):
        rng = random.Random(63)
        m = graded_model(3, strictly_filtered_phi(3, scale=Fraction(2, 3)))
        for _ in range(20):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            assert fixed_point_scale_check(m, a)

    def test_weight_zero_entry_rejected(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][3] = 1
        rows[1][2] = 1  # weight-0 block entry
        m = graded_model(2, ExactMatrix(rows))
        with pytest.raises(ValueError):
            fixed_point_scale_check(m, 3)

    def test_zero_a_rejected(self):
        m = graded_model(2, strictly_filtered_phi(2))
        with pytest.raises(ValueError):
            fixed_point_scale_check(m, 0)


class TestStructure:
    def test_torus_preserves_form(self):
        for n in (1, 2, 3):
            m = graded_model(n, strictly_filtered_phi(n))
            assert torus_preserves_form(m)

    def test_lambda_s_conversion(self):
        rng = random.Random(64)
        for n in (1, 2):
            phi = ExactMatrix(
                [[rng.randint(-3, 3) for _ in range(2 * n)] for _ in range(2 * n)]
            )
            m = graded_model(n, phi)
            assert lambda_s_conversion_check(m)

    def test_gaiotto_bridge(self):
        # spinor supported in the weight-1 slot: the rank-one field lands in
        # the weight-two block, squares to zero, and has a limit
        for n in (1, 2, 3):
            omega = graded_omega(n)
            psi = [Fraction(3) if i == 0 else Fraction(0) for i in range(2 * n)]
            Phi = gaiotto_field(omega, psi)
            assert (Phi * Phi).is_zero
            m = graded_model(n, Phi)
            assert bb_limit(m) is not None
            nonzero = [(i, j) for i in range(2 * n) for j in range(2 * n)
                       if Phi.entries[i][j] != 0]
            assert nonzero == [(0, 2 * n - 1)]


def test_torus_check_fails_for_a_torus_that_does_not_preserve_the_form(monkeypatch):
    """A weight torus scaled by 2 scales g^T Omega g by 4, and the rational
    form must see it."""
    import spinorlab.bbflow as bbflow

    models = [graded_model(n, strictly_filtered_phi(n)) for n in (1, 2, 3)]
    assert all(map(torus_preserves_form, models))
    good = bbflow.weight_torus
    monkeypatch.setattr(bbflow, "weight_torus", lambda m, inverse=False: good(m, inverse).scale(2))
    assert not any(map(torus_preserves_form, models))
