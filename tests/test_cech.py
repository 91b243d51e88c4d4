"""Hypercohomology and diagram-chase tests.  The brute-force oracle assembles
the total-complex matrices explicitly and takes ranks through sympy."""

import os
import random
import subprocess
import sys

import pytest
import sympy

import spinorlab
from spinorlab.cech import (
    ComplexMorphism,
    EulerCharError,
    InvalidModelError,
    TwoTermCechModel,
    check_five_term,
    euler_char,
    five_term_data,
    hypercohomology,
    j_injectivity_experiment,
    les_segment,
    random_model,
    random_morphism,
)
from spinorlab.matrix import ExactMatrix, inverse


def sympy_rank(M):
    if M.rows == 0 or M.cols == 0:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in M.entries]).rank()


def brute_force_hyper(model):
    a00, a01, a10, a11 = model.dims
    r0 = sympy_rank(model.total_d0)
    r1 = sympy_rank(model.total_d1)
    return a00 - r0, a01 + a10 - r0 - r1, a11 - r1


class TestHypercohomology:
    def test_all_spaces_zero(self):
        z = ExactMatrix.zeros(0, 0)
        model = TwoTermCechModel(z, z, z, z)
        assert hypercohomology(model) == (0, 0, 0)

    def test_identity_cech_d0_resolution(self):
        # A00 = A01 = k with identity differential, everything else zero
        model = TwoTermCechModel(
            ExactMatrix.identity(1),
            ExactMatrix.zeros(0, 0),
            ExactMatrix.zeros(0, 1),
            ExactMatrix.zeros(0, 1),
        )
        assert hypercohomology(model) == (0, 0, 0)

    def test_random_models_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(40):
            model = random_model(rng)
            assert hypercohomology(model) == brute_force_hyper(model)

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError, match="square does not commute"):
            TwoTermCechModel(
                ExactMatrix.identity(1),
                ExactMatrix.identity(1),
                ExactMatrix.identity(1),
                ExactMatrix([[2]]),  # 2 * d0 != d1 * a0
            )

    def test_square_commutation_equivalent_to_total_complex(self):
        rng = random.Random(32)
        for _ in range(20):
            model = random_model(rng)
            assert (model.total_d1 * model.total_d0).is_zero

    def test_broken_square_breaks_total_complex(self):
        # construction refuses a square exactly when its D1 D0 is not zero
        rng = random.Random(42)
        found = 0
        for _ in range(20):
            model = random_model(rng)
            if model.diff_a1.rows == 0 or model.diff_a1.cols == 0 or model.dims[0] == 0:
                continue
            bad_a1 = [list(r) for r in model.diff_a1.entries]
            bad_a1[0][0] += 1
            bad_a1 = ExactMatrix(bad_a1)
            total_zero = (ExactMatrix.from_blocks([[bad_a1, -model.cech_d1]]) * model.total_d0).is_zero
            try:
                TwoTermCechModel(model.cech_d0, model.cech_d1, model.diff_a0, bad_a1)
            except InvalidModelError:
                assert not total_zero
                found += 1
            else:
                assert total_zero
        assert found > 0

    def test_basis_change_invariance(self):
        rng = random.Random(33)
        from spinorlab.cech import _rand_invertible

        for _ in range(10):
            model = random_model(rng, max_dim=5)
            a00, a01, a10, a11 = model.dims
            if 0 in (a00, a01, a10, a11):
                continue
            g00, g01 = _rand_invertible(rng, a00), _rand_invertible(rng, a01)
            g10, g11 = _rand_invertible(rng, a10), _rand_invertible(rng, a11)
            changed = TwoTermCechModel(
                g01 * model.cech_d0 * inverse(g00),
                g11 * model.cech_d1 * inverse(g10),
                g10 * model.diff_a0 * inverse(g00),
                g11 * model.diff_a1 * inverse(g01),
            )
            assert hypercohomology(changed) == hypercohomology(model)


class TestEulerChar:
    def test_zero_model(self):
        z = ExactMatrix.zeros(0, 0)
        assert euler_char(TwoTermCechModel(z, z, z, z)) == 0

    def test_disagreement_raises(self, monkeypatch):
        import spinorlab.cech as cech

        monkeypatch.setattr(cech, "hypercohomology", lambda model: (1, 0, 0))
        z = ExactMatrix.zeros(0, 0)
        with pytest.raises(EulerCharError):
            cech.euler_char(TwoTermCechModel(z, z, z, z))

    def test_disagreement_raises_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        script = (
            "import spinorlab.cech as cech\n"
            "from spinorlab.matrix import ExactMatrix\n"
            "cech.hypercohomology = lambda model: (1, 0, 0)\n"
            "z = ExactMatrix.zeros(0, 0)\n"
            "try:\n"
            "    cech.euler_char(cech.TwoTermCechModel(z, z, z, z))\n"
            "except cech.EulerCharError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(spinorlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "raised"

    def test_wrong_rank_of_d1_raises(self):
        """The check compares the Bareiss rank of D1 with the kernel of its
        elimination: a cached rank off by one either way raises."""
        rng = random.Random(37)
        for delta in (1, -1):
            model = random_model(rng)
            vars(model)["rank_d1"] = model.rank_d1 + delta
            with pytest.raises(EulerCharError):
                euler_char(model)

    def test_specific_dims(self):
        rng = random.Random(34)
        for _ in range(5):
            while True:
                model = random_model(rng)
                if model.dims == (3, 4, 2, 2):
                    break
            assert euler_char(model) == (3 - 4) - (2 - 2)

    def test_dims_3_1_2_2(self):
        # the injective-d0 generator cannot reach these dims, so build the
        # square directly with vanishing complex differential on cochains
        rng = random.Random(35)
        from spinorlab.cech import _rand_matrix

        for _ in range(10):
            model = TwoTermCechModel(
                _rand_matrix(rng, 1, 3),
                ExactMatrix.zeros(2, 2),
                _rand_matrix(rng, 2, 3),
                ExactMatrix.zeros(2, 1),
            )
            assert model.dims == (3, 1, 2, 2)
            assert euler_char(model) == (3 - 1) - (2 - 2)

    def test_hundred_random_agreement(self):
        rng = random.Random(35)
        for _ in range(100):
            model = random_model(rng)
            a00, a01, a10, a11 = model.dims
            assert euler_char(model) == (a00 - a01) - (a10 - a11)


class TestInjectivityChase:
    def test_identity_morphism(self):
        rng = random.Random(36)
        model = random_model(rng)
        a10, a11 = model.dims[2], model.dims[3]
        m = ComplexMorphism(
            model, model, ExactMatrix.identity(a10), ExactMatrix.identity(a11)
        )
        v = j_injectivity_experiment(m)
        assert v.hypothesis and v.conclusion

    def test_two_hundred_with_hypothesis(self):
        rng = random.Random(37)
        for _ in range(200):
            m = random_morphism(rng, ensure_hypothesis=True)
            v = j_injectivity_experiment(m)
            assert v.hypothesis
            assert v.conclusion, (m.source.dims, m.target.dims)

    def test_hypothesis_false_branch_recorded(self):
        rng = random.Random(38)
        seen_false = 0
        for _ in range(60):
            m = random_morphism(rng, ensure_hypothesis=False)
            v = j_injectivity_experiment(m)
            assert v.implication_holds or not v.hypothesis
            if not v.hypothesis:
                seen_false += 1
        assert seen_false > 0


class TestFiveTerm:
    def test_zero_model_trivially_exact(self):
        z = ExactMatrix.zeros(0, 0)
        assert les_segment(TwoTermCechModel(z, z, z, z)).all_exact

    def test_hundred_random_models_exact(self):
        rng = random.Random(39)
        for _ in range(100):
            model = random_model(rng)
            report = les_segment(model)
            assert report.all_exact, (model.dims, report.nodes)

    def test_broken_connecting_map_detected(self):
        rng = random.Random(40)
        found = 0
        for _ in range(50):
            model = random_model(rng)
            data = five_term_data(model)
            if data.spaces[1].dim == 0 and data.spaces[2].dim == 0:
                continue
            # corrupt the inclusion H0(A1) -> total degree-1 by dropping a row
            f2 = data.maps[1]
            bad = ExactMatrix.zeros(f2.rows, f2.cols)
            broken = type(data)(data.spaces, (data.maps[0], bad, data.maps[2], data.maps[3]))
            report = check_five_term(broken)
            if not report.all_exact:
                found += 1
        assert found > 0


class TestCheckedWhenBuilt:
    @staticmethod
    def unit_square(a1=1):
        one = ExactMatrix.identity(1)
        return TwoTermCechModel(one, one, one, ExactMatrix([[a1]]))

    @staticmethod
    def cech_only(d1):
        """A00 = A01 = 0 and A10 = A11 = k with Cech differential d1."""
        return TwoTermCechModel(
            ExactMatrix.zeros(0, 0), ExactMatrix([[d1]]), ExactMatrix.zeros(1, 0), ExactMatrix.zeros(1, 0)
        )

    def test_broken_model_raises_on_every_build(self):
        for _ in range(2):
            with pytest.raises(InvalidModelError, match="square does not commute"):
                self.unit_square(a1=2)  # a1 d0 != d1 a0

    @pytest.mark.parametrize(
        "a0, a1",
        [((2, 1), (1, 1)), ((1, 2), (1, 1)), ((1, 1), (2, 1)), ((1, 1), (1, 2))],
        ids=["a0-rows", "a0-cols", "a1-rows", "a1-cols"],
    )
    def test_model_map_shapes(self, a0, a1):
        one = ExactMatrix.identity(1)
        with pytest.raises(InvalidModelError, match="map shapes are inconsistent"):
            TwoTermCechModel(one, one, ExactMatrix.zeros(*a0), ExactMatrix.zeros(*a1))

    @pytest.mark.parametrize(
        "phi1_0, phi1_1",
        [((2, 2), (1, 1)), ((1, 2), (1, 1)), ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 1), (2, 1))],
        ids=["phi1_0-square", "phi1_0-rows", "phi1_0-cols", "phi1_1-cols", "phi1_1-rows"],
    )
    def test_morphism_map_shapes(self, phi1_0, phi1_1):
        model = self.unit_square()
        with pytest.raises(InvalidModelError, match="map shapes are inconsistent"):
            ComplexMorphism(model, model, ExactMatrix.zeros(*phi1_0), ExactMatrix.zeros(*phi1_1))

    def test_unshared_degree_0_part(self):
        one = ExactMatrix.identity(1)
        two = ExactMatrix([[2]])
        target = TwoTermCechModel(two, two, one, one)  # a1 d0 = d1 a0 = 2
        with pytest.raises(InvalidModelError, match="degree-0 parts are not shared"):
            ComplexMorphism(self.unit_square(), target, one, one)

    def test_phi_not_intertwining_a0(self):
        model = self.unit_square()
        two = ExactMatrix([[2]])
        with pytest.raises(InvalidModelError, match="phi does not intertwine a0"):
            ComplexMorphism(model, model, two, two)

    def test_broken_morphism_raises_on_every_build(self):
        model = self.unit_square()
        one = ExactMatrix.identity(1)
        for _ in range(2):
            with pytest.raises(InvalidModelError, match="phi does not intertwine a1"):
                ComplexMorphism(model, model, one, ExactMatrix([[2]]))  # phi a1 != a1

    def test_phi_not_intertwining_the_cech_differential(self):
        # a0 and a1 have no columns, so phi intertwines them whatever it is
        one = ExactMatrix.identity(1)
        with pytest.raises(InvalidModelError, match="phi does not intertwine the Cech differential"):
            ComplexMorphism(self.cech_only(1), self.cech_only(2), one, one)

    def test_a_build_runs_the_check_products_and_hypercohomology_none(self, monkeypatch):
        products = []
        mul = ExactMatrix.__mul__

        def counting_mul(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
        one = ExactMatrix.identity(1)
        model = self.unit_square()
        assert len(products) == 2  # a1 d0 and d1 a0; no D1 D0
        ComplexMorphism(model, model, one, one)
        assert len(products) == 2 + 4  # phi a0, phi a1, d1 phi and phi d1
        hypercohomology(model)
        assert len(products) == 6
