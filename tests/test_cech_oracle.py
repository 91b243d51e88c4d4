"""The integer route for random Cech squares against the ``Fraction`` route it
replaced (``cech_oracles``): the same cleared inverses, the same draws, the
same models up to the cleared denominator, the same ranks, and integer entries
throughout."""

import random
from fractions import Fraction

import pytest

from spinorlab.cech import (
    TwoTermCechModel,
    _cleared_inverse,
    _kernel_columns,
    _rand_invertible,
    hypercohomology,
    j_injectivity_experiment,
    random_model,
    random_morphism,
)
from spinorlab.matrix import ExactMatrix, rank

from cech_oracles import frac_random_model, frac_random_morphism, fraction_cleared_inverse

SEEDS = range(200)


def scaled(model, c):
    """The model with (d1, a1) scaled by c: same kernels and ranks."""
    return TwoTermCechModel(
        model.cech_d0, model.cech_d1.scale(c), model.diff_a0, model.diff_a1.scale(c)
    )


def all_ints(M):
    return all(type(x) is int for r in M.entries for x in r)


def test_cleared_inverse_matches_the_fraction_route():
    """den and den P^-1 from the integer [P | I] rows equal those read off
    inverse(P), on random invertible squares with integer entries (as the
    random squares have) and with rational ones."""
    dens = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        P = _rand_invertible(rng, rng.randint(0, 6))
        if seed % 2:
            P = P.map_entries(lambda x: Fraction(x, rng.choice([1, 2, 3, 4, 6])))
        den, N = _cleared_inverse(P)
        assert (den, N) == fraction_cleared_inverse(P), seed
        assert all_ints(N) and P * N == ExactMatrix.identity(P.rows).scale(den)
        dens.add(den)
    assert 1 in dens and len(dens) > 20


def test_random_model_is_the_oracle_scaled_by_its_den():
    for seed in SEEDS:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        model = random_model(rng)
        old, den = frac_random_model(oracle_rng)
        assert model == scaled(old, den)
        assert hypercohomology(model) == hypercohomology(old)
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("ensure_hypothesis", [True, False])
def test_random_morphism_is_the_oracle_scaled_by_its_dens(ensure_hypothesis):
    for seed in SEEDS:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        m = random_morphism(rng, ensure_hypothesis=ensure_hypothesis)
        old, den_src, den = frac_random_morphism(oracle_rng, ensure_hypothesis=ensure_hypothesis)
        assert m.source == scaled(old.source, den_src)
        # only the hypothesis branch solves for the target's d1
        assert m.target == scaled(old.target, den_src * den if ensure_hypothesis else 1)
        assert m.phi1_0 == old.phi1_0
        assert m.phi1_1 == old.phi1_1.scale(den)
        assert j_injectivity_experiment(m) == j_injectivity_experiment(old)
        assert rng.getstate() == oracle_rng.getstate()


def test_random_squares_and_kernels_have_int_entries():
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_model(rng)
        m = random_morphism(rng, ensure_hypothesis=seed % 2 == 0)
        mats = [model.cech_d0, model.cech_d1, model.diff_a0, model.diff_a1, m.phi1_0, m.phi1_1]
        for side in (m.source, m.target):
            mats += [side.cech_d0, side.cech_d1, side.diff_a0, side.diff_a1]
        for M in (model.cech_d0, model.cech_d1, model.total_d1(), m.target.total_d1()):
            K = _kernel_columns(M)
            assert (M * K).is_zero and K.cols == M.cols - rank(M) == rank(K)
            mats.append(K)
        assert all(all_ints(M) for M in mats), seed
