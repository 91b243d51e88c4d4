"""The integer route for random Cech squares against the ``Fraction`` route it
replaced (``cech_oracles``): the same draws, the same models up to the cleared
denominator, the same ranks, and integer entries throughout."""

import random

import pytest

from spinorlab.cech import (
    TwoTermCechModel,
    _kernel_columns,
    hypercohomology,
    j_injectivity_experiment,
    random_model,
    random_morphism,
)
from spinorlab.matrix import rank

from cech_oracles import frac_random_model, frac_random_morphism

SEEDS = range(200)


def scaled(model, c):
    """The model with (d1, a1) scaled by c: same kernels and ranks."""
    return TwoTermCechModel(
        model.cech_d0, model.cech_d1.scale(c), model.diff_a0, model.diff_a1.scale(c)
    )


def all_ints(M):
    return all(type(x) is int for r in M.entries for x in r)


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
