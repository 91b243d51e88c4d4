"""The integer route for random Cech squares against the ``Fraction`` route it
replaced (``cech_oracles``): the same cleared inverses, the same draws, the
same models up to the cleared denominator, the same ranks, and integer entries
throughout.  The five-term check, which checks each map once, against the
check of both maps at every node that it replaced."""

import random
from fractions import Fraction

import pytest

from spinorlab.cech import (
    FiveTermData,
    QuotientSpace,
    TwoTermCechModel,
    _kernel_columns,
    _rand_injective,
    _rand_invertible,
    _rand_matrix,
    check_five_term,
    five_term_data,
    hypercohomology,
    j_injectivity_experiment,
    les_segment,
    random_model,
    random_morphism,
)
from spinorlab.matrix import ExactMatrix, _cleared_inverse, rank

from cech_oracles import (
    dense_cleared_inverse,
    frac_random_model,
    frac_random_morphism,
    fraction_cleared_inverse,
    pairwise_check_five_term,
)

SEEDS = range(200)


def scaled(model, c):
    """The model with (d1, a1) scaled by c: same kernels and ranks."""
    return TwoTermCechModel(
        model.cech_d0, model.cech_d1.scale(c), model.diff_a0, model.diff_a1.scale(c)
    )


def all_ints(M):
    return all(type(x) is int for r in M.entries for x in r)


def test_cleared_inverse_matches_the_fraction_route():
    """den and den P^-1 from ``matrix._cleared_inverse`` on the nonzeros of
    the rows of P equal those read off the Fraction Gauss-Jordan inverse,
    on random invertible squares with integer entries (as the random
    squares have) and with rational ones, the empty ones among them."""
    dens, sizes = set(), set()
    for seed in SEEDS:
        rng = random.Random(seed)
        P = _rand_invertible(rng, rng.randint(0, 6))
        if seed % 2:
            P = P.map_entries(lambda x: Fraction(x, rng.choice([1, 2, 3, 4, 6])))
        den, N = dense_cleared_inverse(P)
        assert (den, N) == fraction_cleared_inverse(P), seed
        assert all_ints(N) and P * N == ExactMatrix.identity(P.rows).scale(den)
        dens.add(den)
        sizes.add(P.rows)
    assert 1 in dens and len(dens) > 20
    assert {0, 1} <= sizes


def test_cleared_inverse_of_empty_and_one_by_one_squares():
    """The 0 x 0 square inverts to den 1 and no rows; a 1 x 1 square x
    to den = the numerator of x and one entry the denominator of x, up to
    sign; a zero 1 x 1 square and rows in an empty space are dependent."""
    assert _cleared_inverse([], 0) == (1, {})
    assert dense_cleared_inverse(ExactMatrix([])) == (1, ExactMatrix([]))
    for x in (1, -1, 5, Fraction(3, 2), Fraction(-4, 7)):
        den, inv = _cleared_inverse([{0: x}], 1)
        assert list(inv) == [0] and Fraction(inv[0][0], den) == 1 / Fraction(x)
        assert den == abs(Fraction(x).numerator)
        assert (den, ExactMatrix([list(inv[0].values())])) == fraction_cleared_inverse(ExactMatrix([[x]]))
    for rows, size in (([{}], 1), ([{}], 0), ([{0: 1}, {0: 2}], 1)):
        with pytest.raises(ValueError, match="rows are linearly dependent"):
            _cleared_inverse(rows, size)


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
        for M in (model.cech_d0, model.cech_d1, model.total_d1, m.target.total_d1):
            K = _kernel_columns(M)
            assert (M * K).is_zero and K.cols == M.cols - rank(M) == rank(K)
            mats.append(K)
        assert all(all_ints(M) for M in mats), seed


# -- the five-term check against checking both maps at every node -----------


def random_five_term_data(rng):
    """Five small subquotients span(Z)/span(B), with span(B) inside span(Z),
    and four random sparse maps between their ambient spaces: exact or not,
    with or without containment."""
    spaces = []
    for _ in range(5):
        amb = rng.randint(0, 3)
        z = rng.randint(0, amb)
        Z = _rand_injective(rng, amb, z)
        B = Z * _rand_matrix(rng, z, rng.randint(0, z), lo=-1, hi=1)
        spaces.append(QuotientSpace(Z, B))
    maps = []
    for dom, cod in zip(spaces, spaces[1:]):
        maps.append(_rand_matrix(rng, cod.Z.rows, dom.Z.rows, lo=-1, hi=1))
    return FiveTermData(tuple(spaces), tuple(maps))


def test_five_term_matches_the_pairwise_check_on_random_models():
    for seed in SEEDS:
        model = random_model(random.Random(seed))
        data = five_term_data(model)
        report = check_five_term(data)
        assert report == pairwise_check_five_term(data), seed
        assert report.all_exact and les_segment(model) == report


def test_five_term_matches_the_pairwise_check_on_random_data():
    outcomes = set()
    for seed in range(400):
        data = random_five_term_data(random.Random(seed))
        report = check_five_term(data)
        assert report == pairwise_check_five_term(data), seed
        for k, (_, cz, rin, rout, dim, exact) in enumerate(report.nodes):
            # "containment": inexact only because a map leaves its Z
            landed = not exact and cz and rin + rout == dim
            outcomes.add((k, "containment" if landed else (cz, exact)))
    # every node is seen exact, inexact with a zero composite, with a
    # nonzero composite, and failing containment alone
    assert {(k, o) for k in range(3) for o in
            [(True, True), (True, False), (False, False), "containment"]} <= outcomes


def full(*dims):
    """Each Q^d as a subquotient of itself."""
    return tuple(QuotientSpace(ExactMatrix.identity(d), ExactMatrix.zeros(d, 0)) for d in dims)


ONE, ZERO = ExactMatrix.identity(1), ExactMatrix.zeros(1, 1)


@pytest.mark.parametrize("data, nodes", [
    # 0 -> Q -> Q -> 0 -> 0: exact at all three nodes
    (FiveTermData(full(0, 1, 1, 0, 0), (
        ExactMatrix.zeros(1, 0), ONE, ExactMatrix.zeros(0, 1), ExactMatrix.zeros(0, 0))), None),
    # every map zero on copies of Q: composites vanish, nothing is exact
    (FiveTermData(full(1, 1, 1, 1, 1), (ZERO,) * 4), [
        ("H0(A1)", True, 0, 0, 1, False),
        ("H1_total", True, 0, 0, 1, False),
        ("H1(A0)", True, 0, 0, 1, False)]),
    # identities: every composite is nonzero
    (FiveTermData(full(1, 1, 1, 1, 1), (ONE,) * 4), [
        ("H0(A1)", False, 1, 1, 1, False),
        ("H1_total", False, 1, 1, 1, False),
        ("H1(A0)", False, 1, 1, 1, False)]),
])
def test_hand_made_sequences(data, nodes):
    report = check_five_term(data)
    assert report == pairwise_check_five_term(data)
    if nodes is None:
        assert report.all_exact
    else:
        assert list(report.nodes) == nodes


def test_a_map_out_of_its_target_subspace_is_not_exact():
    """0 -> Q -> span(e1) -> 0 -> 0 inside Q^2, with the second map landing
    on e1 or on e1 + e2.  Off span(e1) the composites vanish and the ranks
    add up at every node, but the nodes that map touches are not exact."""
    nothing = QuotientSpace(ExactMatrix.zeros(1, 0), ExactMatrix.zeros(1, 0))
    e1 = QuotientSpace(ExactMatrix([[1], [0]]), ExactMatrix.zeros(2, 0))
    spaces = (nothing, full(1)[0], e1, nothing, nothing)
    reports = []
    for image in ([[1], [0]], [[1], [1]]):
        data = FiveTermData(spaces, (ZERO, ExactMatrix(image), ExactMatrix.zeros(1, 2), ZERO))
        reports.append(check_five_term(data))
        assert reports[-1] == pairwise_check_five_term(data)
    inside, outside = reports
    assert inside.all_exact
    assert [node[-1] for node in outside.nodes] == [False, False, True]
    assert all(cz and rin + rout == dim for _, cz, rin, rout, dim, _ in outside.nodes)
