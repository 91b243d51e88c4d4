"""The sparse integer set-up of a matrix Lie algebra against the routes it
replaced (tests/lie_oracles.py): the sp(2n) bases, the all-pairs brackets
against the per-pair loop, the structure constants and ``coordinates_of``,
values and types alike; the sparse sums behind
``from_coordinates`` and ``rho_of`` against the dense ones; and the joint
kernels of ``commutant`` and ``hom_space`` against the map-by-map route and
sympy's nullspace, all on the dense Sylvester matrices of the oracle module,
and their bases, values and types alike, against the kernel of the stacked
dense rows."""

import itertools
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from lie_oracles import (
    DenseCoordinateSolver,
    dense_combination,
    dense_sp_basis,
    dense_structure_constants,
    dense_sylvester,
    flattened,
    iterative_kernel,
    pairwise_brackets,
    two_loop_saturation,
)
from spinorlab import lie
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    almost_saturated_check,
    commutant,
    conjugate_rep,
    direct_sum,
    hom_space,
    rep_from_text,
    rep_to_text,
    sl2_algebra,
    sl2_standard,
    sl2_sym_cube,
    sl2_w_plus_wdual,
    sp_algebra,
    sp_standard,
    trivial_rep,
)
from spinorlab.matrix import ExactMatrix, mat_rank_kernel, random_symplectic, rank, standard_omega
from spinorlab.rings import MultiPoly

_SHEAR = ExactMatrix(
    [
        [1, Fraction(1, 2), 0, 0],
        [0, 1, Fraction(-2, 3), 0],
        [0, 0, 1, 3],
        [Fraction(1, 5), 0, 0, 1],
    ]
)


def from_text():
    """The algebra of a representation read back by ``rep_from_text``, whose
    basis is the sl2-Sym3 image conjugated by a rational shear: Fraction
    entries, not all integral."""
    conj = conjugate_rep(sl2_sym_cube(), _SHEAR)
    alg = MatrixLieAlgebra(conj.rho)
    text = rep_to_text(SymplecticRep(alg, conj.omega, conj.rho, conj.summands))
    return rep_from_text(text).algebra


ALGEBRAS = {
    **{f"sp{2 * n}": (lambda n=n: sp_algebra(n)) for n in range(1, 9)},
    "sl2": sl2_algebra,
    "sl2-W+W*": lambda: MatrixLieAlgebra(sl2_w_plus_wdual().rho),
    "sl2-Sym3": lambda: MatrixLieAlgebra(sl2_sym_cube().rho),
    "direct-sum": lambda: MatrixLieAlgebra(direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()).rho),
    "from-text": from_text,
}


def exactly_equal(a, b):
    """Equal values of equal types, with dict keys in the same order."""
    if isinstance(a, dict):
        return list(a) == list(b) and all(exactly_equal(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(exactly_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def mixed(rng):
    return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))


@pytest.mark.parametrize("n", range(1, 9))
def test_sp_basis_is_the_dense_product(n):
    got = sp_algebra(n).basis
    want = dense_sp_basis(n)
    assert exactly_equal([X.entries for X in got], [X.entries for X in want])


def test_from_text_basis_is_fractional():
    alg = from_text()
    assert all(type(x) is Fraction for X in alg.basis for r in X.entries for x in r)
    assert any(x.denominator > 1 for X in alg.basis for r in X.entries for x in r)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_structure_constants_match_the_dense_solver(name):
    alg = ALGEBRAS[name]()
    assert exactly_equal(alg.structure_constants, dense_structure_constants(alg.basis))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_brackets_match_the_per_pair_loop(name):
    """The all-pairs product gives the per-pair loop's brackets, entry
    order and cancelled zeros included, on exactly the pairs whose products
    have a term, in ascending order."""
    alg = ALGEBRAS[name]()
    got = lie._brackets(alg._flat, alg.ambient_dim)
    want = [(i, j, br) for i, j, br in pairwise_brackets(alg._flat, alg.ambient_dim) if br]
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
    assert all(exactly_equal(list(g.items()), list(w.items())) for (_, _, g), (_, _, w) in zip(got, want))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_coordinates_match_the_dense_solver(name):
    alg = ALGEBRAS[name]()
    oracle = DenseCoordinateSolver(alg.basis)
    rng = random.Random(sorted(ALGEBRAS).index(name))
    d = alg.ambient_dim
    for t in range(8):
        # sparse combinations reach only some coordinates, dense ones all
        coords = [mixed(rng) if t % 2 or rng.random() < 0.2 else 0 for _ in range(alg.dim)]
        M = alg.from_coordinates(coords)
        got = alg.coordinates_of(M)
        assert exactly_equal(got, oracle.coords(flattened(M)))
        assert got == tuple(coords)
        # off the span: a diagonal unit (traceless algebras miss E_rr), and
        # the same matrix moved off the span at one entry
        off = [list(r) for r in M.entries]
        off[t % d][t % d] += 1
        assert alg.coordinates_of(ExactMatrix(off)) is None
        assert oracle.coords(flattened(ExactMatrix(off))) is None
    zero = ExactMatrix.zeros(d, d)
    assert exactly_equal(alg.coordinates_of(zero), (0,) * alg.dim)
    assert alg.coordinates_of(ExactMatrix.identity(d)) is None
    assert alg.coordinates_of(ExactMatrix.zeros(d + 1, d + 1)) is None


REPS = {
    **{f"sp{2 * n}": (lambda n=n: sp_standard(n)) for n in range(1, 5)},
    "sl2-W+W*": sl2_w_plus_wdual,
    "sl2-Sym3": sl2_sym_cube,
}


def coordinate_lists(rng, dim):
    """Coordinates of every kind the package passes: dense and sparse
    Fractions, ints, rational zeros of both types, a mix, and polynomials.
    Each comes with whether its nonzero coordinates share one type."""
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    yield [mixed(rng) for _ in range(dim)], True
    yield [mixed(rng) if rng.random() < 0.3 else 0 for _ in range(dim)], True
    yield [rng.randint(-3, 3) for _ in range(dim)], True
    yield [rng.choice([0, Fraction(0)]) for _ in range(dim)], True
    yield [rng.choice([0, 2, Fraction(1, 3)]) for _ in range(dim)], False
    yield [rng.choice([0, x, x * y - 1, 3 * y]) for _ in range(dim)], True


@pytest.mark.parametrize("name", list(REPS))
def test_combination_matches_the_dense_sum(name):
    """Entries equal the dense sum's; when the coordinates share one type,
    so do the entry types."""
    rep = REPS[name]()
    alg = rep.algebra
    rng = random.Random(sorted(REPS).index(name))
    for _ in range(3):
        for coords, one_type in coordinate_lists(rng, alg.dim):
            d = alg.ambient_dim
            for got, want in (
                (alg.from_coordinates(coords), dense_combination(coords, alg.basis, d)),
                (rep.rho_of(coords), dense_combination(coords, rep.rho, rep.dimV)),
            ):
                assert got == want
                if one_type:
                    assert exactly_equal(got.entries, want.entries)


def standard_rep(n):
    """The standard representation of sp(2n), built on ``sp_algebra`` for
    any n (``sp_standard`` stops at n = 4)."""
    alg = sp_algebra(n)
    return SymplecticRep(alg, standard_omega(n), alg.basis, [Summand("irreducible", 0, 2 * n)])


CONJUGATING_SEEDS = (3, 8, 11)

KERNEL_REPS = {
    **{f"sp{2 * n}": (lambda n=n: standard_rep(n)) for n in range(1, 7)},
    "sl2-standard": sl2_standard,
    "sl2-W+W*": sl2_w_plus_wdual,
    "sl2-Sym3": sl2_sym_cube,
    "trivial": lambda: trivial_rep(sl2_algebra(), n=2),
    "sp2+sp2": lambda: direct_sum(sp_standard(1), sp_standard(1)),
    "W+W*+Sym3": lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
    **{
        f"sp4-conjugated-{seed}": (lambda seed=seed: conjugate_rep(sp_standard(2), random_symplectic(2, seed)))
        for seed in CONJUGATING_SEEDS
    },
}


def sylvester_maps(rep, a=None, b=None):
    """The maps whose joint kernel is End_g(V), or Hom_g between the
    constituents a and b."""
    if a is None:
        return [dense_sylvester(R, -R) for R in rep.rho]
    cons = rep.constituents()
    ra, rb = range(*cons[a][1]), range(*cons[b][1])
    return [dense_sylvester(R.submatrix(ra, ra), -R.submatrix(rb, rb)) for R in rep.rho]


def sympy_kernel_dim(maps):
    """Dimension of the joint kernel from sympy's sparse nullspace over QQ."""
    rows = [r for M in maps for r in M.entries]
    sparse = {}
    for i, r in enumerate(rows):
        entries = {j: QQ(Fraction(x).numerator, Fraction(x).denominator) for j, x in enumerate(r) if x}
        if entries:
            sparse[i] = entries
    return DomainMatrix(sparse, (len(rows), maps[0].cols), QQ).nullspace().shape[0]


def span_rank(vectors, ncols):
    return rank(ExactMatrix([list(v) for v in vectors], cols=ncols))


def test_conjugated_reps_have_fractional_entries():
    for seed in CONJUGATING_SEEDS:
        rep = KERNEL_REPS[f"sp4-conjugated-{seed}"]()
        assert any(type(x) is Fraction and x.denominator > 1 for R in rep.rho for r in R.entries for x in r)


@pytest.mark.parametrize("name", list(KERNEL_REPS))
def test_commutant_spans_the_oracle_space(name):
    rep = KERNEL_REPS[name]()
    m = rep.dimV
    basis = commutant(rep)
    assert all(B * R == R * B for B in basis for R in rep.rho)
    got = [tuple(x for r in B.entries for x in r) for B in basis]
    maps = sylvester_maps(rep)
    want = iterative_kernel(maps)
    assert len(got) == len(want) == sympy_kernel_dim(maps)
    assert span_rank(got, m * m) == span_rank(want, m * m) == span_rank(got + want, m * m) == len(got)


@pytest.mark.parametrize("name", list(KERNEL_REPS))
def test_hom_space_has_the_oracle_dimension(name):
    rep = KERNEL_REPS[name]()
    count = len(rep.constituents())
    for a in range(count):
        for b in range(count):
            maps = sylvester_maps(rep, a, b)
            assert hom_space(rep, a, b) == len(iterative_kernel(maps)) == sympy_kernel_dim(maps)


def stacked_kernel(maps):
    """Kernel basis of the stacked rows of dense maps, by ``mat_rank_kernel``."""
    return mat_rank_kernel(ExactMatrix([r for M in maps for r in M.entries], cols=maps[0].cols))[1]


@pytest.mark.parametrize("name", list(KERNEL_REPS))
def test_commutant_basis_is_the_stacked_kernel(name):
    """The basis itself, values and types, not only its span."""
    rep = KERNEL_REPS[name]()
    got = [tuple(x for r in B.entries for x in r) for B in commutant(rep)]
    assert exactly_equal(got, stacked_kernel(sylvester_maps(rep)))


@pytest.mark.parametrize("name", list(KERNEL_REPS))
def test_hom_space_kernel_is_the_stacked_kernel(name, monkeypatch):
    """The kernel behind each ``hom_space`` dimension, values and types."""
    rep = KERNEL_REPS[name]()
    seen = []
    real = lie._joint_kernel
    monkeypatch.setattr(lie, "_joint_kernel", lambda maps, ncols: seen.append(real(maps, ncols)) or seen[-1])
    for a, b in itertools.product(range(len(rep.constituents())), repeat=2):
        seen.clear()
        dim = hom_space(rep, a, b)
        assert len(seen) == 1 and dim == len(seen[0])
        assert exactly_equal(seen[0], stacked_kernel(sylvester_maps(rep, a, b)))


def test_sym_cube_form_is_pinned():
    """The invariant form of sl2-Sym3 as the dense joint kernel gave it:
    Fraction entries, 9 at (0, 3) and -3 at (1, 2)."""
    F = Fraction
    want = ((F(0), F(0), F(0), F(9)), (F(0), F(0), F(-3), F(0)),
            (F(0), F(3), F(0), F(0)), (F(-9), F(0), F(0), F(0)))
    assert exactly_equal(sl2_sym_cube.__wrapped__().omega.entries, want)


def saturation_reps():
    """sp(2n)'s standard module for n = 1, 2, 3, and every direct sum, in
    every order, of one to three of the four sl2 modules: 87 in all."""
    reps = [sp_standard(n) for n in (1, 2, 3)]
    parts = [sl2_standard(), sl2_w_plus_wdual(), sl2_sym_cube(), trivial_rep(sl2_algebra())]
    for k in (1, 2, 3):
        for chosen in itertools.product(parts, repeat=k):
            rep = chosen[0]
            for part in chosen[1:]:
                rep = direct_sum(rep, part)
            reps.append(rep)
    return reps


def test_saturation_matches_the_two_loop_search():
    """Status and witnesses, in order; every status occurs."""
    reps = saturation_reps()
    assert len(reps) == 87
    verdicts = [almost_saturated_check(rep) for rep in reps]
    assert verdicts == [two_loop_saturation(rep) for rep in reps]
    assert {v.status for v in verdicts} == {"TRUE", "FALSE", "INCONCLUSIVE"}
