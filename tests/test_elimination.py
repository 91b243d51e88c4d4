"""Fraction-free elimination over Q against the Fraction route it replaced
(tests/matrix_oracles.py), with sympy for the ranks: the results of each
caller, the reduced rows ``_echelon`` hands back, the contract that every
row reaching ``_echelon`` holds nonzero ints only, and the typed error on
entries that are not rational."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from matrix_oracles import (
    _field_rows,
    _rref,
    exactly_equal,
    rref_inverse,
    rref_rank_kernel,
    rref_solve,
)
from spinorlab import lie, matrix, petri
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    commutant,
    conjugate_rep,
    hom_space,
    sl2_standard,
    sl2_w_plus_wdual,
    sp_standard,
)
from spinorlab.matrix import (
    ExactMatrix,
    _cleared_inverse,
    _echelon,
    _integer_row,
    _integer_rows,
    _sparse_rows,
    inverse,
    mat_rank_kernel,
    random_symplectic,
    rank,
    solve_linear,
)
from spinorlab.petri import SectionSpace, petri_kernel
from spinorlab.rings import FracElem, LaurentPoly, MultiPoly, UnsupportedRingError


def mixed(rng):
    return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7, 12]))


def product_matrix(rng, m, k, n):
    """An m x n matrix of rank at most k, as the product of m x k and k x n."""
    A = ExactMatrix([[mixed(rng) for _ in range(k)] for _ in range(m)], cols=k)
    B = ExactMatrix([[mixed(rng) for _ in range(n)] for _ in range(k)], cols=n)
    return A * B


def sympy_rank(M):
    return sympy.Matrix(
        M.rows, M.cols,
        [sympy.Rational(x.numerator, x.denominator) for r in M.entries for x in r],
    ).rank()



@pytest.mark.parametrize("block", range(8))
def test_random_products_match_the_fraction_route(block):
    counts = {"deficient": 0, "none": 0, "solved": 0, "singular": 0, "inverted": 0}
    for seed in range(block * 40, block * 40 + 40):
        rng = random.Random(seed)
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        M = product_matrix(rng, m, rng.randint(0, min(m, n) + 1), n)

        got = mat_rank_kernel(M)
        assert exactly_equal(got, rref_rank_kernel(M)), (seed, M)
        assert got[0] == rank(M) == sympy_rank(M)
        counts["deficient"] += got[0] < min(m, n)

        x0 = [mixed(rng) for _ in range(n)]
        for b in (M.apply(x0), [mixed(rng) for _ in range(m)]):
            x = solve_linear(M, b)
            assert exactly_equal(x, rref_solve(M, b)), (seed, M, b)
            counts["none" if x is None else "solved"] += 1
            if x is not None:
                assert M.apply(x) == tuple(b)

        S = product_matrix(rng, m, rng.choice([m, m, max(m - 1, 0)]), m)
        try:
            want = rref_inverse(S)
        except ValueError:
            with pytest.raises(ValueError):
                inverse(S)
            counts["singular"] += 1
        else:
            got_inv = inverse(S)
            assert exactly_equal(got_inv, want), (seed, S)
            assert S * got_inv == ExactMatrix.identity(m)
            counts["inverted"] += 1
    # every branch is exercised in every block
    assert all(counts.values()), counts


def sparse_matrix(rng, m, n, density=0.15):
    """An m x n matrix with about density nonzero entries, ints and
    fractions."""
    return ExactMatrix(
        [[mixed(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)],
        cols=n,
    )


def deficient(rng, M, k):
    """M with k of its columns replaced by combinations of two others."""
    cols = [list(c) for c in M.transpose().entries]
    for j in rng.sample(range(len(cols)), k):
        others = [i for i in range(len(cols)) if i != j]
        a, b = rng.choice(others), rng.choice(others)
        x, y = rng.choice([1, -1, 2]), rng.choice([0, 1, Fraction(1, 3)])
        cols[j] = [x * u + y * v for u, v in zip(cols[a], cols[b])]
    return ExactMatrix(cols, cols=M.rows).transpose()


def check_integer_rows(entries, ncols):
    """The contract of ``_echelon`` on the sparse integer rows of entries:
    the pivots of the Fraction route on the dense entries, in ascending
    order, each kept row a primitive dict of nonzero ints, and each divided
    by its pivot entry equal to the oracle's reduced row."""
    kept = _echelon(_sparse_rows(entries), ncols)
    want = _field_rows(entries)
    assert list(kept) == _rref(want, ncols)
    for (pc, row), ref in zip(kept.items(), want):
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[pc]) for j in range(ncols)] == ref
    return kept


@pytest.mark.parametrize("block", range(4))
def test_sparse_and_tall_match_the_fraction_route(block):
    """Sparse tall matrices: full column rank, rank-deficient, [A|b] and
    [A|I] shapes."""
    counts = {"full": 0, "deficient": 0, "none": 0, "solved": 0,
              "singular": 0, "inverted": 0}
    for seed in range(block * 20, block * 20 + 20):
        rng = random.Random(10_000 + seed)
        n = rng.randint(2, 12)
        m = rng.randint(n, 40)
        M = sparse_matrix(rng, m, n)
        if seed % 2:
            M = deficient(rng, M, rng.randint(1, n - 1))

        got = mat_rank_kernel(M)
        assert exactly_equal(got, rref_rank_kernel(M)), (seed, M)
        assert got[0] == rank(M) == sympy_rank(M)
        counts["full" if got[0] == n else "deficient"] += 1
        check_integer_rows(M.entries, n)

        x0 = [mixed(rng) for _ in range(n)]
        for b in (M.apply(x0), [mixed(rng) if rng.random() < 0.15 else 0 for _ in range(m)]):
            x = solve_linear(M, b)
            assert exactly_equal(x, rref_solve(M, b)), (seed, M, b)
            counts["none" if x is None else "solved"] += 1
            if x is not None:
                assert M.apply(x) == tuple(b)
            check_integer_rows([(*row, y) for row, y in zip(M.entries, b)], n + 1)

        S = sparse_matrix(rng, n, n, 0.25)
        check_integer_rows([(*r, *(int(i == j) for j in range(n))) for i, r in enumerate(S.entries)], 2 * n)
        try:
            want = rref_inverse(S)
        except ValueError:
            with pytest.raises(ValueError):
                inverse(S)
            counts["singular"] += 1
        else:
            got_inv = inverse(S)
            assert exactly_equal(got_inv, want), (seed, S)
            assert S * got_inv == ExactMatrix.identity(n)
            counts["inverted"] += 1
    # every shape and outcome occurs in every block
    assert all(counts.values()), counts


class Untouched(dict):
    """A sparse integer row that fails the test if the elimination reads
    it: every read but ``len``, which the sparsest-first sort takes, raises."""

    def _read(self, *args):
        raise AssertionError("a row past the full rank was read")

    __bool__ = __contains__ = __getitem__ = __iter__ = __reversed__ = _read
    copy = get = items = keys = values = _read


def test_inconsistent_tall_system_stops_at_full_width():
    """[A | b] of rank A.cols + 1 before its densest row: the reduced form
    is the identity, the densest row is never read, and solve_linear sees
    the pivot in the column of b."""
    A = ExactMatrix([[1, 0], [0, 2], [1, 1], [3, 5]])
    b = [0, 0, 1, 4]
    aug = [[*row, x] for row, x in zip(A.entries, b)]
    kept = check_integer_rows(aug, 3)
    assert kept == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    rows = _sparse_rows(aug)
    assert _echelon([*rows[:3], Untouched(rows[3])], 3) == kept
    with pytest.raises(AssertionError):
        _echelon([Untouched(rows[0])], 3)
    assert solve_linear(A, b) is None and rref_solve(A, b) is None


def test_singular_inverse_pivots_in_the_identity_block():
    """[M | I] for a singular M: a pivot lands past column n, and inverse
    and _cleared_inverse, on the nonzeros of the rows of M, raise."""
    M = ExactMatrix([[1, 2, 0], [2, 4, 0], [0, 1, 3]])
    aug = [(*r, *(int(i == j) for j in range(3))) for i, r in enumerate(M.entries)]
    assert list(check_integer_rows(aug, 6)) == [0, 1, 3]
    rows = [{j: x for j, x in enumerate(r) if x} for r in M.entries]
    with pytest.raises(ValueError, match="rows are linearly dependent"):
        inverse(M)
    with pytest.raises(ValueError, match="rows are linearly dependent"):
        _cleared_inverse(rows, 3)
    with pytest.raises(ValueError):
        rref_inverse(M)


def test_integer_and_zero_entries():
    M = ExactMatrix([[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 5]])
    assert exactly_equal(mat_rank_kernel(M), rref_rank_kernel(M))
    assert mat_rank_kernel(M) == (2, [(Fraction(-2), Fraction(1), Fraction(0))])
    assert exactly_equal(solve_linear(M, [0, 2, 1, 5]), (Fraction(-2), Fraction(0), Fraction(1)))
    assert solve_linear(M, [1, 2, 1, 5]) is None
    assert exactly_equal(inverse(ExactMatrix([[0, 2], [4, 0]])),
                         ExactMatrix([[Fraction(0), Fraction(1, 4)], [Fraction(1, 2), Fraction(0)]]))
    assert exactly_equal(inverse(ExactMatrix([])), ExactMatrix([]))
    empty = ExactMatrix([], cols=3)
    assert exactly_equal(mat_rank_kernel(empty), rref_rank_kernel(empty))
    assert exactly_equal(solve_linear(empty, []), (Fraction(0),) * 3)


@pytest.mark.parametrize("call", [
    lambda M: mat_rank_kernel(M),
    lambda M: solve_linear(M, [1, 0]),
    lambda M: inverse(M),
    lambda M: rank(M),
])
def test_laurent_entries_unsupported(call):
    """Elimination is over Q only: a Laurent, polynomial or fraction-field
    entry raises, wherever it sits."""
    x = MultiPoly.var("x")
    for bad in (LaurentPoly.term("z", -1), x, FracElem(x, x + 1)):
        for M in (ExactMatrix([[bad, 0], [0, 1]]), ExactMatrix([[1, 0], [0, bad]]),
                  ExactMatrix([[1, 2], [3, bad]])):
            with pytest.raises(UnsupportedRingError):
                call(M)


@pytest.mark.parametrize("call", [
    lambda M: mat_rank_kernel(M),
    lambda M: solve_linear(M, [1, 0]),
    lambda M: inverse(M),
    lambda M: rank(M),
])
def test_a_zero_that_is_not_rational_is_unsupported_too(call):
    """Every entry is type-checked, zeros included: a row is cleared before
    its nonzeros are kept."""
    x = MultiPoly.var("x")
    for bad in (0.0, x - x, LaurentPoly.term("z", 1) * 0):
        with pytest.raises(UnsupportedRingError):
            call(ExactMatrix([[1, bad], [0, 1]]))


def test_int_rows_are_copied():
    """Rows of ints come back as they are but as new lists, which the
    eliminations overwrite in place; the matrix keeps its entries."""
    rows = [[2, 0, -3], [1, 4, 1]]
    got = _integer_rows(rows)
    assert got == rows and all(g is not r for g, r in zip(got, rows))
    got[0][0] = 99
    assert rows[0][0] == 2

    M = ExactMatrix([[2, 4, 1, 0], [1, 2, 0, 3], [3, 6, 1, 3], [0, 0, 5, -1]])
    S = ExactMatrix([[2, 1], [7, 4]])
    for _ in range(2):
        assert rank(M) == sympy_rank(M) == 3
        assert exactly_equal(mat_rank_kernel(M), rref_rank_kernel(M))
        assert exactly_equal(solve_linear(M, [1, 0, 1, 0]), rref_solve(M, [1, 0, 1, 0]))
        assert exactly_equal(inverse(S), rref_inverse(S))
        assert M.entries == ((2, 4, 1, 0), (1, 2, 0, 3), (3, 6, 1, 3), (0, 0, 5, -1))
        assert S.entries == ((2, 1), (7, 4))


def test_bool_entries_rank_as_ints():
    B = ExactMatrix([[True, False, True], [False, True, True], [True, True, False]])
    Z = B.map_entries(int)
    assert rank(B) == rank(Z) == 3
    C = ExactMatrix([[True, True, False], [True, True, False]])
    assert rank(C) == rank(C.map_entries(int)) == 1
    assert exactly_equal(mat_rank_kernel(C), mat_rank_kernel(C.map_entries(int)))


def test_type_scan_picks_the_route_per_row():
    """A row of ints is copied as it is; a row with a bool or a Fraction is
    cleared of its denominators into ints; a row with an entry that is not
    rational raises."""
    half = Fraction(1, 2)
    got = _integer_rows([[3, 0, -1], [True, 2, False], [half, 1, Fraction(2, 3)], []])
    assert got == [[3, 0, -1], [1, 2, 0], [3, 6, 4], []]
    assert all(type(x) is int for r in got for x in r)
    x = MultiPoly.var("x")
    for bad in (x, LaurentPoly.term("z", 1), 0.5, "1"):
        for row in ([bad, 1], [1, 2, bad], [half, bad]):
            with pytest.raises(UnsupportedRingError):
                _integer_rows([[1, 2], row])
            with pytest.raises(UnsupportedRingError):
                _sparse_rows([[1, 2], row])
            with pytest.raises(UnsupportedRingError):
                _integer_row(dict(enumerate(row)))


def test_sparse_rows_hold_their_cleared_nonzeros():
    """The same cleared ints as ``_integer_rows``, without the zeros, and
    ``_integer_row`` does the same for a row given sparse."""
    half = Fraction(1, 2)
    dense = [[3, 0, -1], [True, 2, False], [half, 1, Fraction(2, 3)], [0, Fraction(0)], []]
    got = _sparse_rows(dense)
    assert got == [{0: 3, 2: -1}, {0: 1, 1: 2}, {0: 3, 1: 6, 2: 4}, {}, {}]
    assert got == [{j: x for j, x in enumerate(r) if x} for r in _integer_rows(dense)]
    assert all(type(x) is int for r in got for x in r.values())
    assert _integer_row({4: half, 1: 0, 0: Fraction(-2, 3), 7: Fraction(0)}) == {4: 3, 0: -4}


def cancelling_petri_case(degree):
    """A section space and a section psi at which two terms of one entry of
    the Petri rows that ``petri_kernel`` eliminates cancel: two entries
    (i, r1, j, v1) and (i, r2, j, v2) of one polarized pairing form in the
    same column j, and psi = (v2 e_r1 - v1 e_r2) x^degree, so the entry in
    row degree*dim_g + i, column j is v1 v2 - v2 v1 = 0.  At degree 0 the
    degree-0 rows prove the map injective; at degree 1 they are zero, and
    the full rows are eliminated (the map is injective there too)."""
    rep = conjugate_rep(sp_standard(1), random_symplectic(1, 3))
    space = SectionSpace(rep, 2)
    m = rep.dimV
    for (i, r1, j1, v1), (i2, r2, j2, v2) in itertools.combinations(space._forms, 2):
        if (i, j1) == (i2, j2):
            psi = [0] * space.dim
            psi[degree * m + r1], psi[degree * m + r2] = v2, -v1
            assert j1 not in petri._petri_rows(space, psi)[1][degree * rep.algebra.dim + i]
            return space, psi
    raise AssertionError("no form with two entries in one column")


def test_every_row_reaching_the_elimination_holds_nonzero_ints(monkeypatch):
    """The contract of ``_echelon``, checked on every row each caller hands
    it: a dict of columns below ncols to nonzero ints.  ``commutant`` and
    ``hom_space`` pass Sylvester rows whose terms cancel on every row r = c,
    the algebra builds pass [F | I], and the Petri rows cancel at one entry:
    in the degree-0 rows, which alone prove injectivity, and past degree 0,
    which the full rows reach."""
    calls = []
    real = matrix._echelon

    def checked(rows, ncols):
        for r in rows:
            assert type(r) is dict, r
            assert all(type(j) is int and 0 <= j < ncols and type(x) is int and x for j, x in r.items()), r
        calls.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(matrix, "_echelon", checked)
    monkeypatch.setattr(lie, "_echelon", checked)
    monkeypatch.setattr(petri, "_echelon", checked)
    runs = [
        lambda: commutant(sp_standard(2)),
        lambda: hom_space(sl2_w_plus_wdual(), 0, 1),
        lambda: lie.sl2_sym_cube.__wrapped__(),
        lambda: lie.sp_algebra.__wrapped__(2),
        lambda: MatrixLieAlgebra(conjugate_rep(sp_standard(1), random_symplectic(1, 3)).rho),
    ]
    for run in runs:
        calls.clear()
        run()
        assert calls, run
    for degree, want in ((0, [(3, 2)]), (1, [(3, 2), (9, 4)])):
        space, psi = cancelling_petri_case(degree)
        calls.clear()
        assert petri_kernel(space, psi) == []
        assert calls == want


def test_lie_eliminations_reject_polynomial_entries():
    """A polynomial entry raises UnsupportedRingError in the joint kernels
    and in the coordinate solver of an algebra build, as in the public
    eliminations."""
    x = MultiPoly.var("x")
    rep = sl2_standard()
    rho = [R.map_entries(lambda e: e * x) for R in rep.rho]
    poly = SymplecticRep(rep.algebra, rep.omega, rho, [Summand("irreducible", 0, 2)])
    for call in (lambda: commutant(poly), lambda: hom_space(poly, 0, 0), lambda: MatrixLieAlgebra(rho)):
        with pytest.raises(UnsupportedRingError):
            call()
