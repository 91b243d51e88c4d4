"""The sparse row-by-row kernel ``matrix._row_echelon`` behind
``mat_rank_kernel`` and ``petri_kernel``, against the Gauss-Jordan route it
replaced (``matrix_oracles.rref_int_rank_kernel``): the same rank and the
same kernel vectors, in value and in type, on Petri matrices, tall sparse
rank-deficient matrices, a matrix that reaches full rank only at its last
row, and empty shapes."""

import random
from fractions import Fraction

import pytest

from matrix_oracles import exactly_equal, rref_int_rank_kernel, rref_rank_kernel
from spinorlab.lie import sl2_w_plus_wdual, sp_standard
from spinorlab.matrix import ExactMatrix, _integer_rows, mat_rank_kernel, rank
from spinorlab.petri import SectionSpace, _petri_rows, petri_kernel


def rand_section(rng, dim):
    return [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim)]


def petri_oracle(space, psi):
    """The old route on the Petri rows densified."""
    _, rows, _ = _petri_rows(space, psi)
    return rref_int_rank_kernel([[row.get(j, 0) for j in range(space.dim)] for row in rows], space.dim)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_sections_match_the_old_route(n):
    """sp(2n) standard sections: full rank (an empty kernel) for a generic
    section, with the rows past the rank never reduced."""
    rng = random.Random(n)
    for s in (1, 2, 4):
        space = SectionSpace(sp_standard(n), s)
        for _ in range(3):
            psi = rand_section(rng, space.dim)
            want = petri_oracle(space, psi)
            assert want == (space.dim, [])
            assert exactly_equal(petri_kernel(space, psi), want[1])


def test_dual_pair_sections_match_the_old_route():
    """W + W* sections: a one-dimensional kernel, so the kept rows are
    back-substituted."""
    rng = random.Random(5)
    for s in (1, 2, 3, 4):
        space = SectionSpace(sl2_w_plus_wdual(), s)
        for _ in range(4):
            psi = rand_section(rng, space.dim)
            want = petri_oracle(space, psi)
            if any(psi):
                assert len(want[1]) == 1
            assert exactly_equal(petri_kernel(space, psi), want[1])


@pytest.mark.parametrize("rep", [sp_standard(2), sl2_w_plus_wdual()], ids=lambda r: r.name)
def test_sections_with_zero_constant_term_and_the_zero_section(rep):
    """psi_0 = 0 leaves the first dim_g rows zero; the zero section leaves
    every row zero, so its kernel is the whole section space."""
    rng = random.Random(7)
    m = rep.dimV
    for s in (2, 3):
        space = SectionSpace(rep, s)
        for _ in range(3):
            psi = rand_section(rng, space.dim)
            psi[:m] = [0] * m
            assert exactly_equal(petri_kernel(space, psi), petri_oracle(space, psi)[1])
        zero = [0] * space.dim
        basis = [tuple(Fraction(int(i == j)) for j in range(space.dim)) for i in range(space.dim)]
        assert petri_oracle(space, zero) == (0, basis)
        assert exactly_equal(petri_kernel(space, zero), basis)


def tall_sparse(rng, m, n):
    """An m x n matrix of rank at most n - 1: sparse rows, zero rows,
    duplicate and rescaled rows, and sums of two earlier rows, in a shuffled
    order, with one column a combination of two others."""
    rows = []
    while len(rows) < m:
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * n)
        elif rows and kind < 0.3:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.4:
            c = Fraction(rng.choice([-2, -1, 3]), rng.choice([1, 2]))
            rows.append([c * x for x in rng.choice(rows)])
        elif len(rows) > 1 and kind < 0.5:
            a, b = rng.sample(rows, 2)
            rows.append([x + y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 5]))
                         if rng.random() < 0.2 else 0 for _ in range(n)])
    rng.shuffle(rows)
    j, a, b = rng.sample(range(n), 3)
    x, y = rng.choice([1, -1, 2]), rng.choice([1, Fraction(1, 3), -4])
    for r in rows:
        r[j] = x * r[a] + y * r[b]
    return ExactMatrix(rows, cols=n)


@pytest.mark.parametrize("block", range(4))
def test_tall_sparse_deficient_matrices_match_the_old_route(block):
    """Rank-deficient tall matrices: the kernel needs the back-substitution,
    and rows that reduce to zero are dropped."""
    counts = {"wide_kernel": 0, "zero_row": 0, "duplicate": 0}
    for seed in range(block * 25, block * 25 + 25):
        rng = random.Random(20_000 + seed)
        n = rng.randint(3, 14)
        M = tall_sparse(rng, rng.randint(n, 4 * n), n)
        got = mat_rank_kernel(M)
        assert exactly_equal(got, rref_int_rank_kernel(_integer_rows(M.entries), n)), (seed, M)
        assert exactly_equal(got, rref_rank_kernel(M)), (seed, M)
        assert got[0] == rank(M) < n
        assert all(not any(M.apply(v)) for v in got[1])
        counts["wide_kernel"] += len(got[1]) > 1
        counts["zero_row"] += any(not any(r) for r in M.entries)
        counts["duplicate"] += len(set(M.entries)) < M.rows
    assert all(counts.values()), counts


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_full_rank_at_the_last_sorted_row(n):
    """Sparse rows (zero, duplicated and rescaled) span the hyperplane of
    vectors with coordinate sum zero; the one dense row, first in the input
    but last sparsest-first, completes the rank."""
    diffs = [[int(j == i) - int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows = [[1] * n] + diffs + [[0] * n] + diffs[::-1] + [[-3 * x for x in diffs[0]]]
    M = ExactMatrix(rows, cols=n)
    without = ExactMatrix(rows[1:], cols=n)
    assert rref_int_rank_kernel(_integer_rows(without.entries), n) == (n - 1, [(Fraction(1),) * n])
    assert exactly_equal(mat_rank_kernel(without), rref_int_rank_kernel(_integer_rows(without.entries), n))
    assert mat_rank_kernel(M) == (n, []) == rref_int_rank_kernel(_integer_rows(M.entries), n)


@pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 4), (1, 0), (3, 0)])
def test_empty_shapes(shape):
    m, n = shape
    M = ExactMatrix([[0] * n for _ in range(m)], cols=n)
    got = mat_rank_kernel(M)
    assert exactly_equal(got, rref_int_rank_kernel(_integer_rows(M.entries), n))
    assert exactly_equal(got, rref_rank_kernel(M))
    assert got == (0, [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)])
