"""``random_symplectic`` by rank-one updates against the product of its
transvection matrices, and ``is_symplectic`` by the pair formula against the
dense product M^T Omega M (both in ``matrix_oracles``)."""

from fractions import Fraction

import pytest

import spinorlab.matrix as matrix
from spinorlab.matrix import (
    ExactMatrix,
    in_sp,
    is_symplectic,
    line_block_form,
    random_symplectic,
    random_symplectic_laurent,
    standard_omega,
)
from spinorlab.rings import LaurentPoly, MultiPoly, UnsupportedRingError

from matrix_oracles import dense_is_symplectic, exactly_equal, transvection_product_symplectic


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_one_updates_match_the_transvection_product(n):
    """Same values and same types entry by entry, Fraction(0) and int 0
    included, so the matrices print alike."""
    for seed in range(50):
        assert exactly_equal(random_symplectic(n, seed), transvection_product_symplectic(n, seed))


def test_the_comparison_sees_both_kinds_of_zero():
    zeros = {
        type(x)
        for n in (2, 3)
        for seed in range(20)
        for r in transvection_product_symplectic(n, seed).entries
        for x in r
        if x == 0
    }
    assert zeros == {int, Fraction}


def _one_entry_perturbations(M):
    """M with one entry changed, for every entry and two amounts."""
    rows = [list(r) for r in M.entries]
    for i in range(M.rows):
        for j in range(M.cols):
            for delta in (1, Fraction(-1, 2)):
                changed = [r[:] for r in rows]
                changed[i][j] += delta
                yield ExactMatrix(changed)


@pytest.mark.parametrize("n", range(1, 5))
def test_pair_formula_matches_the_dense_product(n):
    """Some one-entry changes stay symplectic (a shear of a pair), most do
    not; the verdicts must agree on every one."""
    verdicts = set()
    for M in (ExactMatrix.identity(2 * n), random_symplectic(n, n)):
        assert is_symplectic(M) and is_symplectic(M, standard_omega(n))
        for P in _one_entry_perturbations(M):
            got = is_symplectic(P)
            assert got == dense_is_symplectic(P) == is_symplectic(P, standard_omega(n))
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(1, 5))
def test_a_scaled_pair_breaks_only_its_own_entry(n):
    """Scaling one diagonal entry of the identity leaves every pair sum right
    but the one of its own pair (2k, 2k+1)."""
    for i in range(2 * n):
        D = ExactMatrix.diag([Fraction(3, 2) if j == i else 1 for j in range(2 * n)])
        assert not is_symplectic(D) and not dense_is_symplectic(D)


def test_rational_standard_form_takes_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense product")

    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    assert is_symplectic(random_symplectic(4, 1))
    assert not is_symplectic(ExactMatrix.diag([2, 1, 1, 1]))
    with pytest.raises(AssertionError, match="dense product"):
        is_symplectic(random_symplectic_laurent(2, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_other_forms_and_rings_keep_the_dense_product(n):
    omega = line_block_form(n)
    M = ExactMatrix.from_blocks(
        [[ExactMatrix.identity(1), ExactMatrix.zeros(1, 2 * n - 1)],
         [ExactMatrix.zeros(2 * n - 1, 1), ExactMatrix.identity(2 * n - 1)]]
    )
    assert is_symplectic(M, omega) == dense_is_symplectic(M, omega)
    for seed in range(3):
        L = random_symplectic_laurent(n, seed)
        assert is_symplectic(L) and dense_is_symplectic(L)
        scaled = L.scale(LaurentPoly.term("z", 1))
        assert not is_symplectic(scaled) and not dense_is_symplectic(scaled)
    assert not is_symplectic(ExactMatrix.zeros(2 * n, 2 * n - 1))
    assert not is_symplectic(ExactMatrix.identity(3))


@pytest.mark.parametrize("convert", [MultiPoly.const, lambda x: LaurentPoly.term("z", 0, x)], ids=["MultiPoly", "LaurentPoly"])
def test_a_matrix_that_is_not_rational_takes_the_dense_product(monkeypatch, convert):
    """One entry outside the rationals sends M to the dense product when
    ``_cleared`` rejects it, with the verdict of the equal rational M."""
    calls = []
    dense = ExactMatrix.__mul__
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: calls.append(1) or dense(a, b))
    for M, want in ((random_symplectic(2, 5), True), (ExactMatrix.diag([2, 1, 1, 1]), False)):
        rows = [list(r) for r in M.entries]
        rows[0][0] = convert(rows[0][0])
        other = ExactMatrix(rows)
        got = is_symplectic(other)
        assert calls
        assert got == want == dense_is_symplectic(other)
        calls.clear()
    x = MultiPoly.var("x")
    assert not is_symplectic(random_symplectic(2, 5).scale(x))


@pytest.mark.parametrize("bad", [None, "1", 0.5, 0.0], ids=repr)
def test_the_dense_product_takes_only_values_of_the_tower(bad):
    """An entry outside the coefficient tower raises UnsupportedRingError
    naming its type on the dense route, against the standard form (which
    ``_cleared`` turns it to) and against any other, in M or in omega.  A
    None was read as zero there, and a str multiplied into a bare TypeError."""
    M = ExactMatrix([[bad, 1], [-1, 0]])
    omega = ExactMatrix([[bad, 3], [-3, 0]])
    for args in ((M,), (M, standard_omega(1).scale(3)), (standard_omega(1), omega)):
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
            is_symplectic(*args)


def test_a_form_equal_to_the_standard_one_is_checked_before_the_route():
    """A float form compares equal to the standard one as a tuple, so it
    once took the standard-form routes and came back True; scaled by 3 it
    raised.  Both now raise UnsupportedRingError naming float."""
    for omega in (ExactMatrix([[0.0, 1], [-1, 0]]), ExactMatrix([[0, 1.0], [-1, 0]])):
        assert omega == standard_omega(1)
        for probe in (lambda: is_symplectic(standard_omega(1), omega),
                      lambda: in_sp(ExactMatrix([[1, 0], [0, -1]]), omega),
                      lambda: is_symplectic(standard_omega(1), omega.scale(3)),
                      lambda: in_sp(ExactMatrix([[1, 0], [0, -1]]), omega.scale(3))):
            with pytest.raises(UnsupportedRingError, match="not float$"):
                probe()


def test_rank_one_update_is_the_transvection_product():
    """``_rank_one_update`` on the rows of a rational M equals q D times
    M * transvection(v, p/q, omega)."""
    M = random_symplectic(2, 4)
    D = 2 ** 8
    U = [[int(x * D) for x in r] for r in M.entries]
    omega = standard_omega(2)
    for v, p, q in (([1, 0, -2, 1], 1, 2), ([0, 2, 1, -1], -2, 1)):
        got = matrix._rank_one_update(U, v, omega.apply(v), p, q)
        want = M * matrix.transvection(v, Fraction(p, q), omega)
        assert [[Fraction(x, q * D) for x in r] for r in got] == [list(r) for r in want.entries]
