"""Exact linear algebra tests, with sympy as the independent oracle."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.matrix import (
    ExactMatrix,
    _cleared,
    NotSymplecticError,
    ShapeError,
    char_poly,
    in_sp,
    is_symplectic,
    mat_rank_kernel,
    rank,
    random_symplectic,
    random_symplectic_laurent,
    solve_linear,
    standard_omega,
)
from spinorlab.rings import LaurentPoly, MultiPoly, UnsupportedRingError

from matrix_oracles import laurent_lift, lifted_random_symplectic_laurent


def sympy_matrix(M):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) if isinstance(x, Fraction) else x
          for x in row] for row in M.entries]
    )


class TestRankKernel:
    def test_identity(self):
        r, k = mat_rank_kernel(ExactMatrix.identity(2))
        assert r == 2 and k == []

    def test_zero_matrix(self):
        r, k = mat_rank_kernel(ExactMatrix.zeros(3, 4))
        assert r == 0 and len(k) == 4

    def test_rank_one_kernel(self):
        # hand elimination: [[1,2],[2,4]] -> row2 - 2*row1 = 0; kernel (-2,1)
        M = ExactMatrix([[1, 2], [2, 4]])
        r, k = mat_rank_kernel(M)
        assert r == 1 and len(k) == 1
        v = k[0]
        assert M.apply(v) == (0, 0)
        # proportional to (-2, 1)
        assert v[0] * 1 == v[1] * -2

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(20):
            M = ExactMatrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
            r, k = mat_rank_kernel(M)
            assert r + len(k) == 5
            for v in k:
                assert all(x == 0 for x in M.apply(v))
            assert r == sympy_matrix(M).rank()

    def test_laurent_entries_unsupported(self):
        M = ExactMatrix([[LaurentPoly.term("z", -1)]])
        with pytest.raises(UnsupportedRingError):
            mat_rank_kernel(M)

    def test_fast_rank_agrees(self):
        rng = random.Random(11)
        for _ in range(20):
            M = ExactMatrix(
                [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(4)]
                 for _ in range(6)]
            )
            assert rank(M) == mat_rank_kernel(M)[0]


class TestSolve:
    def test_identity_solve(self):
        assert solve_linear(ExactMatrix.identity(2), (3, 5)) == (3, 5)

    def test_inconsistent(self):
        # elimination: second row minus twice the first leaves 0 = 1
        assert solve_linear(ExactMatrix([[1, 1], [2, 2]]), (1, 3)) is None

    def test_rotation_solve(self):
        # [[0,1],[-1,0]] x = (1,0) has unique solution (0,1)
        assert solve_linear(ExactMatrix([[0, 1], [-1, 0]]), (1, 0)) == (0, 1)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            solve_linear(ExactMatrix.identity(2), (1, 2, 3))

    def test_random_consistent_systems(self):
        rng = random.Random(3)
        for _ in range(15):
            M = ExactMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)])
            xtrue = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)]
            b = M.apply(xtrue)
            x = solve_linear(M, b)
            assert x is not None
            assert M.apply(x) == b


def charpoly_cofactor(M):
    """Independent char_poly oracle: expand det(lam*I - M) by cofactors."""
    lam = MultiPoly.var("lam")
    n = M.rows
    A = [[lam * (1 if i == j else 0) - M.entries[i][j] for j in range(n)] for i in range(n)]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = MultiPoly.const(0)
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * det(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    p = det(A)
    cs = p.coeffs_in("lam")
    return [cs.get(d, MultiPoly.const(0)).constant_value() for d in range(n + 1)]


class TestCharPoly:
    def test_zero_2x2(self):
        assert char_poly(ExactMatrix.zeros(2, 2)) == [0, 0, 1]

    def test_nilpotent(self):
        assert char_poly(ExactMatrix([[0, -1], [0, 0]])) == [0, 0, 1]

    def test_diagonal(self):
        # det(lam I - diag(1,2)) = lam^2 - 3 lam + 2
        assert char_poly(ExactMatrix([[1, 0], [0, 2]])) == [2, -3, 1]

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            char_poly(ExactMatrix.zeros(2, 3))

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                M = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                got = [Fraction(c) for c in char_poly(M)]
                assert got == charpoly_cofactor(M)

    def test_against_sympy(self):
        rng = random.Random(9)
        for _ in range(10):
            M = ExactMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            want = sympy.Poly(sympy_matrix(M).charpoly().as_expr()).all_coeffs()
            got = list(reversed([int(c) for c in char_poly(M)]))
            assert got == want

    def test_cayley_hamilton(self):
        rng = random.Random(13)
        for n in (2, 3):
            for _ in range(10):
                M = ExactMatrix(
                    [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
                     for _ in range(n)]
                )
                cs = char_poly(M)
                acc = ExactMatrix.zeros(n, n)
                P = ExactMatrix.identity(n)
                for c in cs:
                    acc = acc + P.scale(c)
                    P = P * M
                assert acc.is_zero

    def test_cayley_hamilton_laurent_entries(self):
        rng = random.Random(17)
        x = MultiPoly.var("x")
        for _ in range(4):
            M = ExactMatrix(
                [[LaurentPoly("z", {rng.randint(-2, 2): rng.randint(-2, 2), 0: rng.choice([0, x])})
                  for _ in range(3)] for _ in range(3)]
            )
            cs = char_poly(M)
            assert cs[3] == 1 and cs[2] == -(M[0, 0] + M[1, 1] + M[2, 2])
            acc = ExactMatrix.zeros(3, 3)
            P = ExactMatrix.identity(3)
            for c in cs:
                acc = acc + P.scale(c)
                P = P * M
            assert acc.is_zero

    def test_polynomial_entries_against_cofactor_expansion(self):
        rng = random.Random(19)
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        lam = MultiPoly.var("lam")
        for _ in range(4):
            M = ExactMatrix(
                [[rng.randint(-2, 2) * x + rng.choice([0, 1, y]) for _ in range(3)]
                 for _ in range(3)]
            )
            A = [[lam * (1 if i == j else 0) - M[i, j] for j in range(3)] for i in range(3)]
            det = (
                A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
                - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
                + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
            )
            want = det.coeffs_in("lam")
            got = char_poly(M)
            assert all(got[d] == want.get(d, 0) for d in range(4))

    def test_polynomial_ring_entries(self):
        t = MultiPoly.var("t")
        M = ExactMatrix([[t, MultiPoly.const(1)], [MultiPoly.const(0), t]])
        c0, c1, c2 = char_poly(M)
        # det(lam I - M) = (lam - t)^2 = lam^2 - 2t lam + t^2
        assert c0 == t * t and c1 == -2 * t and c2 == 1


small_ints = st.integers(min_value=-5, max_value=5)


def general_clearing(vec):
    """The lcm of the denominators and every entry times it, for any
    rational vector."""
    L = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (L // x.denominator) for x in vec], L


class TestClearDenominators:
    """``_cleared``, the one rule for what is rational, against the general
    formula on rational vectors."""

    @pytest.mark.parametrize(
        "vec",
        [
            [3, -1, 0, 7],
            (0, 0),
            [2 ** 70, -(2 ** 65)],
            [Fraction(1, 2), Fraction(-2, 3), Fraction(5)],
            [1, Fraction(1, 6), -4, Fraction(-3, 4)],
            [Fraction(4, 2), 3],
            [True, False, 2],
            [True],
            [],
            (),
        ],
    )
    def test_matches_the_general_formula(self, vec):
        got, L = _cleared(vec)
        want, want_L = general_clearing(vec)
        assert got == want and L == want_L
        assert type(got) is list and got is not vec
        assert all(type(x) is int for x in got)
        assert type(L) is int

    def test_int_vectors_come_back_as_a_copy(self):
        vec = [5, -2]
        got, L = _cleared(vec)
        got.append(9)
        assert vec == [5, -2] and L == 1

    @pytest.mark.parametrize(
        "bad", [0.5, MultiPoly.const(0), MultiPoly.var("x"), LaurentPoly.term("z", -1), "1", None], ids=repr
    )
    def test_a_value_that_is_not_rational_raises_naming_its_type(self, bad):
        for vec in ([1, bad], [Fraction(1, 2), bad, 3], [bad]):
            with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
                _cleared(vec)


class TestMatrixProperties:
    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows):
        M = ExactMatrix(rows)
        r, k = mat_rank_kernel(M)
        assert r + len(k) == M.cols
        for v in k:
            assert all(x == 0 for x in M.apply(v))

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_charpoly_trace_and_determinant(self, rows):
        M = ExactMatrix(rows)
        cs = char_poly(M)
        # degree-(n-1) coefficient is -trace; constant term is (-1)^n det
        tr = sum(rows[i][i] for i in range(3))
        assert cs[2] == -tr
        det = sympy_matrix(M).det()
        assert cs[0] == -det

    @given(st.lists(st.lists(small_ints, min_size=2, max_size=2), min_size=2, max_size=2),
           st.lists(small_ints, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_solve_or_certify(self, rows, b):
        M = ExactMatrix(rows)
        x = solve_linear(M, b)
        if x is not None:
            assert list(M.apply(x)) == [Fraction(v) for v in b]
        else:
            assert sympy_matrix(M).rank() < sympy.Matrix(
                [list(r) + [v] for r, v in zip(rows, b)]
            ).rank()


class TestSymplectic:
    def test_standard_omega_shape(self):
        O = standard_omega(2)
        assert O.transpose() == O.scale(-1)
        r, k = mat_rank_kernel(O)
        assert r == 4

    def test_sp2_is_sl2(self):
        # n=1: symplectic <=> determinant one
        M = random_symplectic(1, seed=42)
        a, b = M.entries[0]
        c, d = M.entries[1]
        assert a * d - b * c == 1

    def test_determinism(self):
        assert random_symplectic(1, 0) == random_symplectic(1, 0)
        assert random_symplectic(3, 17) == random_symplectic(3, 17)

    def test_seed7_n2_exact_product(self):
        M = random_symplectic(2, seed=7)
        O = standard_omega(2)
        assert M.transpose() * O * M == O

    def test_hundred_seeds(self):
        for n in (1, 2, 3):
            for seed in range(100):
                assert is_symplectic(random_symplectic(n, seed))

    @pytest.mark.parametrize("build", [random_symplectic, random_symplectic_laurent])
    @pytest.mark.parametrize("n", [0, -1])
    def test_half_rank_below_one_rejected(self, build, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            build(n, 3)

    def test_laurent_symplectic(self):
        for seed in range(10):
            M = random_symplectic_laurent(2, seed)
            O = standard_omega(2).map_entries(lambda x: LaurentPoly.const("z", x))
            assert M.transpose() * O * M == O

    @pytest.mark.parametrize(
        "build, factor",
        [(random_symplectic, "_rank_one_update"), (random_symplectic_laurent, "transvection")],
        ids=["random_symplectic", "random_symplectic_laurent"],
    )
    def test_non_symplectic_product_raises(self, monkeypatch, build, factor):
        # scaling every transvection by 2 scales M^T Omega M away from Omega;
        # random_symplectic applies each one as a rank-one update of its rows
        import spinorlab.matrix as matrix

        good = getattr(matrix, factor)
        if factor == "transvection":
            monkeypatch.setattr(matrix, factor, lambda v, c, omega: good(v, c, omega).scale(2))
        else:
            monkeypatch.setattr(
                matrix, factor, lambda *args: [[2 * x for x in r] for r in good(*args)]
            )
        with pytest.raises(NotSymplecticError):
            build(2, 3)


class TestRationalFormOnLaurentMatrices:
    """``is_symplectic`` and ``in_sp`` take a rational form for matrices
    over the Laurent ring, with the verdict of the form lifted to Laurent
    constants."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_laurent_matrix_matches_the_lifted_route(self, n):
        for seed in range(8):
            M = random_symplectic_laurent(n, seed)
            want, lifted_ok = lifted_random_symplectic_laurent(n, seed)
            assert M == want and lifted_ok
            assert [list(map(type, r)) for r in M.entries] == [
                list(map(type, r)) for r in want.entries
            ]
            omega = standard_omega(n)
            assert is_symplectic(M, omega) and is_symplectic(M, laurent_lift(omega, "z"))

    @pytest.mark.parametrize("factor", [2, LaurentPoly.term("z", 1), LaurentPoly("z", {0: 1, 2: 1})])
    def test_scaled_laurent_matrix_is_not_symplectic_under_either_form(self, factor):
        for seed in range(4):
            M = random_symplectic_laurent(2, seed).scale(factor)
            omega = standard_omega(2)
            assert not is_symplectic(M, omega)
            assert not is_symplectic(M, laurent_lift(omega, "z"))

    def test_in_sp_matches_the_lifted_form(self):
        z = LaurentPoly.term("z", 1)
        omega = standard_omega(2)
        N = ExactMatrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        for X, member in ((N.scale(z), True), (N.transpose().scale(z), True),
                          (ExactMatrix.identity(4).scale(z), False)):
            assert in_sp(X, omega) is member
            assert in_sp(X, laurent_lift(omega, "z")) is member
