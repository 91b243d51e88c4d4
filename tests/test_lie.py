"""Representation structure tests: verification surface, commutants,
intertwiners, and the multiplicity-freeness check."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lie_oracles import dense_invariance_checks, dense_sylvester
from spinorlab.lie import (
    InvariantFormError,
    MatrixLieAlgebra,
    RepFormatError,
    Summand,
    SymplecticRep,
    _CoordinateSolver,
    _brackets,
    _flattened,
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
    _sylvester,
    verify_symplectic_rep,
)
from spinorlab.matrix import ExactMatrix, in_sp, random_symplectic, standard_omega
from spinorlab.rings import LaurentPoly, MultiPoly, UnsupportedRingError


class TestFlatRho:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_rep_on_its_own_basis_shares_the_algebra_flats(self, n):
        rep = sp_standard(n)
        assert rep._rho_flat is sp_algebra(n)._flat
        assert sl2_standard()._rho_flat is sl2_standard().algebra._flat

    def test_a_conjugated_rep_flattens_its_own_rho(self):
        rep = sp_standard(2)
        g = random_symplectic(2, 5)
        conj = conjugate_rep(rep, g)
        assert conj.rho is not conj.algebra.basis
        assert conj._rho_flat is not rep.algebra._flat
        assert conj._rho_flat == [_flattened(R) for R in conj.rho]
        assert conj._rho_flat != rep._rho_flat

    def test_an_equal_but_distinct_rho_is_flattened(self):
        alg = sp_algebra(1)
        rep = SymplecticRep(alg, standard_omega(1), list(alg.basis), [Summand("irreducible", 0, 2)])
        assert rep.rho == alg.basis and rep.rho is not alg.basis
        assert rep._rho_flat is not alg._flat and rep._rho_flat == alg._flat


class TestEntriesReadAsZero:
    """A None, 0.0 or "" entry is falsy but is no zero of the coefficient
    tower.  The public constructors and ``in_sp`` would read it as zero
    through ``matrix._flattened``; they raise UnsupportedRingError naming
    its type instead."""

    FALSY = [None, 0.0, ""]

    @staticmethod
    def sl2_with(bad):
        """(e, h, f) of sl2 with the zero at row 1, column 0 of e replaced."""
        e, h, f = sl2_algebra().basis
        rows = [list(r) for r in e.entries]
        rows[1][0] = bad
        return [ExactMatrix(rows), h, f]

    @pytest.mark.parametrize("bad", FALSY, ids=repr)
    def test_basis_matrix(self, bad):
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
            MatrixLieAlgebra(self.sl2_with(bad))

    @pytest.mark.parametrize("bad", FALSY, ids=repr)
    def test_rho_image(self, bad):
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
            SymplecticRep(sl2_algebra(), standard_omega(1), self.sl2_with(bad), [Summand("irreducible", 0, 2)])

    @pytest.mark.parametrize("bad", FALSY, ids=repr)
    def test_omega(self, bad):
        """A form with a falsy entry raised a bare TypeError only later, in
        ``verify_symplectic_rep``; the constructor checks omega as it does rho."""
        omega = ExactMatrix([[bad, 1], [-1, 0]])
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
            SymplecticRep(sl2_algebra(), omega, sl2_algebra().basis, [Summand("irreducible", 0, 2)])

    @pytest.mark.parametrize("bad", FALSY, ids=repr)
    def test_in_sp(self, bad):
        X = self.sl2_with(bad)[0]
        # the pair rule against the standard form, and the dense product
        for omega in (None, standard_omega(1).scale(2)):
            with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}$"):
                in_sp(X, omega)

    def test_zeros_of_the_tower_are_read_as_zero(self):
        e, h, f = sl2_algebra().basis
        zeros = [Fraction(0), False, MultiPoly.const(0), LaurentPoly("z", {})]
        for zero in zeros:
            rows = [list(r) for r in e.entries]
            rows[1][0] = zero
            assert in_sp(ExactMatrix(rows))
            assert MatrixLieAlgebra([ExactMatrix(rows), h, f])._flat == sl2_algebra()._flat


class TestAlgebra:
    def test_sl2_structure_constants(self):
        alg = sl2_algebra()
        # [e, f] = h, [h, e] = 2e, [h, f] = -2f with basis order (e, h, f)
        assert alg.bracket_coords(0, 2) == {1: 1}
        assert alg.bracket_coords(1, 0) == {0: 2}
        assert alg.bracket_coords(1, 2) == {2: -2}

    def test_sp_dimension(self):
        for n in (1, 2, 3):
            assert sp_algebra(n).dim == n * (2 * n + 1)

    def test_closure_violation_rejected(self):
        # e and f alone do not close: [e,f] = h is outside the span, with
        # integer or rational entries
        e = ExactMatrix([[0, 1], [0, 0]])
        f = ExactMatrix([[0, 0], [1, 0]])
        for first in (e, e.scale(Fraction(1, 2))):
            with pytest.raises(ValueError, match="^basis is not closed under the bracket$"):
                MatrixLieAlgebra([first, f])

    def test_cancelling_products_give_no_table_entry(self):
        # I E12 and E12 I meet at the same entry and cancel: the pair has
        # product terms, but its bracket is zero
        one, e = ExactMatrix.identity(2), ExactMatrix([[0, 1], [0, 0]])
        alg = MatrixLieAlgebra([one, e])
        assert _brackets(alg._flat, 2) == [(0, 1, {1: 0})]
        assert alg._constants == []
        assert alg.structure_constants == {}
        assert alg.bracket_coords(0, 1) == alg.bracket_coords(1, 0) == {}

    def test_dependent_basis_rejected(self):
        e = ExactMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            MatrixLieAlgebra([e, e.scale(2)])

    def test_dependence_in_the_last_row_rejected(self):
        """h, e, f and the densest 2h + 3e - f: the last, reduced last in
        [F | I], is the only row whose pivot lands in the identity block."""
        cols = [{0: 1, 3: -1}, {1: 1}, {2: 1}, {0: 2, 1: 3, 2: -1, 3: -2}]
        assert _CoordinateSolver(cols[:3], 4).sel == [0, 1, 2]
        with pytest.raises(ValueError, match="linearly dependent"):
            _CoordinateSolver(cols, 4)
        h, e, f = ExactMatrix([[1, 0], [0, -1]]), ExactMatrix([[0, 1], [0, 0]]), ExactMatrix([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="linearly dependent"):
            MatrixLieAlgebra([h, e, f, h.scale(2) + e.scale(3) - f])

    def test_trace_gram_nondegenerate(self):
        from spinorlab.matrix import mat_rank_kernel

        for alg in (sl2_algebra(), sp_algebra(2)):
            g = alg.trace_gram()
            assert mat_rank_kernel(g)[0] == alg.dim

    def test_trace_form_holds_the_nonzeros_of_tr_xy(self):
        """Row i of ``_trace_form`` is {j: tr(X_i X_j)} over the nonzeros of
        the dense products, and ``trace_gram`` is its dense view; the
        built-in sp(2n) has one nonzero per row."""
        e, h, f = sl2_algebra().basis
        skew = MatrixLieAlgebra([f, h, e + f.scale(Fraction(1, 3))])
        for alg in (sl2_algebra(), skew, sp_algebra(1), sp_algebra(2), sp_algebra(3)):
            B = alg.basis
            want = [{j: t for j, Y in enumerate(B) if (t := sum((X * Y)[r, r] for r in range(alg.ambient_dim)))}
                    for X in B]
            assert alg._trace_form == want
            assert alg.trace_gram() == ExactMatrix([[row.get(j, 0) for j in range(alg.dim)] for row in want])
        assert all(len(row) == 1 for row in sp_algebra(3)._trace_form)


def _on_sl2(omega, summands, rho=None):
    """A representation of sl2 on Q^d with the given form; rho is zero
    unless given."""
    d = len(omega)
    rho = rho or [ExactMatrix.zeros(d, d)] * 3
    return SymplecticRep(sl2_algebra(), ExactMatrix(omega), rho, summands)


def _on_own_span(N, omega, summands):
    """The abelian algebra spanned by N, acting by N itself."""
    N = ExactMatrix(N)
    return SymplecticRep(MatrixLieAlgebra([N]), ExactMatrix(omega), [N], summands)


_DUALITY = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
# invertible, with a nondegenerate (0, 2) block and a zero (2, 4) block
_FIRST_BLOCK_ONLY = [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
_IRR_IRR = [Summand("irreducible", 0, 2), Summand("irreducible", 2, 4)]
_DUAL = [Summand("dual-pair", 0, 4, mid=2)]


def _antisymmetric(d, ones):
    """The d x d antisymmetric form with 1 at each (r, c) of ``ones``."""
    rows = [[0] * d for _ in range(d)]
    for r, c in ones:
        rows[r][c], rows[c][r] = 1, -1
    return rows


# invertible, zero on W = (0, 2) and W* = (2, 4), but of rank 2 on the
# dual pair's block (0, 4): the pairing of coordinate 1 lands at 4
_DEGENERATE_DUAL_PAIR = _antisymmetric(6, [(0, 2), (1, 4), (3, 5), (4, 5)])
_CORRUPTED = {
    "omega not antisymmetric": lambda: (
        _on_sl2([[0, 1], [2, 0]], [Summand("irreducible", 0, 2)]), ["omega antisymmetric"]
    ),
    "omega singular": lambda: (
        _on_sl2([[0] * 4] * 4, _DUAL), ["omega invertible", "omega nondegenerate on summand0"]
    ),
    "omega degenerate on a dual pair": lambda: (
        _on_sl2(_DEGENERATE_DUAL_PAIR, [Summand("dual-pair", 0, 4, mid=2), Summand("irreducible", 4, 6)]),
        ["omega nondegenerate on summand0"],
    ),
    "omega degenerate on one block": lambda: (
        _on_sl2(_FIRST_BLOCK_ONLY, _IRR_IRR), ["omega nondegenerate on summand1"]
    ),
    "W not isotropic": lambda: (_on_sl2(_FIRST_BLOCK_ONLY, _DUAL), ["W isotropic in summand0"]),
    "W* not isotropic": lambda: (
        _on_sl2([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]], _DUAL),
        ["W* isotropic in summand0"],
    ),
    "W* not invariant": lambda: (
        # N = [[0, I], [0, 0]] lies in sp for the duality pairing and maps W*
        # into W: W is invariant and W* is not
        _on_own_span([[0, 0, 1, 0], [0, 0, 0, 1], [0] * 4, [0] * 4], _DUALITY, _DUAL),
        ["invariance of summand0.W*"],
    ),
    "summands swapped by rho": lambda: (
        # N = -Omega S for S = [[0, I], [I, 0]]: in sp, off the diagonal blocks
        _on_own_span(
            [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
            _IRR_IRR,
        ),
        ["invariance of summand0", "invariance of summand1"],
    ),
    "rho not a homomorphism": lambda: (
        # (e, h, 2f): [e, 2f] = 2h, but rho([e, f]) = rho(h) = h
        _on_sl2([[0, 1], [-1, 0]], [Summand("irreducible", 0, 2)],
                [sl2_algebra().basis[0], sl2_algebra().basis[1], sl2_algebra().basis[2].scale(2)]),
        ["homomorphism fails on (X0, X2)"],
    ),
    "rho brackets all zero": lambda: (
        # (0, h, 0): no two images have a product term, so every rho
        # bracket is zero, yet [e, f] = h asks for rho(h) = h
        _on_sl2([[0, 1], [-1, 0]], [Summand("irreducible", 0, 2)],
                [ExactMatrix.zeros(2, 2), sl2_algebra().basis[1], ExactMatrix.zeros(2, 2)]),
        ["homomorphism fails on (X0, X2)"],
    ),
}


def _invariance_checks(rep):
    return [check for check in verify_symplectic_rep(rep).checks if check[0].startswith("invariance of ")]


class TestVerify:
    def test_sp4_standard_passes(self):
        report = verify_symplectic_rep(sp_standard(2))
        assert report.passed

    def test_sl2_dual_pair_passes_with_isotropy(self):
        report = verify_symplectic_rep(sl2_w_plus_wdual())
        assert report.passed
        names = [n for n, _ in report.checks]
        assert any("W isotropic" in n for n in names)
        assert any("W* isotropic" in n for n in names)

    def test_each_summand_is_checked_nondegenerate(self):
        """One entry per summand, whatever its kind, and the two isotropy
        entries after it for a dual pair."""
        rep = direct_sum(direct_sum(sl2_standard(), sl2_w_plus_wdual()), sl2_sym_cube())
        report = verify_symplectic_rep(rep)
        assert report.passed
        names = [n for n, _ in report.checks if not n.startswith(("sp-membership", "invariance", "homomorphism"))]
        assert names == [
            "omega antisymmetric", "omega invertible",
            "omega nondegenerate on summand0",
            "omega nondegenerate on summand1", "W isotropic in summand1", "W* isotropic in summand1",
            "omega nondegenerate on summand2",
        ]

    def test_degenerate_dual_pair_fails_when_read_back(self):
        rep, failed = _CORRUPTED["omega degenerate on a dual pair"]()
        assert verify_symplectic_rep(rep_from_text(rep_to_text(rep))).failed_names() == failed

    def test_one_image_per_basis_element(self):
        with pytest.raises(ValueError, match="^need one image per basis element$"):
            SymplecticRep(sl2_algebra(), standard_omega(1), sl2_algebra().basis[:2], [Summand("irreducible", 0, 2)])

    def test_sym_cube_passes(self):
        assert verify_symplectic_rep(sl2_sym_cube()).passed

    def test_sym_cube_needs_a_unique_invariant_form(self, monkeypatch):
        # with rho = 0 every antisymmetric form is invariant
        import spinorlab.lie as lie

        lie.sl2_algebra()
        monkeypatch.setattr(lie, "_sym_power", lambda k: [{}, {}, {}])
        with pytest.raises(InvariantFormError):
            lie.sl2_sym_cube.__wrapped__()

    def test_corrupted_rho_fails_sp_membership(self):
        rep = sp_standard(1)
        bad = [list(r) for r in rep.rho[0].entries]
        bad[0][0] = bad[0][0] + 1
        corrupted = SymplecticRep(
            rep.algebra, rep.omega, [ExactMatrix(bad)] + list(rep.rho[1:]), rep.summands
        )
        report = verify_symplectic_rep(corrupted)
        assert not report.passed
        assert any("sp-membership rho(X0)" in n for n in report.failed_names())

    @pytest.mark.parametrize("case", list(_CORRUPTED))
    def test_each_failing_check_is_reported(self, case):
        rep, failed = _CORRUPTED[case]()
        assert verify_symplectic_rep(rep).failed_names() == failed

    @pytest.mark.parametrize("case", list(_CORRUPTED))
    def test_invariance_matches_the_dense_scan_on_corrupted_reps(self, case):
        rep, _ = _CORRUPTED[case]()
        assert _invariance_checks(rep) == dense_invariance_checks(rep)

    def test_invariance_matches_the_dense_scan_on_built_in_reps(self):
        reps = [sp_standard(n) for n in (1, 2, 3, 4)]
        reps += [sl2_standard(), sl2_w_plus_wdual(), sl2_sym_cube(), trivial_rep(sl2_algebra(), n=2)]
        reps += [direct_sum(r1, r2) for r1, r2 in itertools.product(reps[4:], repeat=2)]
        reps.append(conjugate_rep(sp_standard(2), random_symplectic(2, 3)))
        for rep in reps:
            checks = _invariance_checks(rep)
            assert checks == dense_invariance_checks(rep)
            assert len(checks) == len(rep.constituents()) and all(ok for _, ok in checks)

    def test_invariance_matches_the_dense_scan_under_single_entry_changes(self):
        """One entry of one rho set to a random value, on sums whose
        constituents sit at different offsets: the flat scan reads columns
        as columns, and both verdicts occur."""
        rng = random.Random(19)
        bases = [
            direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
            direct_sum(sl2_sym_cube(), sl2_standard()),
            direct_sum(sp_standard(1), sp_standard(1)),
        ]
        seen = set()
        for _ in range(300):
            rep = rng.choice(bases)
            d = rep.dimV
            i, r, c = rng.randrange(len(rep.rho)), rng.randrange(d), rng.randrange(d)
            R = [list(row) for row in rep.rho[i].entries]
            R[r][c] = rng.choice([0, 1, -2, Fraction(1, 3)])
            rho = list(rep.rho)
            rho[i] = ExactMatrix(R)
            bad = SymplecticRep(rep.algebra, rep.omega, rho, rep.summands)
            checks = _invariance_checks(bad)
            assert checks == dense_invariance_checks(bad), (i, r, c)
            seen.update(ok for _, ok in checks)
        assert seen == {True, False}

    def test_homomorphism_random_pairs(self):
        rng = random.Random(2)
        for rep in (sp_standard(2), sl2_w_plus_wdual(), sl2_sym_cube()):
            alg = rep.algebra
            for _ in range(50):
                xi = [rng.randint(-3, 3) for _ in range(alg.dim)]
                eta = [rng.randint(-3, 3) for _ in range(alg.dim)]
                X = alg.from_coordinates(xi)
                Y = alg.from_coordinates(eta)
                bracket = X * Y - Y * X
                coords = alg.coordinates_of(bracket)
                assert coords is not None
                lhs = rep.rho_of(coords)
                rx, ry = rep.rho_of(xi), rep.rho_of(eta)
                assert lhs == rx * ry - ry * rx


class TestCommutant:
    def test_sp4_standard_is_scalars(self):
        basis = commutant(sp_standard(2))
        assert len(basis) == 1

    def test_w_plus_wdual_dimension_four(self):
        # W is self-dual as an sl2-module, so End_g(W + W*) has dimension 4
        assert len(commutant(sl2_w_plus_wdual())) == 4

    def test_trivial_rep_full_endomorphisms(self):
        rep = trivial_rep(sp_algebra(1), n=1)
        assert len(commutant(rep)) == 4

    def test_contains_identity(self):
        for rep in (sp_standard(1), sl2_sym_cube()):
            basis = commutant(rep)
            # identity must lie in the span: check by solving
            from spinorlab.matrix import mat_rank_kernel

            cols = [[x for r in b.entries for x in r] for b in basis]
            ident = [x for r in ExactMatrix.identity(rep.dimV).entries for x in r]
            with_id = ExactMatrix(cols + [ident]).transpose()
            without = ExactMatrix(cols).transpose()
            assert mat_rank_kernel(with_id)[0] == mat_rank_kernel(without)[0]

    def test_each_joint_kernel_is_one_elimination(self, monkeypatch):
        import spinorlab.lie as lie

        calls = []
        real = lie._row_echelon
        monkeypatch.setattr(lie, "_row_echelon", lambda rows, ncols: calls.append(len(rows)) or real(rows, ncols))
        for rep in (sp_standard(3), sl2_w_plus_wdual(), direct_sum(sl2_standard(), sl2_sym_cube())):
            calls.clear()
            commutant(rep)
            assert len(calls) == 1
            count = len(rep.constituents())
            for a, b in itertools.product(range(count), repeat=2):
                calls.clear()
                hom_space(rep, a, b)
                assert len(calls) == 1
            calls.clear()
            assert verify_symplectic_rep(rep).passed
            assert calls == []
        calls.clear()
        lie.sl2_sym_cube.__wrapped__()
        assert len(calls) == 1

    def test_dimension_invariant_under_conjugation(self):
        for seed in (3, 8):
            g = random_symplectic(2, seed)
            rep = sp_standard(2)
            conj = conjugate_rep(rep, g)
            assert len(commutant(conj)) == len(commutant(rep))


def _nonzeros(M):
    return [(r, c, x) for r, row in enumerate(M.entries) for c, x in enumerate(row) if x]


class TestSylvester:
    def test_against_brute_force_products(self):
        """The rows, keyed by position, are the nonzeros of the dense
        oracle's nonempty rows, with the terms that cancel dropped (B = -A
        cancels on every row r = c), and applied to T they give T A + B T."""
        rng = random.Random(23)

        def rand(rows, cols, density=1.0):
            return ExactMatrix(
                [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) if rng.random() < density else 0
                  for _ in range(cols)] for _ in range(rows)]
            )

        shapes = [(2, 3), (3, 2), (1, 4), (4, 4), (3, 3), (4, 3), (5, 5)]
        for (p, q), density in itertools.product(shapes, (1.0, 0.2)):
            A, B, T = rand(q, q, density), rand(p, p, density), rand(p, q)
            for B in (B, -A, ExactMatrix.zeros(p, p)) if p == q else (B,):
                rows = _sylvester(_nonzeros(A), _nonzeros(B), p, q)
                assert rows == {
                    i: {j: x for j, x in enumerate(r) if x}
                    for i, r in enumerate(dense_sylvester(A, B).entries) if any(r)
                }
                assert all(rows.values())
                t = [x for r in T.entries for x in r]
                want = T * A + B * T
                assert [sum(x * t[j] for j, x in rows.get(i, {}).items()) for i in range(p * q)] == [
                    x for r in want.entries for x in r
                ]

    def test_no_row_is_empty(self):
        """A row whose only two terms cancel is dropped with them, and a row
        that neither matrix reaches is never built: for A = diag(1, 0, 2),
        T A - A T has (a_c - a_r) T_rc at r q + c, zero on the diagonal."""
        A = ExactMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
        rows = _sylvester(_nonzeros(A), _nonzeros(-A), 3, 3)
        assert rows == {1: {1: -1}, 2: {2: 1}, 3: {3: 1}, 5: {5: 2}, 6: {6: -1}, 7: {7: -2}}
        assert _sylvester([], [], 3, 3) == {}
        for rep in (sp_standard(3), direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())):
            d = rep.dimV
            for flat in rep._rho_flat:
                at = [(*divmod(p, d), x) for p, x in flat.items()]
                assert all(_sylvester(at, [(r, c, -x) for r, c, x in at], d, d).values())

    def test_commutant_and_hom_space_build_no_dense_block(self, monkeypatch):
        """Every Sylvester set-up reads the nonzeros of rho: no negated copy
        and no submatrix of a representation matrix is formed.  The
        dimensions are Schur's: W is self-dual, Sym3 is not W."""
        rep = direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())

        def refuse(*args):
            raise AssertionError("dense block of a representation matrix")

        monkeypatch.setattr(ExactMatrix, "submatrix", refuse)
        monkeypatch.setattr(ExactMatrix, "__neg__", refuse)
        assert len(commutant(rep)) == 5
        cons = rep.constituents()
        assert len(cons) == 3
        dims = {(a, b): hom_space(rep, a, b) for a, b in itertools.product(range(3), repeat=2)}
        assert dims == {(a, b): int(a == b or {a, b} == {0, 1}) for a, b in dims}


class TestHomSpace:
    def test_two_copies_identity_intertwiner(self):
        rep = direct_sum(sp_standard(1), sp_standard(1))
        assert hom_space(rep, 0, 1) >= 1

    def test_standard_vs_trivial_zero(self):
        rep = direct_sum(sp_standard(2), trivial_rep(sp_algebra(2), n=1))
        assert hom_space(rep, 0, 1) == 0

    def test_w_self_dual(self):
        rep = sl2_w_plus_wdual()
        assert hom_space(rep, 0, 1) == 1

    def test_index_error(self):
        with pytest.raises(IndexError):
            hom_space(sp_standard(1), 0, 5)


class TestAlmostSaturated:
    def test_sp_standard_true(self):
        for n in (1, 2, 3):
            assert almost_saturated_check(sp_standard(n)).status == "TRUE"

    def test_w_plus_wdual_false_with_witness(self):
        verdict = almost_saturated_check(sl2_w_plus_wdual())
        assert verdict.status == "FALSE"
        assert any("W" in a and "W*" in b for a, b in verdict.witnesses)

    def test_two_copies_false(self):
        rep = direct_sum(sp_standard(1), sp_standard(1))
        verdict = almost_saturated_check(rep)
        assert verdict.status == "FALSE"
        assert verdict.witnesses

    def test_sym_cube_plus_standard_true(self):
        # two non-isomorphic irreducible symplectic sl2-modules
        rep = direct_sum(sl2_standard(), sl2_sym_cube())
        assert almost_saturated_check(rep).status == "TRUE"

    def test_dual_pair_in_sum_still_false(self):
        rep = direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())
        assert almost_saturated_check(rep).status == "FALSE"

    def test_inconclusive_on_misdeclared_block(self):
        base = sl2_w_plus_wdual()
        misdeclared = SymplecticRep(
            base.algebra, base.omega, base.rho, [Summand("irreducible", 0, 4)]
        )
        verdict = almost_saturated_check(misdeclared)
        assert verdict.status == "INCONCLUSIVE"

    @pytest.mark.parametrize("case", list(_CORRUPTED))
    def test_a_rep_that_fails_verification_is_refused(self, case):
        rep, failed = _CORRUPTED[case]()
        with pytest.raises(ValueError, match=re.escape(f"representation fails verification: {failed}")):
            almost_saturated_check(rep)

    def test_verdict_invariant_under_summand_order(self):
        x = direct_sum(sl2_w_plus_wdual(), sl2_sym_cube())
        y = direct_sum(sl2_sym_cube(), sl2_w_plus_wdual())
        assert almost_saturated_check(x).status == almost_saturated_check(y).status
        a = direct_sum(sl2_standard(), sl2_sym_cube())
        b = direct_sum(sl2_sym_cube(), sl2_standard())
        assert almost_saturated_check(a).status == almost_saturated_check(b).status == "TRUE"


_SMALL_REPS = (sl2_standard(), sp_standard(1), sl2_w_plus_wdual())
_GARBAGE = st.text(alphabet="0123456789-/.e_xX ", max_size=6) | st.sampled_from(
    ["1/0", "nan", "inf", "spinorlab-rep", "summand", "rho", "X", "dual", "irr"]
)


class TestSerialization:
    def test_round_trip(self):
        for rep in (sp_standard(2), sl2_w_plus_wdual(), sl2_sym_cube()):
            text = rep_to_text(rep)
            back = rep_from_text(text)
            assert back.dimV == rep.dimV
            assert back.omega == rep.omega
            assert list(back.rho) == list(rep.rho)
            assert back.summands == rep.summands
            assert list(back.algebra.basis) == list(rep.algebra.basis)
            assert rep_to_text(back) == text

    def test_bad_header_rejected(self):
        with pytest.raises(RepFormatError):
            rep_from_text("not-a-rep 9\n")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=12))
    @example("std rep")
    @example("")
    @example("a\x85b")
    @example("a\u2028b")
    @example("\x00")
    def test_names_round_trip_or_are_refused(self, name):
        base = sl2_standard()
        rep = SymplecticRep(base.algebra, base.omega, base.rho, base.summands, name=name)
        try:
            text = rep_to_text(rep)
        except ValueError:
            assert name.split() != [name] and name
            return
        assert rep_to_text(rep_from_text(text)) == text

    @pytest.mark.parametrize(
        "make, old, new",
        [
            (sl2_standard, "spinorlab-rep 1 sl2-standard", "spinorlab-rep 1 std rep"),
            (sl2_standard, "spinorlab-rep 1 sl2-standard", "spinorlab-rep 1"),
            (sl2_w_plus_wdual, "algebra 3 2", "algebra \u0663 0_2"),
            (sl2_w_plus_wdual, "algebra 3 2", "zzz 3 2"),
            (sl2_w_plus_wdual, "dimV 4", "nope 4"),
            (sl2_w_plus_wdual, "dimV 4", "dimV 4 4"),
            (sl2_w_plus_wdual, "summand dual 0 2 4", "summand dual +0 2 4"),
            (sl2_w_plus_wdual, "summand dual 0 2 4", "summand foo 0 2 4"),
            (sl2_w_plus_wdual, "summand dual 0 2 4", "summand dual 0 2 4 junk"),
            (sl2_w_plus_wdual, "summand dual 0 2 4", "summand dual 0 2"),
            (sl2_standard, "summand irr 0 2", "summand irr 0 2 2"),
            (sl2_standard, "summand irr 0 2", "summand irr 0 \uff12"),
            # an empty summand passed verification and made the verdict INCONCLUSIVE
            (sl2_standard, "summand irr 0 2", "summand irr 0 2\nsummand irr 2 2"),
            (sl2_standard, "summand irr 0 2", "summand irr 0 2\nsummand irr 5 3"),
        ],
    )
    def test_only_what_rep_to_text_writes_is_read(self, make, old, new):
        text = rep_to_text(make())
        assert old + "\n" in text
        with pytest.raises(RepFormatError):
            rep_from_text(text.replace(old + "\n", new + "\n"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prefix_or_garbled_text_parses_or_raises_format_error(self, data):
        """Line prefixes, optionally with one token replaced and then cut
        mid-line; any exception other than RepFormatError fails the test."""
        text = rep_to_text(data.draw(st.sampled_from(_SMALL_REPS)))
        lines = text.splitlines()[: data.draw(st.integers(0, text.count("\n")))]
        if lines and data.draw(st.booleans()):
            row = data.draw(st.integers(0, len(lines) - 1))
            toks = lines[row].split()
            toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(_GARBAGE)
            lines[row] = " ".join(toks)
        cut = "\n".join(lines)
        if lines and data.draw(st.booleans()):
            cut = cut[: data.draw(st.integers(0, len(cut)))]
        try:
            rep_from_text(cut)
        except RepFormatError:
            pass



def covers_by_coordinate_list(spans, dim):
    """The partition check that ``SymplecticRep`` ran before: one list entry
    per declared coordinate, and no summand without a coordinate."""
    covered = [x for lo, hi in sorted(spans) for x in range(lo, hi)]
    return all(lo < hi for lo, hi in spans) and covered == list(range(dim))


class TestSummandBounds:
    def test_huge_summand_bound_rejected_within_a_second(self):
        text = rep_to_text(sl2_w_plus_wdual()) + f"summand irr 4 {2 ** 40}\n"
        start = time.perf_counter()
        with pytest.raises(RepFormatError):
            rep_from_text(text)
        assert time.perf_counter() - start < 1.0

    def test_huge_exponent_entry_rejected_within_a_second(self):
        text = rep_to_text(sl2_w_plus_wdual())
        assert "X 0 1 0 0\n" in text
        start = time.perf_counter()
        with pytest.raises(RepFormatError):
            rep_from_text(text.replace("X 0 1 0 0\n", "X 0 1e100000000 0 0\n"))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("mid", ["7", "0", "4", "-1"])
    def test_dual_pair_mid_outside_its_span_rejected(self, mid):
        text = rep_to_text(sl2_w_plus_wdual())
        assert "summand dual 0 2 4" in text
        with pytest.raises(RepFormatError):
            rep_from_text(text.replace("summand dual 0 2 4", f"summand dual 0 {mid} 4"))

    def test_dual_pair_without_mid_rejected(self):
        base = sl2_w_plus_wdual()
        with pytest.raises(ValueError):
            SymplecticRep(base.algebra, base.omega, base.rho, [Summand("dual-pair", 0, 4)])

    @pytest.mark.parametrize("kind", ["dual-pairs", "dual", "irr", "Irreducible", ""])
    def test_unknown_kind_rejected(self, kind):
        # a misspelt dual pair used to be skipped by the W-vs-W* test of
        # almost_saturated_check, so sl2 W + W* came out TRUE
        with pytest.raises(ValueError, match="irreducible' or 'dual-pair"):
            Summand(kind, 0, 4, mid=2)

    def test_mid_on_irreducible_rejected(self):
        with pytest.raises(ValueError, match="no mid"):
            Summand("irreducible", 0, 4, mid=2)

    def test_span_walk_accepts_what_the_coordinate_list_accepted(self):
        alg = sl2_algebra()
        spans = list(itertools.product(range(-1, 4), repeat=2))
        for dim in range(4):
            omega = ExactMatrix.zeros(dim, dim)
            for k in range(4):
                for chosen in itertools.product(spans, repeat=k):
                    summands = [Summand("irreducible", lo, hi) for lo, hi in chosen]
                    try:
                        SymplecticRep(alg, omega, [omega] * alg.dim, summands)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == covers_by_coordinate_list(chosen, dim), (dim, chosen)
