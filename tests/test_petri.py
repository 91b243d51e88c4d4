"""Section-model tests: pointwise compatibility, the injectivity dichotomy
between the standard representation and the dual pair, and the scaling
invariance that explains the kernel."""

import random
from fractions import Fraction

import pytest
import sympy

from petri_oracles import evaluate_section, multipoly_petri_matrix, petri_apply_pointwise
from spinorlab import petri
from spinorlab.lie import SymplecticRep, sl2_sym_cube, sl2_w_plus_wdual, sp_standard
from spinorlab.matrix import ExactMatrix, ShapeError, mat_rank_kernel, rank, standard_omega
from spinorlab.moment import MomentContext
from spinorlab.petri import (
    SectionSpace,
    dual_pair_kernel_direction,
    petri_kernel,
    petri_matrix,
    scalar_action_invariance,
    scale_dual_pair,
)


def rand_section(rng, space, ensure_nonzero=True):
    while True:
        coords = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(space.dim)]
        if not ensure_nonzero or any(coords):
            return coords


class TestSectionSpace:
    def test_dimension(self):
        sp = SectionSpace(sp_standard(2), 3)
        assert sp.dim == 12

    def test_evaluation(self):
        # coordinates (0, 1, 1, 0) are the section (x, 1)
        space = SectionSpace(sp_standard(1), 2)
        assert evaluate_section(space, (0, 1, 1, 0), Fraction(5)) == (5, 1)


class TestPetriMatrix:
    def test_zero_base_spinor(self):
        space = SectionSpace(sp_standard(1), 2)
        pm = petri_matrix(space, [0] * space.dim)
        assert pm.matrix.is_zero
        assert len(petri_kernel(space, [0] * space.dim)) == space.dim

    def test_advertised_shape(self):
        # rows: dim(g) * (2s - 1); columns: dim(V) * s
        for n, s in [(1, 1), (2, 2), (2, 3)]:
            rep = sp_standard(n)
            space = SectionSpace(rep, s)
            pm = petri_matrix(space, [1] + [0] * (space.dim - 1))
            assert pm.matrix.rows == rep.algebra.dim * (2 * s - 1)
            assert pm.matrix.cols == rep.dimV * s

    def test_sp2_constant_spinor_matches_symmetric_tensor(self):
        # s=1, psi=(1,0): column j must be the coordinates of the symmetric
        # tensor map applied to e_j, computed independently
        rep = sp_standard(1)
        space = SectionSpace(rep, 1)
        psi = (1, 0)
        pm = petri_matrix(space, psi)
        omega = standard_omega(1)
        wpsi = omega.apply(psi)
        for j in range(2):
            ej = [0, 0]
            ej[j] = 1
            wdot = omega.apply(ej)
            T = ExactMatrix(
                [[ej[i] * wpsi[c] + psi[i] * wdot[c] for c in range(2)] for i in range(2)]
            )
            coords = rep.algebra.coordinates_of(T)
            assert coords is not None
            assert pm.matrix.col(j) == tuple(coords)
        assert rank(pm.matrix) == 2

    def test_sp2_s2_linear_spinor_injective(self):
        # the section (x, 1)
        space = SectionSpace(sp_standard(1), 2)
        psi = (0, 1, 1, 0)
        pm = petri_matrix(space, psi)
        assert rank(pm.matrix) == 4
        assert petri_kernel(space, psi) == []

    def test_pointwise_compatibility(self):
        rng = random.Random(21)
        for rep, s in ((sp_standard(1), 2), (sp_standard(2), 2), (sl2_w_plus_wdual(), 2)):
            space = SectionSpace(rep, s)
            psi = rand_section(rng, space)
            psidot = rand_section(rng, space)
            pm = petri_matrix(space, psi)
            out = pm.matrix.apply(psidot)
            dim_g = rep.algebra.dim
            for _ in range(50):
                x0 = Fraction(rng.randint(-10, 10), rng.choice([1, 2, 3]))
                want = petri_apply_pointwise(space, psi, psidot, x0)
                got = []
                for i in range(dim_g):
                    acc = Fraction(0)
                    for deg in range(2 * s - 1):
                        acc += Fraction(out[deg * dim_g + i]) * x0 ** deg
                    got.append(acc)
                assert tuple(got) == tuple(want)


def _exact_entries(M):
    return [[(type(x), x) for x in row] for row in M.entries]


class TestConvolutionOracle:
    """The convolution against the column-by-column MultiPoly route
    (tests/petri_oracles.py), entry types included."""

    REPS = {
        "sp2": lambda: sp_standard(1),
        "sp4": lambda: sp_standard(2),
        "sp6": lambda: sp_standard(3),
        "sp8": lambda: sp_standard(4),
        "sl2-W+W*": sl2_w_plus_wdual,
        "sl2-Sym3": sl2_sym_cube,
    }

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(REPS))
    def test_matches_multipoly_route(self, name, s):
        space = SectionSpace(self.REPS[name](), s)
        rng = random.Random(10 * s + sorted(self.REPS).index(name))
        sections = [
            [0] * space.dim,
            [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12])) for _ in range(space.dim)],
            [rng.choice([0, 0, 1, -3]) for _ in range(space.dim)],
        ]
        for psi in sections:
            got = petri_matrix(space, psi).matrix
            want = multipoly_petri_matrix(space, psi)
            assert _exact_entries(got) == _exact_entries(want)

    @pytest.mark.parametrize("name, s", [
        *((name, s) for name in ("sp2", "sp4", "sp6", "sp8") for s in (1, 2, 3, 4)),
        *(("sl2-W+W*", s) for s in (1, 2, 3)),
    ])
    def test_kernel_matches_multipoly_route(self, name, s):
        """petri_kernel eliminates the integer rows, not the Fraction matrix:
        its basis is the RREF kernel basis of the MultiPoly route's matrix,
        and its size is sympy's nullity of that matrix."""
        space = SectionSpace(self.REPS[name](), s)
        rng = random.Random(100 * s + len(name))
        sections = [
            [0] * space.dim,
            [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12])) for _ in range(space.dim)],
            [rng.choice([0, 0, 0, 1, -3]) for _ in range(space.dim)],
        ]
        sizes = []
        for psi in sections:
            want = multipoly_petri_matrix(space, psi)
            kernel = petri_kernel(space, psi)
            assert kernel == mat_rank_kernel(want)[1]
            assert all(x == 0 for v in kernel for x in want.apply(v))
            nullity = len(sympy.Matrix(want.rows, want.cols, [
                sympy.Rational(x.numerator, x.denominator) for r in want.entries for x in r
            ]).nullspace())
            assert len(kernel) == nullity
            sizes.append(nullity)
        assert sizes[0] == space.dim
        # sp(2n) is injective at a nonzero section; W + W* never is
        assert (sizes[1] > 0) == (name == "sl2-W+W*")

    def test_length_mismatch_rejected(self):
        space = SectionSpace(sp_standard(1), 2)
        with pytest.raises(ShapeError):
            petri_matrix(space, [1] * (space.dim + 1))


class TestInPetriKernel:
    """``in_petri_kernel`` on the integer rows against applying the Fraction
    matrix of ``petri_matrix``."""

    @pytest.mark.parametrize("name, s", [
        ("sp2", 3), ("sp4", 2), ("sp6", 2), ("sp8", 4), ("sl2-W+W*", 1), ("sl2-W+W*", 3),
        ("sl2-Sym3", 2),
    ])
    def test_verdict_matches_the_matrix_route(self, name, s):
        rep = TestConvolutionOracle.REPS[name]()
        space = SectionSpace(rep, s)
        rng = random.Random(7 * s + len(name))
        verdicts = set()
        for psi in ([0] * space.dim, *(rand_section(rng, space) for _ in range(3))):
            matrix = petri_matrix(space, psi).matrix
            vecs = [rand_section(rng, space), [rng.choice([0, 0, 1, -2]) for _ in range(space.dim)]]
            vecs += petri_kernel(space, psi)
            if name == "sl2-W+W*":
                vecs.append(dual_pair_kernel_direction(rep, space, psi))
            for v in vecs:
                got = petri.in_petri_kernel(space, psi, v)
                assert got is all(x == 0 for x in matrix.apply(v))
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_length_mismatch_rejected(self):
        space = SectionSpace(sp_standard(1), 2)
        with pytest.raises(ShapeError):
            petri.in_petri_kernel(space, [1] * space.dim, [1] * (space.dim + 1))
        with pytest.raises(ShapeError):
            petri.in_petri_kernel(space, [1] * (space.dim + 1), [1] * space.dim)


class TestInjectivityDichotomy:
    def test_standard_rep_injective(self):
        rng = random.Random(22)
        for n in (1, 2, 3):
            for s in (1, 2, 3):
                space = SectionSpace(sp_standard(n), s)
                for _ in range(5):
                    psi = rand_section(rng, space)
                    assert petri_kernel(space, psi) == []

    def test_dual_pair_kernel_contains_u_minus_delta(self):
        rng = random.Random(23)
        rep = sl2_w_plus_wdual()
        for s in (1, 2):
            space = SectionSpace(rep, s)
            for _ in range(10):
                # both components nonzero
                while True:
                    psi = rand_section(rng, space)
                    m = rep.dimV
                    u_part = [psi[k * m + i] for k in range(s) for i in (0, 1)]
                    d_part = [psi[k * m + i] for k in range(s) for i in (2, 3)]
                    if any(u_part) and any(d_part):
                        break
                direction = dual_pair_kernel_direction(rep, space, psi)
                pm = petri_matrix(space, psi)
                assert all(x == 0 for x in pm.matrix.apply(direction))
                kernel = petri_kernel(space, psi)
                assert len(kernel) >= 1
                # the direction lies in the kernel span
                cols = [list(v) for v in kernel]
                stacked = ExactMatrix(cols + [list(direction)])
                assert mat_rank_kernel(stacked.transpose())[0] == len(kernel)


class TestScalarAction:
    def test_t_equals_one(self):
        rep = sl2_w_plus_wdual()
        assert scalar_action_invariance(rep, [1, 2, 3, 4], 1)

    def test_random_invariance(self):
        rng = random.Random(24)
        rep = sl2_w_plus_wdual()
        for _ in range(20):
            psi = [Fraction(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(4)]
            t = Fraction(rng.choice([2, 3, -2, 5]), rng.choice([1, 2]))
            assert scalar_action_invariance(rep, psi, t)

    def test_missigned_action_fails(self):
        rep = sl2_w_plus_wdual()
        # same-sign exponent scales mu by t^2 instead of fixing it
        assert not scalar_action_invariance(rep, [1, 2, 3, 4], 2, dual_exponent=1)

    def test_zero_t_rejected(self):
        with pytest.raises(ValueError):
            scale_dual_pair(sl2_w_plus_wdual(), [1, 2, 3, 4], 0)

    def test_non_dual_pair_rejected(self):
        with pytest.raises(ValueError):
            scalar_action_invariance(sp_standard(1), [1, 0], 2)

    def test_one_context_per_representation(self, monkeypatch):
        """Sections and scaling checks on one representation object share
        one moment context; another object, even an equal one, gets its
        own."""
        built = []

        def counting(rep):
            built.append(rep)
            return MomentContext(rep)

        monkeypatch.setattr(petri, "MomentContext", counting)
        base = sl2_w_plus_wdual()
        reps = [SymplecticRep(base.algebra, base.omega, base.rho, base.summands) for _ in range(2)]
        for rep in reps:
            for t in (2, Fraction(-1, 3), 5):
                assert scalar_action_invariance(rep, [1, 2, 3, 4], t)
            assert SectionSpace(rep, 2).ctx is SectionSpace(rep, 3).ctx
        assert built == reps
