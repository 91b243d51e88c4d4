"""Section-model tests: pointwise compatibility, the injectivity dichotomy
between the standard representation and the dual pair, and the scaling
invariance that explains the kernel."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from petri_oracles import (
    evaluate_section,
    multipoly_petri_matrix,
    petri_apply_pointwise,
    s_form_in_kernel,
    s_form_kernel,
    s_form_rows,
    s_form_w0_full_rank,
)
from spinorlab import petri
from spinorlab.lie import (
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    conjugate_rep,
    direct_sum,
    sl2_standard,
    sl2_sym_cube,
    sl2_w_plus_wdual,
    sp_standard,
)
from spinorlab.matrix import ExactMatrix, ShapeError, _echelon, _row_echelon, mat_rank_kernel, rank, standard_omega
from spinorlab.moment import InvalidContextError, MomentContext
from spinorlab.petri import (
    SectionSpace,
    dual_pair_kernel_direction,
    petri_kernel,
    petri_matrix,
    scalar_action_invariance,
    scale_dual_pair,
)
from spinorlab.rings import MultiPoly, UnsupportedRingError


def rand_section(rng, space, ensure_nonzero=True):
    while True:
        coords = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(space.dim)]
        if not ensure_nonzero or any(coords):
            return coords


class TestSectionSpace:
    def test_dimension(self):
        sp = SectionSpace(sp_standard(2), 3)
        assert sp.dim == 12

    @pytest.mark.parametrize("bound", [2.0, True, Fraction(2), "2", None])
    def test_degree_bound_that_is_not_an_int_rejected(self, bound):
        with pytest.raises(TypeError, match=f"degree bound must be an int, not {type(bound).__name__}"):
            SectionSpace(sp_standard(1), bound)

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


def _exact_entries(rows):
    return [[(type(x), x) for x in row] for row in rows]


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
            assert _exact_entries(got.entries) == _exact_entries(want.entries)

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


def full_row_kernel(space, psi):
    """The kernel by eliminating every row of ``_petri_rows``, the route
    ``petri_kernel`` takes when the degree-0 rows are singular."""
    return _row_echelon(petri._petri_rows(space, psi)[1], space.dim)[1]


class TestDegreeZeroProof:
    """``petri_kernel`` proves injectivity from the degree-0 rows W0 = dmu
    at psi_0 when they have full column rank, and eliminates the full rows
    otherwise; either way its kernel is the full-row route's and the
    MultiPoly oracle's, in value and type."""

    REPS = {**TestConvolutionOracle.REPS, "sl2-standard": sl2_standard}

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(REPS))
    def test_matches_the_full_rows_and_the_oracle(self, name, s):
        rep = self.REPS[name]()
        space = SectionSpace(rep, s)
        m, dim_g = rep.dimV, rep.algebra.dim
        rng = random.Random(1000 * s + sorted(self.REPS).index(name))
        dense = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12])) for _ in range(space.dim)]
        sections = [
            [0] * space.dim,
            dense,
            [rng.choice([0, 0, 0, 1, -3]) for _ in range(space.dim)],
            [0] * m + dense[m:],
            dense[:m] + [0] * (space.dim - m),
        ]
        proved = set()
        for psi in sections:
            want = multipoly_petri_matrix(space, psi)
            kernel = petri_kernel(space, psi)
            assert _exact_entries(kernel) == _exact_entries(full_row_kernel(space, psi)) == _exact_entries(mat_rank_kernel(want)[1])
            proved.add(rank(want.submatrix(range(dim_g), range(m))) == m)
        # sp(2n) has full-rank W0 at every nonzero psi_0 and none at psi_0 = 0;
        # W + W* and Sym^3 have dim g < dim V, so W0 is always singular
        if dim_g < m:
            assert proved == {False}
        else:
            assert proved == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_injective_verdict_never_builds_the_full_rows(self, monkeypatch, n):
        real = petri._petri_rows

        def degree_zero_only(space, psi, degrees=None):
            assert degrees == 1, "the full rows were built"
            return real(space, psi, degrees)

        monkeypatch.setattr(petri, "_petri_rows", degree_zero_only)
        rng = random.Random(31 + n)
        for s in (1, 2, 3, 4):
            space = SectionSpace(sp_standard(n), s)
            for _ in range(3):
                psi = rand_section(rng, space)
                psi[rng.randrange(space.rep.dimV)] = Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 7]))
                assert petri_kernel(space, psi) == []
        # a singular W0 is the one case that builds them
        with pytest.raises(AssertionError, match="the full rows were built"):
            petri_kernel(space, [0] * space.rep.dimV + psi[space.rep.dimV:])

    def test_no_degree_zero_rows_when_dim_g_is_below_dim_v(self, monkeypatch):
        """W0 has dim(g) rows, so on W + W* and Sym^3 it cannot have full
        column rank and only the full rows are built."""
        built = []
        real = petri._petri_rows

        def recording(space, psi, degrees=None):
            built.append(degrees)
            return real(space, psi, degrees)

        monkeypatch.setattr(petri, "_petri_rows", recording)
        for rep in (sl2_w_plus_wdual(), sl2_sym_cube(), sp_standard(1)):
            built.clear()
            space = SectionSpace(rep, 2)
            petri_kernel(space, [1] * space.dim)
            assert built == ([None] if rep.algebra.dim < rep.dimV else [1])

    @staticmethod
    def synthetic_space(s):
        """A stub space with dim g = dim V = 3 and hand-made pairing forms
        (the table ``petri_kernel`` convolves against): at the
        section psi = (1, x, x^2) its pointwise matrix is
        W(x) = [[1, x, 0], [x, x^2, 0], [0, 0, x]], that is W0 = e_00,
        W1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]] and W2 = e_11.  W0 is
        singular and W1 invertible, and W(x) (x, -1, 0) = 0, so the section
        map has a kernel from s = 2 on."""
        forms = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1), (1, 2, 1, 1), (2, 1, 2, 1)]
        rep = SimpleNamespace(dimV=3, algebra=SimpleNamespace(dim=3))
        return SimpleNamespace(rep=rep, degree_bound=s, dim=3 * s, _forms=forms)

    @pytest.mark.parametrize("s", [3, 4])
    def test_an_injective_block_past_degree_zero_proves_nothing(self, s):
        """A proof that read any row block but degree 0 would call this map
        injective: W1 sits at output degree 1, column degree 0."""
        space = self.synthetic_space(s)
        psi = [0] * space.dim
        psi[0] = psi[3 + 1] = psi[6 + 2] = 1
        rows = petri._petri_rows(space, psi)[1]
        block = ExactMatrix([[row.get(j, 0) for j in range(3)] for row in rows[3:6]])
        assert block == ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        kernel = petri_kernel(space, psi)
        assert _exact_entries(kernel) == _exact_entries(full_row_kernel(space, psi))
        assert len(kernel) == s - 1
        direction = [0] * space.dim
        direction[3], direction[1] = 1, -1
        assert petri.in_petri_kernel(space, psi, direction)
        assert mat_rank_kernel(ExactMatrix([*kernel, direction]))[0] == len(kernel)


class TestCoordinateTypes:
    """A section coordinate that is not rational raises
    UnsupportedRingError, as elimination does, at every entry point."""

    BAD = [MultiPoly.var("x"), MultiPoly.const(1), 0.5, 0.0, "1", None]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("call", [
        petri_kernel,
        petri_matrix,
        lambda space, psi: petri.in_petri_kernel(space, psi, [0] * space.dim),
        lambda space, psi: petri.in_petri_kernel(space, [1] * space.dim, psi),
    ], ids=["kernel", "matrix", "in_kernel_psi", "in_kernel_vec"])
    def test_rejected(self, call, bad):
        space = SectionSpace(sp_standard(1), 2)
        psi = [1, 0, bad, Fraction(1, 2)]
        with pytest.raises(UnsupportedRingError, match=f"not {type(bad).__name__}"):
            call(space, psi)

    def test_bool_and_int_coordinates_are_rational(self):
        space = SectionSpace(sp_standard(1), 2)
        assert petri_kernel(space, [True, False, 0, 1]) == petri_kernel(space, [1, 0, 0, 1]) == []
        assert petri.in_petri_kernel(space, [1, 0, 0, 1], [False] * 4)


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


_SHEAR = ExactMatrix(
    [
        [1, Fraction(1, 2), 0, 0],
        [0, 1, Fraction(-2, 3), 0],
        [0, 0, 1, 3],
        [Fraction(1, 5), 0, 0, 1],
    ]
)


def _off_sp(rep):
    """rep with 1/3 added at row 0, column 0 of rho(X_0).  That image leaves
    sp(omega), so A_0 = rho_0^T Omega is not symmetric, as it is for every
    image in sp(omega); only there do the forms A_0 and A_0 + A_0^T have
    different kernels."""
    rows = [list(r) for r in rep.rho[0].entries]
    rows[0][0] += Fraction(1, 3)
    return SymplecticRep(rep.algebra, rep.omega, [ExactMatrix(rows), *rep.rho[1:]], rep.summands)


class TestSFormOracle:
    """``petri_kernel`` and ``in_petri_kernel`` convolve against the pairing
    forms A_j + A_j^T; the route they replaced convolves against the forms
    S_k of the moment context (``petri_oracles.s_form_*``).  Their kernels
    (value and type), their W0 ranks and verdicts, and their kernel verdicts
    are equal.  No benchmark workload reaches the full-row route at a
    singular W0 (psi_0 = 0, W + W*, Sym^3), so these tests are its guard."""

    REPS = {
        **TestDegreeZeroProof.REPS,
        "direct-sum": lambda: direct_sum(sl2_w_plus_wdual(), sl2_sym_cube()),
        "conjugated": lambda: conjugate_rep(sl2_sym_cube(), _SHEAR),
        "sp4-off-sp": lambda: _off_sp(sp_standard(2)),
        "sl2-W+W*-off-sp": lambda: _off_sp(sl2_w_plus_wdual()),
    }

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(REPS))
    def test_kernels_and_verdicts_match(self, name, s):
        rep = self.REPS[name]()
        space = SectionSpace(rep, s)
        m = rep.dimV
        rng = random.Random(100 * s + sorted(self.REPS).index(name))
        dense = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12])) for _ in range(space.dim)]
        sections = [
            [0] * space.dim,
            [0] * m + dense[m:],
            dense[:m] + [0] * (space.dim - m),
            [rng.choice([0, 0, 0, 1, -3]) for _ in range(space.dim)],
            dense,
        ]
        verdicts = set()
        for psi in sections:
            kernel = petri_kernel(space, psi)
            assert _exact_entries(kernel) == _exact_entries(s_form_kernel(space, psi))
            w0 = len(_echelon(petri._petri_rows(space, psi, 1)[1], m))
            assert w0 == len(_echelon(s_form_rows(space, psi, 1), m))
            assert (w0 == m) is s_form_w0_full_rank(space, psi)
            vecs = [*kernel, [0] * space.dim, rand_section(rng, space), [rng.choice([0, 0, 1, -2]) for _ in range(space.dim)]]
            for v in vecs:
                got = petri.in_petri_kernel(space, psi, v)
                assert got is s_form_in_kernel(space, psi, v)
                verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["sp4-off-sp", "sl2-W+W*-off-sp"])
    def test_an_image_off_sp_has_a_pairing_form_that_is_not_symmetric(self, name):
        _, table = self.REPS[name]()._pairing
        entries = {(j, r, c): a for j, r, c, a in table}
        assert any(entries.get((j, c, r)) != a for (j, r, c), a in entries.items())


def _nilpotent_rep(dual_pair: bool) -> SymplecticRep:
    """The abelian algebra spanned by e = E_01, whose trace form is zero, on
    its standard module or on W + W*."""
    e = ExactMatrix([[0, 1], [0, 0]])
    alg = MatrixLieAlgebra([e])
    if not dual_pair:
        return SymplecticRep(alg, standard_omega(1), [e], [Summand("irreducible", 0, 2)])
    z, one = ExactMatrix.zeros(2, 2), ExactMatrix.identity(2)
    rho = ExactMatrix.from_blocks([[e, z], [z, e.transpose().scale(-1)]])
    omega = ExactMatrix.from_blocks([[z, one], [one.scale(-1), z]])
    return SymplecticRep(alg, omega, [rho], [Summand("dual-pair", 0, 4, mid=2)])


class TestPairingForms:
    """The kernel of the g*-valued differential needs no trace form: a
    section space, ``petri_kernel`` and ``in_petri_kernel`` build no moment
    context, and work where B is degenerate; ``petri_matrix`` and
    ``scalar_action_invariance``, which need B, raise InvalidContextError
    there."""

    def test_the_kernel_routes_build_no_context(self, monkeypatch):
        def refuse(rep):
            raise AssertionError("a moment context was built")

        monkeypatch.setattr(petri, "MomentContext", refuse)
        base = sp_standard(2)
        rep = SymplecticRep(base.algebra, base.omega, base.rho, base.summands)
        space = SectionSpace(rep, 3)
        psi = rand_section(random.Random(5), space)
        psi[0] = 1
        assert petri_kernel(space, psi) == []
        assert petri.in_petri_kernel(space, psi, [0] * space.dim)
        assert not petri.in_petri_kernel(space, psi, psi)
        with pytest.raises(AssertionError, match="a moment context was built"):
            petri_matrix(space, psi)

    def test_degenerate_trace_form(self):
        """omega(e psi, psidot) = psi_1 psidot_1, so at psi = (1, 1) the
        kernel is the sections with psidot_1 = 0."""
        rep = _nilpotent_rep(False)
        space = SectionSpace(rep, 2)
        psi = [1, 1, 0, 0]
        assert petri_kernel(space, psi) == [(1, 0, 0, 0), (0, 0, 1, 0)]
        assert petri.in_petri_kernel(space, psi, [5, 0, Fraction(-1, 2), 0])
        assert not petri.in_petri_kernel(space, psi, [0, 1, 0, 0])
        with pytest.raises(InvalidContextError):
            petri_matrix(space, psi)
        with pytest.raises(InvalidContextError):
            scalar_action_invariance(_nilpotent_rep(True), [1, 2, 3, 4], 2)

    @pytest.mark.parametrize("where", ["rho", "omega"])
    def test_a_rep_that_is_not_rational_is_rejected_by_the_space(self, where):
        x = MultiPoly.var("x")
        base = sl2_standard()
        rho, omega = list(base.rho), base.omega
        if where == "rho":
            rho[0] = rho[0].scale(x)
        else:
            omega = omega.scale(x)
        rep = SymplecticRep(base.algebra, omega, rho, base.summands)
        with pytest.raises(UnsupportedRingError, match="not MultiPoly$"):
            SectionSpace(rep, 2)

