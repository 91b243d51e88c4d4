"""Finite-dimensional two-term Cech models: hypercohomology of the total
complex, Euler characteristics, the five-term exact sequence, and the
machine-checked diagram chase showing that injectivity of the degree-1 map on
"global sections" forces injectivity on first hypercohomology.

Index convention: in A^pq the first index is the complex degree, the second
the Cech degree, so cech differentials go A^p0 -> A^p1 and the complex
differential goes A^0q -> A^1q.

Random models and morphisms are integer matrices: each random square clears
the one common denominator of the inverse it solves with, and kernel bases
come back as integer columns, so a random model is checked with products of
ints only.  A model or morphism checks its invariants when it is built
(``InvalidModelError`` if they fail), and, being immutable, builds its total
differentials and their ranks once.
"""

from __future__ import annotations

import random
from functools import cached_property

from ._record import Record
from .matrix import ExactMatrix, _cleared_inverse, _integer_rows, mat_rank_kernel, rank


class InvalidModelError(ValueError):
    """A map has the wrong shape, the square does not commute, or a morphism
    does not intertwine its models."""


class EulerCharError(ValueError):
    """The two Euler characteristic formulas disagree."""


class TwoTermCechModel(Record):
    def __init__(
        self,
        cech_d0: ExactMatrix,  # A00 -> A01
        cech_d1: ExactMatrix,  # A10 -> A11
        diff_a0: ExactMatrix,  # A00 -> A10
        diff_a1: ExactMatrix,  # A01 -> A11
    ):
        self._store(locals())
        # D1 D0 = a1 d0 - d1 a0 by block multiplication, so a commuting square
        # is a complex
        a00, a01, a10, a11 = self.dims
        if (diff_a0.rows, diff_a0.cols, diff_a1.rows, diff_a1.cols) != (a10, a00, a11, a01):
            raise InvalidModelError("map shapes are inconsistent")
        if diff_a1 * cech_d0 != cech_d1 * diff_a0:
            raise InvalidModelError("square does not commute")

    @property
    def dims(self):
        return (
            self.cech_d0.cols,
            self.cech_d0.rows,
            self.cech_d1.cols,
            self.cech_d1.rows,
        )

    @cached_property
    def total_d0(self) -> ExactMatrix:
        """D0: A00 -> A01 + A10, x -> (d0 x, a0 x)."""
        return ExactMatrix.from_blocks([[self.cech_d0], [self.diff_a0]])

    @cached_property
    def total_d1(self) -> ExactMatrix:
        """D1: A01 + A10 -> A11, (y, z) -> a1 y - d1 z."""
        return ExactMatrix.from_blocks([[self.diff_a1, -self.cech_d1]])

    @cached_property
    def rank_d0(self) -> int:
        return rank(self.total_d0)

    @cached_property
    def rank_d1(self) -> int:
        return rank(self.total_d1)

    @cached_property
    def kernel_d1(self) -> ExactMatrix:
        """Integer kernel basis of D1 as columns (``_kernel_columns``)."""
        return _kernel_columns(self.total_d1)


def hypercohomology(model: TwoTermCechModel):
    """Dimensions (h0, h1, h2) of the total-complex cohomology."""
    a00, a01, a10, a11 = model.dims
    r0, r1 = model.rank_d0, model.rank_d1
    h0 = a00 - r0
    h1 = (a01 + a10) - r1 - r0
    h2 = a11 - r1
    return h0, h1, h2


def euler_char(model: TwoTermCechModel) -> int:
    """Alternating sum of hypercohomology dimensions; computed independently
    from the cochain dimensions and checked equal (EulerCharError if not).
    h1 is read off ``kernel_d1`` and h2 off ``rank_d1``, so the check holds
    only if rank-nullity of D1 holds across their two eliminations."""
    h0, _, h2 = hypercohomology(model)
    h1 = model.kernel_d1.cols - model.rank_d0
    a00, a01, a10, a11 = model.dims
    from_dims = (a00 - a01) - (a10 - a11)
    from_cohomology = h0 - h1 + h2
    if from_cohomology != from_dims:
        raise EulerCharError("Euler characteristic formulas disagree")
    return from_cohomology


class ComplexMorphism(Record):
    """Morphism of two-term models that is the identity on the degree-0 part
    (the models share A00, A01 and the Cech differential between them)."""

    def __init__(
        self,
        source: TwoTermCechModel,
        target: TwoTermCechModel,
        phi1_0: ExactMatrix,  # A10_src -> A10_tgt
        phi1_1: ExactMatrix,  # A11_src -> A11_tgt
    ):
        self._store(locals())
        _, _, a10s, a11s = source.dims
        _, _, a10t, a11t = target.dims
        if (phi1_0.rows, phi1_0.cols, phi1_1.rows, phi1_1.cols) != (a10t, a10s, a11t, a11s):
            raise InvalidModelError("map shapes are inconsistent")
        if source.cech_d0 != target.cech_d0:
            raise InvalidModelError("degree-0 parts are not shared")
        if phi1_0 * source.diff_a0 != target.diff_a0:
            raise InvalidModelError("phi does not intertwine a0")
        if phi1_1 * source.diff_a1 != target.diff_a1:
            raise InvalidModelError("phi does not intertwine a1")
        if target.cech_d1 * phi1_0 != phi1_1 * source.cech_d1:
            raise InvalidModelError("phi does not intertwine the Cech differential")


def _kernel_columns(M: ExactMatrix) -> ExactMatrix:
    """Kernel basis of M as the columns of an integer matrix, each column
    cleared of its denominators."""
    _, k = mat_rank_kernel(M)
    return ExactMatrix(_integer_rows(k)).transpose() if k else ExactMatrix.zeros(M.cols, 0)


def _preimage_dim(K: ExactMatrix, T: ExactMatrix, B: ExactMatrix, rank_b: int) -> int:
    """dim { c : T K c in col(B) } = cols(K) + rank(B) - rank([T K | B])."""
    return K.cols + rank_b - rank(ExactMatrix.from_blocks([[T * K, B]]))


class ChaseVerdict(Record):
    def __init__(
        self,
        hypothesis: bool,  # degree-1 map injective on ker(cech_d1) of the source
        conclusion: bool,  # induced map on H^1 injective
        h1_source: int,
        h1_target: int,
    ):
        self._store(locals())

    @property
    def implication_holds(self) -> bool:
        return (not self.hypothesis) or self.conclusion


def j_injectivity_experiment(morphism: ComplexMorphism) -> ChaseVerdict:
    """Record (H) and (C) for one morphism; the diagram chase claims H => C."""
    src, tgt = morphism.source, morphism.target
    a00, a01, a10s, _ = src.dims

    K = _kernel_columns(src.cech_d1)
    hypothesis = rank(morphism.phi1_0 * K) == K.cols

    K1 = src.kernel_d1
    r0s = src.rank_d0
    h1s = K1.cols - r0s
    h1t_ = hypercohomology(tgt)[1]
    if not K1.cols:
        return ChaseVerdict(hypothesis, True, 0, h1t_)
    # block-diagonal map on A01 + A10
    T = ExactMatrix.from_blocks(
        [
            [ExactMatrix.identity(a01), ExactMatrix.zeros(a01, a10s)],
            [ExactMatrix.zeros(morphism.phi1_0.rows, a01), morphism.phi1_0],
        ]
    )
    pre = _preimage_dim(K1, T, tgt.total_d0, tgt.rank_d0)
    induced_kernel = pre - r0s
    return ChaseVerdict(hypothesis, induced_kernel == 0, h1s, h1t_)


# -- five-term exact sequence --------------------------------------------


class QuotientSpace(Record):
    """Subquotient span(Z)/span(B) of an ambient coordinate space; Z columns
    are independent and span(B) is contained in span(Z)."""

    def __init__(self, Z: ExactMatrix, B: ExactMatrix):
        self._store(locals())

    @cached_property
    def rank_b(self) -> int:
        return rank(self.B)

    @property
    def dim(self) -> int:
        return self.Z.cols - self.rank_b


class FiveTermData(Record):
    def __init__(
        self,
        spaces: tuple,  # five QuotientSpace nodes
        maps: tuple,  # four ambient matrices
    ):
        self._store(locals())


class ExactnessReport(Record):
    def __init__(
        self,
        nodes: tuple,  # (name, composite_zero, rank_in, rank_out, dim, exact)
    ):
        self._store(locals())

    @property
    def all_exact(self) -> bool:
        return all(n[-1] for n in self.nodes)


def five_term_data(model: TwoTermCechModel) -> FiveTermData:
    """H0(A0) -> H0(A1) -> H1_total -> H1(A0) -> H1(A1) with sheaf cohomology
    read off the Cech differentials."""
    a00, a01, a10, a11 = model.dims

    n1 = QuotientSpace(_kernel_columns(model.cech_d0), ExactMatrix.zeros(a00, 0))
    n2 = QuotientSpace(_kernel_columns(model.cech_d1), ExactMatrix.zeros(a10, 0))
    n3 = QuotientSpace(model.kernel_d1, model.total_d0)
    n4 = QuotientSpace(ExactMatrix.identity(a01), model.cech_d0)
    n5 = QuotientSpace(ExactMatrix.identity(a11), model.cech_d1)

    f1 = model.diff_a0
    f2 = ExactMatrix.from_blocks([[ExactMatrix.zeros(a01, a10)], [ExactMatrix.identity(a10)]])
    f3 = ExactMatrix.from_blocks([[ExactMatrix.identity(a01), ExactMatrix.zeros(a01, a10)]])
    f4 = model.diff_a1
    return FiveTermData((n1, n2, n3, n4, n5), (f1, f2, f3, f4))


def check_five_term(data: FiveTermData) -> ExactnessReport:
    """Exactness at the three interior nodes of a five-term sequence.

    Each map T_i: spaces[i] -> spaces[i+1] is checked once, from its image
    I_i = T_i Z_i: it maps into span(Z_{i+1}) when [Z_{i+1} | I_i] has rank
    the column count of Z_{i+1}, whose columns are independent, and its rank
    on the quotients is
    rank [I_i | B_{i+1}] - rank B_{i+1}.  Node k (between maps k and k+1)
    records whether T_{k+1} I_k lies in span(B_{k+2}), the ranks in and out
    and its dimension; it is exact when both maps land in their Z, that
    composite is zero on the quotients, and the ranks in and out add up to
    the dimension.
    """
    spaces, maps = data.spaces, data.maps
    images, into, induced = [], [], []
    for T, dom, cod in zip(maps, spaces, spaces[1:]):
        image = T * dom.Z
        images.append(image)
        into.append(rank(ExactMatrix.from_blocks([[cod.Z, image]])) == cod.Z.cols)
        induced.append(rank(ExactMatrix.from_blocks([[image, cod.B]])) - cod.rank_b)
    nodes = []
    for k, name in enumerate(("H0(A1)", "H1_total", "H1(A0)")):
        mid, end = spaces[k + 1], spaces[k + 2]
        composite = maps[k + 1] * images[k]
        cz = rank(ExactMatrix.from_blocks([[composite, end.B]])) == end.rank_b
        rin, rout = induced[k], induced[k + 1]
        exact = into[k] and into[k + 1] and cz and (rin + rout == mid.dim)
        nodes.append((name, cz, rin, rout, mid.dim, exact))
    return ExactnessReport(tuple(nodes))


def les_segment(model: TwoTermCechModel) -> ExactnessReport:
    """Exactness of the five-term segment at its three interior nodes."""
    return check_five_term(five_term_data(model))


# -- random generation ------------------------------------------------------


def _rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return ExactMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def _rand_injective(rng, rows, cols):
    if cols == 0:
        return ExactMatrix.zeros(rows, 0)
    while True:
        M = _rand_matrix(rng, rows, cols)
        if rank(M) == cols:
            return M


def _rand_invertible(rng, n):
    return _rand_injective(rng, n, n)


def _extend_to_basis(rng, M):
    """Columns completing an injective matrix to a basis of the ambient space
    its columns live in."""
    n, k = M.rows, M.cols
    cols = [list(c) for c in zip(*M.entries)] if k else []
    extra = []
    while len(cols) + len(extra) < n:
        v = [rng.randint(-3, 3) for _ in range(n)]
        # ranked as rows: rank does not change under transposition
        if rank(ExactMatrix(cols + extra + [v])) == len(cols) + len(extra) + 1:
            extra.append(v)
    return ExactMatrix(extra).transpose() if extra else ExactMatrix.zeros(n, 0)


def _solve_on_complement(rng, inj, forced, r_scale=1):
    """``(den, X)`` with X [inj | C] = den [forced | r_scale R]: C completes
    the injective inj to a basis, then R is drawn on C, and den and
    N = den [inj | C]^-1 are those of ``_cleared_inverse`` of its rows."""
    C = _extend_to_basis(rng, inj)
    R = _rand_matrix(rng, forced.rows, C.cols)
    n = inj.rows
    rows = [{j: x for j, x in enumerate(r) if x} for r in ExactMatrix.from_blocks([[inj, C]]).entries]
    den, inv = _cleared_inverse(rows, n)
    N = ExactMatrix([[row.get(j, 0) for j in range(n)] for row in inv.values()], cols=n)
    return den, ExactMatrix.from_blocks([[forced, R.scale(r_scale)]]) * N


def _random_square(rng: random.Random, max_dim: int):
    """``random_model``'s square and the factor den that scaled
    its (d1, a1): solving a1 P = [d1 a0 | R] with den P^-1 in place of P^-1
    scales a1 by den, and d1 is scaled to match, so the square commutes and
    every kernel and rank is that of the unscaled square."""
    a00 = rng.randint(0, max_dim - 1)
    a01 = a00 + rng.randint(0, max(1, max_dim - a00))
    a10 = rng.randint(0, max_dim)
    a11 = rng.randint(0, max_dim)
    d0 = _rand_injective(rng, a01, a00)
    a0 = _rand_matrix(rng, a10, a00)
    d1 = _rand_matrix(rng, a11, a10)
    den, a1 = _solve_on_complement(rng, d0, d1 * a0)
    return TwoTermCechModel(d0, d1.scale(den), a0, a1), den


def random_model(rng: random.Random, max_dim: int = 6) -> TwoTermCechModel:
    """Uniform-ish commuting square built per the injective-d0 recipe:
    a1 is forced on im(d0) by the square and random on a complement.  The
    entries are integers."""
    return _random_square(rng, max_dim)[0]


def random_morphism(rng: random.Random, max_dim: int = 5, ensure_hypothesis: bool = True) -> ComplexMorphism:
    """Random commuting-square morphism.  With ``ensure_hypothesis`` the
    degree-1 component is an inclusion followed by an automorphism, hence
    injective, so the chase hypothesis holds; otherwise it is the zero map,
    which fails the hypothesis whenever the source has sheaf sections.  The
    entries are integers."""
    src, den_src = _random_square(rng, max_dim)
    a00, a01, a10s, a11s = src.dims
    if ensure_hypothesis:
        a10t = a10s + rng.randint(0, 2)
        a11t = a11s + rng.randint(0, 2)
        # the inclusion of the first a10s coordinates, then P
        phi10 = _rand_invertible(rng, a10t).submatrix(range(a10t), range(a10s))
        phi11 = _rand_matrix(rng, a11t, a11s)
        # the source's d1 carries den_src, so the random block does too;
        # solving scales d1t by den, and phi11 is scaled to match: the target
        # is the unscaled target times den_src * den
        den, d1t = _solve_on_complement(rng, phi10, phi11 * src.cech_d1, den_src)
        phi11 = phi11.scale(den)
        tgt = TwoTermCechModel(src.cech_d0, d1t, phi10 * src.diff_a0, phi11 * src.diff_a1)
    else:
        phi10 = ExactMatrix.zeros(a10s, a10s)
        phi11 = ExactMatrix.zeros(a11s, a11s)
        tgt = TwoTermCechModel(
            src.cech_d0,
            _rand_matrix(rng, a11s, a10s),
            ExactMatrix.zeros(a10s, a00),
            ExactMatrix.zeros(a11s, a01),
        )
    return ComplexMorphism(src, tgt, phi10, phi11)
