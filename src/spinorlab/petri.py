"""Polynomial section model for spinors and the induced map on sections.

Sections are V-valued polynomials of degree < s in one abstract variable x,
held only as coordinate vectors: entry k*dim(V) + j is the coefficient of
x^k in component j.  The differential of the moment map acts on them
pointwise-polynomially and is assembled into an exact matrix whose kernel
decides injectivity.  Outputs are algebra-valued polynomials of degree
<= 2s-2, stored with 2s-1 coefficient slots, so no truncation ever occurs.

Every matrix is built by convolving the integer coefficients of psi
(cleared of denominators by ``matrix._cleared``, the one rule for what is
rational, so a coordinate that is not rational raises
``UnsupportedRingError`` naming its type) against a flat list of integer
nonzeros (k, row, col, value) of bilinear forms, with no polynomial
objects (``_petri_rows``).  That gives sparse integer rows and one common
denominator.

The kernel needs no coordinates on g.  Paired with the basis element X_j
under the trace form B, the differential of mu at psi in the direction
psidot is psi^T (A_j + A_j^T) psidot with A_j = rho_j^T Omega
(``SymplecticRep._pairing``): the derivative of omega(rho(X_j) psi, psi).
The algebra coordinates of mu multiply each degree block of those rows by
G^-1, G the Gram matrix of B, which changes no row space.  So
``petri_kernel`` and ``in_petri_kernel`` convolve against the pairing forms
(polarized by ``moment._polarized``, as a context polarizes its Z_k) and
invert no Gram matrix: a section space builds no ``MomentContext``, and a
rep whose trace form is degenerate has a kernel too.  Only ``petri_matrix``, which returns the matrix in the algebra
coordinates of mu, convolves against the forms S_k / q of the rep's
``MomentContext`` (built on its first call, so a degenerate trace form
raises ``InvalidContextError`` there), as does ``scalar_action_invariance``.
``petri_kernel`` eliminates the integer rows as they are and builds
Fractions only for the kernel vectors, and ``in_petri_kernel`` applies
them to one direction in ints.

Row block t and column block k hold dmu at psi_{t-k} (zero unless
0 <= t-k < s), so the matrix is block lower-triangular Toeplitz in the
degree with W0 = dmu at psi_0 on its diagonal.  If W0 has full column rank
the map is injective: the lowest coefficient v_0 of a kernel vector has
W0 v_0 = 0, so v_0 = 0, then W0 v_1 = 0, and so on up the degrees.
``petri_kernel`` therefore eliminates the dim(g) rows of output degree 0
first (36 x 8 for sp(8), where the full rows at degree bound 4 are
252 x 32), and builds and eliminates the full rows only when W0 is
singular.  On W + W* and Sym^3 dim(g) < dim(V), so W0 is always singular
there and the full rows are eliminated at once.
The column-by-column ``MultiPoly`` route is kept beside the tests
(``tests/petri_oracles.py``) as the oracle of the rows, together with the
polynomial view of a section and its evaluation at a point, and the
kernels and verdicts from the forms S_k / q, the route the pairing forms
replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .lie import SymplecticRep
from .matrix import ExactMatrix, ShapeError, _cleared, _echelon, _row_echelon
from .moment import MomentContext, _polarized, moment_map


@lru_cache(maxsize=16)
def _context(rep: SymplecticRep) -> MomentContext:
    """One ``MomentContext`` per representation object (reps hash by
    identity).  The cache is bounded rather than weak: a context holds its
    rep, so a weak-keyed entry would never be released."""
    return MomentContext(rep)


class SectionSpace:
    """Spinor sections of bounded degree for a fixed representation.  The
    space holds den (A_j + A_j^T), the rep's pairing forms (``_pairing``,
    which clears rho and omega, so a rep with an entry that is not rational
    raises UnsupportedRingError here) polarized by ``moment._polarized``;
    ``ctx`` is the representation's cached ``MomentContext``, built on
    first read."""

    def __init__(self, rep: SymplecticRep, degree_bound: int):
        if type(degree_bound) is not int:
            raise TypeError(f"degree bound must be an int, not {type(degree_bound).__name__}")
        if degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.rep = rep
        self.degree_bound = degree_bound
        self.dim = rep.dimV * degree_bound
        self._forms = _polarized(rep._pairing[1])

    @property
    def ctx(self) -> MomentContext:
        return _context(self.rep)


class PetriMatrix(Record):
    def __init__(self, space: SectionSpace, base_psi: tuple, matrix: ExactMatrix):
        self._store(locals())


def _cleared_section(space: SectionSpace, vec):
    """(integers, L) with vec == integers / L for section coordinates vec
    (``matrix._cleared``).  A wrong length raises ShapeError and a
    coordinate that is not rational UnsupportedRingError."""
    if len(vec) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    return _cleared(vec)


def _petri_rows(space: SectionSpace, psi, degrees: int | None = None, forms=None):
    """``(psi, rows, L)``: ``rows`` dicts ``{column: nonzero int}`` of the
    section-level map of the forms ``forms`` (the space's pairing forms by
    default) at L psi, with psi = P / L cleared of denominators.

    Rows are indexed by (output degree, algebra basis index) with degree
    major; columns by the section basis e_j x^k, degree major as well.  The
    entry in row (l+k)*dim_g + i, column k*m + j is sum_r F_i[r][j] P[l*m + r]:
    a convolution of the coefficients of psi against the nonzeros
    (i, r, j, F_i[r][j]), walked once per degree l, summed in Python ints;
    an entry whose terms cancel is dropped.  ``degrees`` keeps only the
    rows of output degree below it (all 2s-1 by default); ``degrees=1``
    gives W0 = dmu at psi_0.
    """
    psi = tuple(psi)
    P, L = _cleared_section(space, psi)
    s = space.degree_bound
    dim_g = space.rep.algebra.dim
    m = space.rep.dimV
    t = 2 * s - 1 if degrees is None else degrees
    forms = space._forms if forms is None else forms
    rows = [{} for _ in range(t * dim_g)]
    for l in range(min(s, t)):
        ks = range(min(s, t - l))
        for i, r, j, v in forms:
            p = P[l * m + r]
            if p:
                x = v * p
                for k in ks:
                    row, col = rows[(l + k) * dim_g + i], k * m + j
                    row[col] = y = row.get(col, 0) + x
                    if not y:
                        del row[col]
    return psi, rows, L


def petri_matrix(space: SectionSpace, psi) -> PetriMatrix:
    """Matrix of psidot -> (x -> dmu at psi(x) of psidot(x)) on section
    spaces in the algebra coordinates of mu, with the layout of
    ``_petri_rows``: the rows of the forms S_k / q of the representation's
    ``MomentContext``, built here if it is not cached yet (a singular trace
    form raises InvalidContextError)."""
    ctx = space.ctx
    psi, rows, L = _petri_rows(space, psi, forms=ctx._S)
    den = L * ctx._q_inv.denominator
    dense = [[Fraction(row[j], den) if j in row else 0 for j in range(space.dim)] for row in rows]
    return PetriMatrix(space, psi, ExactMatrix(dense))


def in_petri_kernel(space: SectionSpace, psi, vec) -> bool:
    """Whether the matrix of ``petri_matrix`` at psi maps the section
    coordinates vec to zero.  Its rows are, degree block by degree block,
    G^-1 times those of the pairing forms (G the Gram matrix of B), so
    they vanish together: the integer rows of ``_petri_rows`` are applied
    in Python ints to vec cleared of its denominators, and no Fraction is
    built."""
    v, _ = _cleared_section(space, vec)
    _, rows, _ = _petri_rows(space, psi)
    return not any(sum(x * v[j] for j, x in row.items()) for row in rows)


def petri_kernel(space: SectionSpace, psi):
    """Exact kernel basis of the section-level differential at psi; empty
    means the map is injective.  The kernel is that of the integer rows of
    the pairing forms (see the module docstring).  Full column rank of the
    degree-0 rows W0 proves injectivity; W0 has dim(g) rows, so it is tried
    only when dim(g) >= dim(V).  Otherwise the integer rows are all
    eliminated as they are: no Fraction entry is built before the kernel
    vectors."""
    m = space.rep.dimV
    if space.rep.algebra.dim >= m:
        psi, block, _ = _petri_rows(space, psi, 1)
        if len(_echelon(block, m)) == m:
            return []
    _, rows, _ = _petri_rows(space, psi)
    return _row_echelon(rows, space.dim)[1]


def dual_pair_slots(rep: SymplecticRep):
    """The (W, W*) coordinate ranges of a representation consisting of one
    dual-pair summand."""
    if len(rep.summands) != 1 or rep.summands[0].kind != "dual-pair":
        raise ValueError("representation is not of dual-pair type")
    s = rep.summands[0]
    return range(s.lo, s.mid), range(s.mid, s.hi)


def scale_dual_pair(rep: SymplecticRep, psi, t, dual_exponent: int = -1):
    """(u, delta) -> (t u, t^e delta) with e = -1 for the moment-invariant
    scaling action."""
    if t == 0:
        raise ValueError("scaling parameter must be nonzero")
    w, ws = dual_pair_slots(rep)
    out = list(psi)
    tf = Fraction(t)
    te = tf ** dual_exponent
    for i in w:
        out[i] = psi[i] * tf
    for i in ws:
        out[i] = psi[i] * te
    return out


def scalar_action_invariance(rep: SymplecticRep, psi, t, dual_exponent: int = -1) -> bool:
    """Check mu(t u, t^e delta) == mu(u, delta) exactly; with the genuine
    action (e = -1) this always passes, which is exactly why the section-level
    map acquires the kernel direction (u, -delta)."""
    ctx = _context(rep)
    scaled = scale_dual_pair(rep, psi, t, dual_exponent)
    return moment_map(ctx, scaled) == moment_map(ctx, psi)


def dual_pair_kernel_direction(rep: SymplecticRep, space: SectionSpace, psi):
    """Section coordinates of (u, -delta) for a dual-pair spinor section."""
    w, ws = dual_pair_slots(rep)
    m = rep.dimV
    out = list(psi)
    for k in range(space.degree_bound):
        for i in ws:
            out[k * m + i] = -out[k * m + i]
    return tuple(out)
