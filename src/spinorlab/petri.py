"""Polynomial section model for spinors and the induced map on sections.

Sections are V-valued polynomials of degree < s in one abstract variable x,
held only as coordinate vectors: entry k*dim(V) + j is the coefficient of
x^k in component j.  The differential of the moment map acts on them
pointwise-polynomially and is assembled into an exact matrix whose kernel
decides injectivity.  Outputs are algebra-valued polynomials of degree
<= 2s-2, stored with 2s-1 coefficient slots, so no truncation ever occurs.

The differential is the bilinear form psi^T S_k psidot / q of the moment
layer, so the matrix is built by convolving the integer coefficients of psi
(cleared of denominators) against the flat list of nonzeros (k, row, col,
value) of the forms S_k, with no polynomial objects.  That gives sparse
integer rows and one common denominator; the
kernel is that of the integer rows, so ``petri_kernel`` hands them straight
to ``matrix._row_echelon`` and builds Fractions only for the kernel vectors,
and ``in_petri_kernel`` applies them to one direction in ints.
The rows are tall and sparse (252 x 32 with about four nonzeros per row for
sp(8) at degree bound 4), and the row-by-row elimination stops as soon as
the rank is full, which for the standard representation is after about
half of them.  The column-by-column ``MultiPoly`` route it replaced is kept
beside the tests (``tests/petri_oracles.py``) as its oracle, together with
the polynomial view of a section and its evaluation at a point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .lie import SymplecticRep
from .matrix import ExactMatrix, ShapeError, _clear_denominators, _row_echelon
from .moment import MomentContext, moment_map


@lru_cache(maxsize=16)
def _context(rep: SymplecticRep) -> MomentContext:
    """One ``MomentContext`` per representation object (reps hash by
    identity).  The cache is bounded rather than weak: a context holds its
    rep, so a weak-keyed entry would never be released."""
    return MomentContext(rep)


class SectionSpace:
    """Spinor sections of bounded degree for a fixed representation."""

    def __init__(self, rep: SymplecticRep, degree_bound: int):
        if degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.rep = rep
        self.degree_bound = degree_bound
        self.dim = rep.dimV * degree_bound
        self.ctx = _context(rep)


class PetriMatrix(Record):
    def __init__(self, space: SectionSpace, base_psi: tuple, matrix: ExactMatrix):
        self._store(locals())


def _petri_rows(space: SectionSpace, psi):
    """``(psi, rows, den)``: the matrix of ``petri_matrix`` is ``rows / den``
    with ``rows`` dicts ``{column: nonzero int}``.

    Rows are indexed by (output degree, algebra basis index) with degree
    major; columns by the section basis e_j x^k, degree major as well.  With
    psi = P/L cleared of denominators, the entry in row (l+k)*dim_g + i,
    column k*m + j is sum_r S_i[r][j] P[l*m + r] / (L q): a convolution of
    the coefficients of psi against the nonzeros (i, r, j, S_i[r][j]),
    walked once per degree l, summed in Python ints; an entry whose terms
    cancel is dropped.
    """
    psi = tuple(psi)
    if len(psi) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    P, L = _clear_denominators(psi)
    s = space.degree_bound
    dim_g = space.rep.algebra.dim
    m = space.rep.dimV
    rows = [{} for _ in range((2 * s - 1) * dim_g)]
    for l in range(s):
        for i, r, j, v in space.ctx._S:
            p = P[l * m + r]
            if p:
                x = v * p
                for k in range(s):
                    row, col = rows[(l + k) * dim_g + i], k * m + j
                    row[col] = y = row.get(col, 0) + x
                    if not y:
                        del row[col]
    return psi, rows, L * space.ctx._q_inv.denominator


def petri_matrix(space: SectionSpace, psi) -> PetriMatrix:
    """Matrix of psidot -> (x -> dmu at psi(x) of psidot(x)) on section
    spaces, with the layout of ``_petri_rows``."""
    psi, rows, den = _petri_rows(space, psi)
    dense = [[Fraction(row[j], den) if j in row else 0 for j in range(space.dim)] for row in rows]
    return PetriMatrix(space, psi, ExactMatrix(dense))


def in_petri_kernel(space: SectionSpace, psi, vec) -> bool:
    """Whether the matrix of ``petri_matrix`` at psi maps the section
    coordinates vec to zero.  The sparse integer rows of ``_petri_rows`` are
    den times that matrix, so their nonzeros are applied in Python ints to
    vec cleared of its denominators, and no Fraction is built."""
    if len(vec) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    _, rows, _ = _petri_rows(space, psi)
    v, _ = _clear_denominators(vec)
    return not any(sum(x * v[j] for j, x in row.items()) for row in rows)


def petri_kernel(space: SectionSpace, psi):
    """Exact kernel basis of the section-level differential at psi; empty
    means the map is injective.  The integer rows are den times the matrix
    and have its kernel, so they are eliminated as they are: no Fraction
    entry is built before the kernel vectors."""
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
