"""Formal-disc constructions: symplectic basis completion over truncated
power series, the pole-modification family h_t = I + t z^{-m} N, and the
exact gluing identities for the modified spinor and its rank-one Higgs field.

The completion is one explicit basis: over the local ring Q[[z]]/z^prec a
primitive vector has a unit coordinate and pairs with its partner's basis
vector.  The modification family is exactly Laurent-polynomial, so the whole
gluing suite runs with zero truncation error; truncation appears only in the
basis completion, whose output is certified mod z^prec.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .matrix import ExactMatrix, in_sp, is_symplectic, rank, standard_omega
from .moment import gaiotto_field
from .rings import LaurentPoly, MultiPoly, as_poly, dot

_Z = "z"
_T = "t"


class PrimitivityError(ValueError):
    """The series vector vanishes at z = 0."""


class HeckeIdentityError(ValueError):
    """A construction failed the identity it certifies."""


def poly_mod(p: MultiPoly, prec: int) -> MultiPoly:
    """Truncate a polynomial in z below z^prec."""
    return MultiPoly._trusted({m: c for m, c in p.terms.items() if dict(m).get(_Z, 0) < prec})


def series_inverse(p: MultiPoly, prec: int) -> MultiPoly:
    """Inverse of a unit of Q[[z]]/(z^prec); the constant term must be nonzero."""
    coeffs = {k: c.constant_value() for k, c in p.coeffs_in(_Z).items()}
    u = [coeffs.get(k, Fraction(0)) for k in range(prec)]
    if u[0] == 0:
        raise ValueError("series has no constant term; not a unit")
    inv = [Fraction(1) / u[0]]
    for k in range(1, prec):
        # inv[k] = -(u[1] inv[k-1] + ... + u[k] inv[0]) / u[0]
        inv.append(-dot(u[1 : k + 1], inv[::-1]) / u[0])
    return MultiPoly((_Z,), {(k,): c for k, c in enumerate(inv) if c != 0})


class TruncatedSeriesVector(Record):
    """Vector of polynomials in z, with identities asserted mod z^precision."""

    def __init__(self, entries: tuple, precision: int):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        entries = tuple(map(as_poly, entries))
        self._store(locals())

    @property
    def dim(self) -> int:
        return len(self.entries)

    def constant_terms(self):
        return tuple(p.coeff({_Z: 0}) for p in self.entries)

    @property
    def is_primitive(self) -> bool:
        return any(c != 0 for c in self.constant_terms())


def symplectic_complete(v: TruncatedSeriesVector, prec: int | None = None) -> ExactMatrix:
    """Complete a primitive series vector to a symplectic basis mod z^prec.

    Returns S with first column v and S^T Omega S = Omega mod z^prec in the
    interleaved frame, in closed form.  Let p be the first coordinate with
    v_p(0) != 0, q = p ^ 1 its partner, sigma = Omega[p][q] = +-1 and c the
    series inverse of sigma v_p.  The columns are v, c e_q, then e_j +
    alpha_j e_q for every other j ascending, with alpha_j = c (Omega v)_j.
    They pair as the standard basis does: omega(v, c e_q) = c sigma v_p = 1;
    e_j + alpha_j e_q is orthogonal to e_q, and to v because alpha_j
    omega(e_q, v) = -alpha_j sigma v_p cancels omega(e_j, v); and two such
    columns pair as e_j and e_j' do.
    """
    prec = v.precision if prec is None else prec
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if not v.is_primitive:
        raise PrimitivityError("vector vanishes at z = 0")
    dim = v.dim
    if dim % 2:
        raise ValueError("ambient dimension must be even")
    omega = standard_omega(dim // 2)

    vt = [poly_mod(x, prec) for x in v.entries]
    p = next(i for i, c0 in enumerate(v.constant_terms()) if c0 != 0)
    q = p ^ 1
    c = series_inverse(omega.entries[p][q] * vt[p], prec)
    zero, one = MultiPoly.const(0), MultiPoly.const(1)
    cols = [vt, [c if i == q else zero for i in range(dim)]]
    for j, w in enumerate(omega.apply(vt)):
        if j not in (p, q):
            col = [one if i == j else zero for i in range(dim)]
            col[q] = poly_mod(c * w, prec)
            cols.append(col)
    S = ExactMatrix(cols, cols=dim).transpose()
    if not verify_completion(S, prec):
        raise HeckeIdentityError("completion postcondition failed")
    return S


def verify_completion(S: ExactMatrix, prec: int) -> bool:
    """S^T Omega S = Omega mod z^prec, and S invertible over the truncated ring."""
    n2 = S.rows
    omega = standard_omega(n2 // 2)
    prod = (S.transpose() * omega * S - omega).map_entries(lambda p: poly_mod(as_poly(p), prec))
    if not prod.is_zero:
        return False
    const = ExactMatrix(
        [[as_poly(x).coeff({_Z: 0}) for x in row] for row in S.entries]
    )
    return rank(const) == n2


# -- the pole-modification family -----------------------------------------


def smoothing_nilpotent(n: int) -> ExactMatrix:
    """N with N e1 = f1 and everything else killed, in the interleaved frame.
    Lies in sp(2n) and squares to zero."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    rows[1][0] = 1
    N = ExactMatrix(rows)
    if not ((N * N).is_zero and in_sp(N)):
        raise HeckeIdentityError("smoothing nilpotent is not a square-zero element of sp")
    return N


class HeckeFamily(Record):
    def __init__(
        self,
        n: int,
        m: int,
        N: ExactMatrix,
        h_t: ExactMatrix,  # over Laurent-in-z, polynomial-in-t coefficients
        h_inv: ExactMatrix,  # I - t z^{-m} N, verified inverse
    ):
        self._store(locals())

    def at_t_zero(self) -> ExactMatrix:
        return self.h_t.map_entries(lambda p: p.substitute_coeff_var(_T, 0))


def _family_matrix(N: ExactMatrix, m: int, sign: int) -> ExactMatrix:
    """I + sign t z^-m N, every entry a ``LaurentPoly`` in z."""
    return ExactMatrix.identity(N.rows) + N.scale(LaurentPoly.term(_Z, -m, sign * MultiPoly.var(_T)))


def hecke_family(n: int, m: int, nilpotent: ExactMatrix | None = None) -> HeckeFamily:
    """Build h_t = I + t z^{-m} N and verify, with zero residual and no
    truncation, that I - t z^{-m} N inverts it.  A caller's N must be
    2n x 2n and square to zero (ValueError); whether h_t is symplectic is
    ``verify_symplectic_family``'s check, so an N outside sp(2n) still
    builds a family."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if nilpotent is None:
        N = smoothing_nilpotent(n)  # checks N^2 = 0 itself
    else:
        N = nilpotent
        if (N.rows, N.cols) != (2 * n, 2 * n):
            raise ValueError(f"modification matrix must be {2 * n}x{2 * n}, not {N.rows}x{N.cols}")
        if not (N * N).is_zero:
            raise ValueError("modification matrix must square to zero")
    h_t = _family_matrix(N, m, +1)
    h_inv = _family_matrix(N, m, -1)
    fam = HeckeFamily(n, m, N, h_t, h_inv)
    if fam.h_t * fam.h_inv != ExactMatrix.identity(2 * n):
        raise HeckeIdentityError("I - t z^-m N does not invert the family")
    return fam


def verify_symplectic_family(fam: HeckeFamily) -> bool:
    """The exact Laurent-polynomial identity h_t^T Omega h_t = Omega."""
    return is_symplectic(fam.h_t, standard_omega(fam.n))


class GlueReport(Record):
    def __init__(
        self,
        spinor_regular: bool,
        spinor_nonzero_at_origin: bool,
        higgs_glues: bool,
        higgs_regular: bool,
    ):
        self._store(locals())

    @property
    def passed(self) -> bool:
        return (
            self.spinor_regular
            and self.spinor_nonzero_at_origin
            and self.higgs_glues
            and self.higgs_regular
        )


def _lz(x) -> LaurentPoly:
    return x if isinstance(x, LaurentPoly) else LaurentPoly(_Z, {0: x})


def modified_spinor(fam: HeckeFamily):
    """The disc-side spinor z^m e1 and its image under h_t."""
    psi_u = [
        LaurentPoly(_Z, {fam.m: MultiPoly.const(1)}) if i == 0 else LaurentPoly(_Z, {})
        for i in range(2 * fam.n)
    ]
    return psi_u, [_lz(x) for x in fam.h_t.apply(psi_u)]


def glue_check(n: int, m: int, nilpotent: ExactMatrix | None = None) -> GlueReport:
    """Disc-side consistency of the modification: the modified spinor is
    regular, does not vanish at the origin once t != 0, and conjugating the
    punctured-disc Higgs field matches the Higgs field of the modified
    spinor as an exact Laurent identity."""
    fam = hecke_family(n, m, nilpotent=nilpotent)
    omega = standard_omega(fam.n)
    psi_u, psi_d = modified_spinor(fam)

    regular = all(p.is_zero or p.is_regular for p in psi_d)
    at_zero = [p.coefficient(0) for p in psi_d]  # entries are polynomials in t
    nonzero_at_origin = any(not c.is_zero for c in at_zero)

    phi_u = gaiotto_field(omega, psi_u)
    phi_d = gaiotto_field(omega, psi_d)
    glues = fam.h_t * phi_u * fam.h_inv == phi_d
    phi_regular = all(x.is_zero or x.is_regular for row in phi_d.entries for x in row)
    return GlueReport(regular, nonzero_at_origin, glues, phi_regular)
