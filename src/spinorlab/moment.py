"""Moment map of a symplectic representation, its differential, the
equivariance identity, and the rank-one Gaiotto Higgs field with its
characteristic (Hitchin) invariants.

The moment map is characterized by B(mu(psi), xi) = omega(rho(xi) psi, psi)
with B the trace form of the ambient matrix realization.  For the standard
representation of sp(2n) this normalization makes mu(psi) literally equal to
the matrix of v -> omega(v, psi) psi; no extra scalar is needed (checked in
the tests by an independent tensor computation).

Everything runs in Lie-algebra coordinates and on nonzeros only.  Each
coordinate of mu is a quadratic form psi^T Z_k psi / q with a sparse integer
matrix Z_k, so the differential is the bilinear form
psi^T (Z_k + Z_k^T) psidot / q over any commutative ring.  The forms are set
up from the rep's cached pairing forms A_j = rho_j^T Omega
(``SymplecticRep._pairing``) and the nonzeros of the trace form, inverted by
``matrix._cleared_inverse``, so no D x D matrix is built.  Only the algebra
coordinates need B: petri takes the kernel of the differential from the
pairing forms alone, so a context is built for ``petri_matrix`` and the
scaling check, and a rep whose trace form is degenerate raises
``InvalidContextError`` there.  The equivariance check applies rho(xi) through
the nonzeros of the rho_j and takes [xi, mu] from the algebra's one flat
list of structure constants (``MatrixLieAlgebra._constants``), each stored
once for i < j; a context copies none of them, so the moment map and its
differential (petri) never have the list built.  Both sides are quadratic
in psi with the common factor 1/q, so the check clears denominators and
compares Python integers (for an integer basis, whose constants are
integers).  Every vector is cleared by ``matrix._cleared``, the one rule for
what is rational: a context over a rep with an entry of rho or omega that is
not rational, and an equivariance check with such a coordinate, raise
``UnsupportedRingError`` naming its type.
No ambient matrix is built unless the check fails and its residual has to
be shown.  The ambient-matrix check and the dual-number differential this
replaces are kept beside the tests (``tests/moment_oracles.py``) as their
oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .lie import SymplecticRep
from .matrix import ExactMatrix, _cleared, _cleared_inverse, char_poly
from .rings import UnsupportedRingError, is_zero


class InvalidContextError(ValueError):
    """The invariant-form Gram matrix is singular."""


class MomentContext:
    """Precomputed data for evaluating the moment map of one representation.

    Each coordinate of mu is a quadratic form psi -> (psi^T Z_k psi)/q with an
    integer matrix Z_k and common denominator q, obtained by solving against
    the Gram matrix of B once.  ``b_scale`` rescales B (the map rescales
    inversely; equivariance is unaffected).  Every table is one flat list of
    integer nonzeros: the forms Z_k and their polarizations
    S_k = Z_k + Z_k^T (``_polarized``) as (k, row, col, value), and the
    rep's rho_j cleared of their common denominator d (``_rho_cleared``).  A context holds no
    structure constant; ``equivariance_check`` reads the algebra's.

    The Gram matrix comes as the nonzeros of its rows (``_trace_form``)
    times ``b_scale`` and is inverted by ``matrix._cleared_inverse``, the
    one [X | I] elimination, which gives den_G G^-1 in integer rows.  The
    pairing forms A_j = rho_j^T Omega come from the rep's cached table
    (``SymplecticRep._pairing``) as integer nonzeros of den_A A_j, den_A
    the product of the common denominators of rho and omega.  So every sum
    Z_k / q = sum_j G^-1[k][j] A_j is an integer multiple of
    1/(den_G den_A), and q is den_G den_A over the gcd of den_G den_A and
    all sums: the lcm of their reduced denominators, whatever den_G and
    den_A are.
    """

    def __init__(self, rep: SymplecticRep, b_scale=1):
        if b_scale == 0:
            raise InvalidContextError("B-scale must be nonzero")
        self.rep = rep
        alg = rep.algebra
        try:
            den_G, ginv = _cleared_inverse([{j: b_scale * x for j, x in row.items()} for row in alg._trace_form], alg.dim)
        except ValueError as exc:
            raise InvalidContextError("Gram matrix of B is singular") from exc
        # den_A A_j, A_j = rho_j^T Omega: psi^T A_j psi = omega(rho(X_j) psi, psi)
        den_A, pairing = rep._pairing
        As = [[] for _ in range(alg.dim)]
        for j, r, c, a in pairing:
            As[j].append((r, c, a))
        self._rho_den, self._rho = rep._rho_cleared
        # den_G den_A Z_k / q = sum_j den_G G^-1[k][j] den_A A_j
        sums = {}
        for k in range(alg.dim):
            for j, g in sorted(ginv[k].items()):
                for r, c, a in As[j]:
                    sums[k, r, c] = sums.get((k, r, c), 0) + g * a
        den = den_G * den_A
        h = math.gcd(den, *sums.values())
        self._q_inv = Fraction(h, den)
        self._Z = [(*krc, x // h) for krc, x in sums.items() if x]
        self._S = _polarized(self._Z)

    # -- evaluation -----------------------------------------------------

    def quadratic_coords(self, psi):
        """Coordinates of mu(psi).  A rational psi = P/L is cleared of its
        denominators once and its forms taken in ints, scaled by 1/(q L^2);
        a psi that ``_cleared`` rejects has its forms taken over its ring."""
        D = self.rep.algebra.dim
        try:
            P, L = _cleared(psi)
        except UnsupportedRingError:
            return tuple(x * self._q_inv for x in _forms(self._Z, D, psi, psi))
        scale = self._q_inv / (L * L)
        return tuple(x * scale for x in _forms(self._Z, D, P, P))


def _polarized(forms) -> list:
    """The nonzeros (k, row, col, value) of F_k + F_k^T, for integer forms
    F_k given by their nonzeros (k, row, col, value), in the order each is
    first reached: psi^T (F_k + F_k^T) psidot is the derivative of
    psi^T F_k psi in the direction psidot.  A context polarizes its Z_k,
    and petri the rep's pairing forms A_j."""
    P = {}
    for k, r, c, v in forms:
        P[k, r, c] = P.get((k, r, c), 0) + v
        P[k, c, r] = P.get((k, c, r), 0) + v
    return [(*krc, v) for krc, v in P.items() if v]


def _forms(forms, D: int, a, b):
    """Values a^T F_k b, k < D, of the integer forms F_k given by their
    nonzeros (k, r, c, value), over any commutative ring."""
    out = [0] * D
    for k, r, c, v in forms:
        x, y = a[r], b[c]
        if x and y:
            out[k] = out[k] + v * x * y
    return out


def moment_map(ctx: MomentContext, psi):
    """Coordinates of mu(psi) in the algebra basis, for psi over any
    commutative coefficient ring (rationals, polynomials, duals)."""
    if len(psi) != ctx.rep.dimV:
        raise ValueError("spinor has wrong length")
    return ctx.quadratic_coords(psi)


def moment_matrix(ctx: MomentContext, psi) -> ExactMatrix:
    """mu(psi) expanded as an ambient algebra matrix."""
    return ctx.rep.algebra.from_coordinates(moment_map(ctx, psi))


def moment_differential(ctx: MomentContext, psi, psidot):
    """Coordinates of the derivative of mu at psi in direction psidot: the
    bilinear form psi^T (Z_k + Z_k^T) psidot / q, over any commutative ring."""
    if len(psi) != ctx.rep.dimV or len(psidot) != ctx.rep.dimV:
        raise ValueError("spinor has wrong length")
    return tuple(x * ctx._q_inv for x in _forms(ctx._S, ctx.rep.algebra.dim, psi, psidot))


def equivariance_check(ctx: MomentContext, psi, xi_coords):
    """Exactness of dmu_psi(rho(xi) psi) = [xi, mu(psi)] for rational psi and
    xi; a coordinate that is not rational raises UnsupportedRingError.

    Returns (passed, residual matrix); the residual is identically zero for
    every genuine symplectic representation.  With psi = P/L, xi = X/M,
    rho_j = R_j/d and structure constants C/e (P, X, R integral; C the
    values of the algebra's ``_constants`` and e its ``_den``), the k-th coordinate
    of the residual is (e lhs_k - d rhs_k) / (q L^2 M d e) for
    lhs_k = P^T S_k (sum_j X_j R_j P) and rhs_k = sum_ij X_i (P^T Z_j P) C^k_ij.
    """
    rep = ctx.rep
    if len(psi) != rep.dimV or len(xi_coords) != rep.algebra.dim:
        raise ValueError("spinor or algebra element has wrong length")
    P, L = _cleared(psi)
    X, M = _cleared(xi_coords)
    psidot = [0] * rep.dimV
    for j, r, c, v in ctx._rho:
        if X[j]:
            psidot[r] += X[j] * v * P[c]
    D = rep.algebra.dim
    lhs = _forms(ctx._S, D, P, psidot)
    mu = _forms(ctx._Z, D, P, P)
    # sum over ordered pairs of X_i mu_j C^k_ij, each constant taken once
    rhs = [0] * D
    for i, j, k, c in rep.algebra._constants:
        rhs[k] += c * (X[i] * mu[j] - X[j] * mu[i])
    e, d = rep.algebra._den, ctx._rho_den
    residual = [e * a - d * b for a, b in zip(lhs, rhs)]
    if not any(residual):
        return True, _zero_residual(rep.algebra.ambient_dim)
    scale = ctx._q_inv / (L * L * M * d * e)
    return False, rep.algebra.from_coordinates([r * scale for r in residual])


@cache
def _zero_residual(n: int) -> ExactMatrix:
    """The n x n zero matrix of every passing check: one instance per n,
    which the immutability of ``ExactMatrix`` makes safe to share."""
    return ExactMatrix.zeros(n, n)


def gaiotto_field(omega: ExactMatrix, psi) -> ExactMatrix:
    """Matrix of v -> omega(v, psi) psi, the rank-one square-zero Higgs field
    attached to a spinor of the standard symplectic space."""
    if omega.rows != len(psi):
        raise ValueError("spinor has wrong length")
    w = omega.apply(psi)  # omega(e_j, psi) = (Omega psi)_j
    return ExactMatrix([[psi[i] * w[j] for j in range(len(psi))] for i in range(len(psi))])


def hitchin_invariants(Phi: ExactMatrix):
    """All characteristic coefficients of the Higgs field, ascending from
    lambda^0.  Membership in the nilpotent cone is the vanishing of every
    non-leading coefficient; for sp the odd ones vanish identically anyway."""
    return char_poly(Phi)


def is_nilpotent_cone_member(Phi: ExactMatrix) -> bool:
    cs = hitchin_invariants(Phi)
    return all(is_zero(c) for c in cs[:-1])
