"""Moment map of a symplectic representation, its differential, the
equivariance identity, and the rank-one Gaiotto Higgs field with its
characteristic (Hitchin) invariants.

The moment map is characterized by B(mu(psi), xi) = omega(rho(xi) psi, psi)
with B the trace form of the ambient matrix realization.  For the standard
representation of sp(2n) this normalization makes mu(psi) literally equal to
the matrix of v -> omega(v, psi) psi; no extra scalar is needed (checked in
the tests by an independent tensor computation).

Everything runs in Lie-algebra coordinates.  Each coordinate of mu is a
quadratic form psi^T Z_k psi / q with a sparse integer matrix Z_k, so the
differential is the bilinear form psi^T (Z_k + Z_k^T) psidot / q over any
commutative ring.  The equivariance check applies rho(xi) through the sparse
entries of the rho_j and takes [xi, mu] from the algebra's structure
constants; both sides are quadratic in psi with the common factor 1/q, so it
clears denominators and compares Python integers.  No ambient matrix is built
unless the check fails and its residual has to be shown.  The ambient-matrix
check and the dual-number differential this replaces are kept beside the
tests (``tests/moment_oracles.py``) as their oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .lie import SymplecticRep
from .matrix import ExactMatrix, _clear_denominators, _cleared_rows, _inverse_rows, char_poly
from .rings import _is_rat, is_zero


class InvalidContextError(ValueError):
    """The invariant-form Gram matrix is singular."""


class MomentContext:
    """Precomputed data for evaluating the moment map of one representation.

    Each coordinate of mu is a quadratic form psi -> (psi^T Z_k psi)/q with an
    integer matrix Z_k and common denominator q, obtained by solving against
    the Gram matrix of B once.  ``b_scale`` rescales B (the map rescales
    inversely; equivariance is unaffected).  The forms Z_k, their
    polarizations S_k = Z_k + Z_k^T, the rho_j (cleared of their common
    denominator) and the structure constants (likewise) are all kept as
    sparse integer (row, col, value) entries.

    The Gram inverse comes as sparse rows (``matrix._cleared_rows`` of
    ``_inverse_rows``): with den_G the lcm of the reduced denominators of
    G^-1, row k of den_G G^-1 is an integer row.  The A_j = rho_j^T Omega
    are cleared of their common denominator t, so every sum below is an
    integer multiple of 1/(den_G t), and q is den_G t over the gcd of den_G t
    and all sums: the lcm of their reduced denominators, whatever common
    denominator den_G is.
    """

    def __init__(self, rep: SymplecticRep, b_scale=1):
        if b_scale == 0:
            raise InvalidContextError("B-scale must be nonzero")
        self.rep = rep
        gram = rep.algebra.trace_gram().scale(b_scale)
        D = rep.algebra.dim
        try:
            den_g, ginv = _cleared_rows(_inverse_rows(gram), D)
        except ValueError as exc:
            raise InvalidContextError("Gram matrix of B is singular") from exc
        omega_rows = [[(c, w) for c, w in enumerate(row) if w] for row in rep.omega.entries]
        # rhs_j(psi) = omega(rho(X_j) psi, psi) = psi^T A_j psi, A_j = rho_j^T Omega,
        # and Z_k / q = sum_j ginv[k][j] A_j
        rho = [[(*divmod(p, rep.dimV), x) for p, x in flat.items()] for flat in rep._rho_flat]
        As = []
        for entries in rho:
            A = {}
            for m, r, x in entries:
                for c, w in omega_rows[m]:
                    A[r, c] = A.get((r, c), 0) + x * w
            As.append(A)
        As, t = _cleared([list(A.items()) for A in As])
        qs = []
        for row in ginv:
            f = {}
            for j, g in sorted(row.items()):
                for rc, a in As[j]:
                    f[rc] = f.get(rc, 0) + g * a
            qs.append(f)
        h = math.gcd(den_g * t, *(x for f in qs for x in f.values()))
        self._q_inv = Fraction(h, den_g * t)
        self._Z = [_sparse({rc: x // h for rc, x in f.items()}) for f in qs]
        self._S = []
        for Z in self._Z:
            S = {}
            for r, c, v in Z:
                S[r, c] = S.get((r, c), 0) + v
                S[c, r] = S.get((c, r), 0) + v
            self._S.append(_sparse(S))
        self._rho, self._rho_den = _cleared(rho)
        # the closure check's scaled constants s = den c^k_ij for i < j,
        # cleared by the lcm L of their denominators: c = sL / (den L) and
        # e = den L / gcd(den L, all sL), the lcm of the reduced denominators
        alg = rep.algebra
        table = alg._scaled_constants
        ints, L = _clear_denominators([x for cs in table.values() for x in cs.values()])
        h = math.gcd(alg._den * L, *ints)
        self._bracket_den = alg._den * L // h
        # _ad[i] lists (j, k, e c^k_ij): [X_i, X_j] = sum_k c^k_ij X_k
        self._ad = [[] for _ in range(D)]
        it = iter(ints)
        for (i, j), cs in table.items():
            for k in cs:
                v = next(it) // h
                self._ad[i].append((j, k, v))
                self._ad[j].append((i, k, -v))

    # -- evaluation -----------------------------------------------------

    def quadratic_coords(self, psi):
        """Coordinates of mu(psi).  A rational psi = P/L is cleared of its
        denominators once and its forms taken in ints, scaled by 1/(q L^2)."""
        if all(map(_is_rat, psi)):
            P, L = _clear_denominators(psi)
            scale = self._q_inv / (L * L)
            return tuple(x * scale for x in _forms(self._Z, P, P))
        return tuple(x * self._q_inv for x in _forms(self._Z, psi, psi))


def _cleared(groups):
    """``(groups, L)``: lists of tuples whose last entry is rational, with
    that entry times L, the lcm of all their denominators."""
    ints, L = _clear_denominators([t[-1] for g in groups for t in g])
    it = iter(ints)
    return [[(*t[:-1], next(it)) for t in g] for g in groups], L


def _sparse(entries: dict):
    return [(r, c, int(v)) for (r, c), v in entries.items() if v]


def _forms(forms, a, b):
    """Values a^T F b of sparse integer forms F, over any commutative ring."""
    out = []
    for entries in forms:
        acc = 0
        for r, c, v in entries:
            x, y = a[r], b[c]
            if not x or not y:
                continue
            acc = acc + v * x * y
        out.append(acc)
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
    return tuple(x * ctx._q_inv for x in _forms(ctx._S, psi, psidot))


def equivariance_check(ctx: MomentContext, psi, xi_coords):
    """Exactness of dmu_psi(rho(xi) psi) = [xi, mu(psi)] for rational psi and xi.

    Returns (passed, residual matrix); the residual is identically zero for
    every genuine symplectic representation.  With psi = P/L, xi = X/M,
    rho_j = R_j/d and structure constants C/e (P, X, R, C integral), the
    k-th coordinate of the residual is (e lhs_k - d rhs_k) / (q L^2 M d e) for
    lhs_k = P^T S_k (sum_j X_j R_j P) and rhs_k = sum_ij X_i (P^T Z_j P) C^k_ij.
    """
    rep = ctx.rep
    if len(psi) != rep.dimV or len(xi_coords) != rep.algebra.dim:
        raise ValueError("spinor or algebra element has wrong length")
    P, L = _clear_denominators(psi)
    X, M = _clear_denominators(xi_coords)
    psidot = [0] * rep.dimV
    for x, entries in zip(X, ctx._rho):
        if x:
            for r, c, v in entries:
                psidot[r] += x * v * P[c]
    lhs = _forms(ctx._S, P, psidot)
    mu = _forms(ctx._Z, P, P)
    rhs = [0] * rep.algebra.dim
    for x, ad in zip(X, ctx._ad):
        if x:
            for j, k, c in ad:
                rhs[k] += x * c * mu[j]
    e, d = ctx._bracket_den, ctx._rho_den
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
