"""Reference routes for the moment layer, kept only as test oracles.

``spinorlab.moment`` works in Lie-algebra coordinates: a bilinear form for the
differential, structure constants for the bracket, integer arithmetic for the
equivariance check.  The routes below are the direct ones it replaced: the
differential as the eps-linear part of mu over the dual numbers, and the
equivariance identity checked on ambient matrices.  ``MomentContext``
inverts the nonzeros of the Gram matrix in integers and forms its sums in
integers; the Fraction route it replaced is ``fraction_context_fields``,
which inverts the dense Gram matrix over Fractions and scans omega and each
rho for their nonzeros itself rather than through the package.  It returns
the context's flat tables: (k, row, col, value) for the forms and (j, row,
col, value) for rho.
``generic_quadratic_coords`` is the evaluation ``quadratic_coords`` keeps for
spinors that are not rational, applied to every spinor.
"""

import math
from fractions import Fraction

from matrix_oracles import rref_inverse
from spinorlab.moment import _forms, moment_map
from spinorlab.rings import Dual


def dual_moment_differential(ctx, psi, psidot):
    """eps-linear part of mu(psi + eps psidot) over R[eps]/(eps^2)."""
    coords = moment_map(ctx, [Dual(a, b) for a, b in zip(psi, psidot)])
    return tuple(c.eps if isinstance(c, Dual) else c * 0 for c in coords)


def generic_quadratic_coords(ctx, psi):
    """Coordinates of mu(psi) as (psi^T Z_k psi) / q over the ring of psi."""
    return tuple(x * ctx._q_inv for x in _forms(ctx._Z, ctx.rep.algebra.dim, psi, psi))


def ambient_equivariance_check(ctx, psi, xi_coords):
    """dmu_psi(rho(xi) psi) - [xi, mu(psi)] as an ambient matrix, with every
    algebra element expanded over the basis and the bracket taken as XY - YX."""
    rep = ctx.rep
    psidot = rep.rho_of(xi_coords).apply(psi)
    lhs = rep.algebra.from_coordinates(dual_moment_differential(ctx, psi, psidot))
    xi_mat = rep.algebra.from_coordinates(xi_coords)
    mu_mat = rep.algebra.from_coordinates(moment_map(ctx, psi))
    residual = lhs - (xi_mat * mu_mat - mu_mat * xi_mat)
    return residual.is_zero, residual


def fraction_context_fields(rep, b_scale=1):
    """The fields of ``MomentContext(rep, b_scale)`` by the Fraction route:
    Z_k / q = sum_j ginv[k][j] rho_j^T Omega with ginv the Fraction inverse of
    the Gram matrix, and q the lcm of the reduced denominators of the sums."""
    ginv = rref_inverse(rep.algebra.trace_gram().scale(b_scale))
    D = rep.algebra.dim
    omega_rows = {}
    for m, c, w in _nonzeros(rep.omega):
        omega_rows.setdefault(m, []).append((c, w))
    qs = [{} for _ in range(D)]
    for j, R in enumerate(rep.rho):
        A = {}
        for m, r, x in _nonzeros(R):
            for c, w in omega_rows.get(m, ()):
                A[r, c] = A.get((r, c), 0) + x * w
        for k in range(D):
            g = ginv.entries[k][j]
            if g:
                for rc, a in A.items():
                    qs[k][rc] = qs[k].get(rc, 0) + g * a
    q = math.lcm(*(Fraction(x).denominator for f in qs for x in f.values()))
    Z = [(k, r, c, int(x * q)) for k, f in enumerate(qs) for (r, c), x in f.items() if x]
    S = {}
    for k, r, c, v in Z:
        S[k, r, c] = S.get((k, r, c), 0) + v
        S[k, c, r] = S.get((k, c, r), 0) + v
    rho = [(j, r, c, x) for j, R in enumerate(rep.rho) for r, c, x in _nonzeros(R)]
    rho_den = math.lcm(*(Fraction(x).denominator for *_, x in rho))
    return {
        "_Z": Z,
        "_S": [(*krc, v) for krc, v in S.items() if v],
        "_q_inv": Fraction(1, q),
        "_rho_den": rho_den,
        "_rho": [(j, r, c, int(x * rho_den)) for j, r, c, x in rho],
    }


def _nonzeros(M):
    """The nonzero entries of a matrix as (row, col, value), row by row."""
    return [(r, c, x) for r, row in enumerate(M.entries) for c, x in enumerate(row) if x]
