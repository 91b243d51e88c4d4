"""Reference routes for the moment layer, kept only as test oracles.

``spinorlab.moment`` works in Lie-algebra coordinates: a bilinear form for the
differential, structure constants for the bracket, integer arithmetic for the
equivariance check.  The routes below are the direct ones it replaced: the
differential as the eps-linear part of mu over the dual numbers, and the
equivariance identity checked on ambient matrices.
"""

from spinorlab.moment import moment_map
from spinorlab.rings import Dual


def dual_moment_differential(ctx, psi, psidot):
    """eps-linear part of mu(psi + eps psidot) over R[eps]/(eps^2)."""
    coords = moment_map(ctx, [Dual(a, b) for a, b in zip(psi, psidot)])
    return tuple(c.eps if isinstance(c, Dual) else c * 0 for c in coords)


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
