"""Reference route for the section-level Petri matrix, kept only as a test
oracle.

``spinorlab.petri.petri_matrix`` convolves the integer coefficients of psi
against the sparse polarized forms S_k.  The route below is the direct one it
replaced: one call of the bilinear ``moment_differential`` per section basis
vector over ``MultiPoly``, with the coefficients read back out of the output
polynomials.
``petri_apply_pointwise`` takes the differential at a point after
evaluating the sections there, the pointwise side that the section matrix
must agree with.  ``section_polys`` and ``evaluate_section`` give both
routes the polynomial view of a section's coordinate vector.
"""

from spinorlab.matrix import ExactMatrix, ShapeError
from spinorlab.moment import moment_differential
from spinorlab.rings import MultiPoly

_X = "x"


def section_polys(space, coords):
    """Coordinate vector -> list of dimV polynomials in x; entry k*dimV + j
    is the coefficient of x^k in component j."""
    if len(coords) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    m = space.rep.dimV
    polys = []
    for j in range(m):
        terms = {}
        for k in range(space.degree_bound):
            c = coords[k * m + j]
            if c:
                terms[(k,)] = c
        polys.append(MultiPoly((_X,), terms))
    return polys


def evaluate_section(space, coords, x0):
    """Evaluate a section at a rational point, yielding a spinor vector."""
    return tuple(p.substitute({_X: x0}).constant_value() for p in section_polys(space, coords))


def multipoly_petri_matrix(space, psi) -> ExactMatrix:
    """The Petri matrix at psi, column by column over MultiPoly."""
    psi_polys = section_polys(space, tuple(psi))
    s = space.degree_bound
    dim_g = space.rep.algebra.dim
    m = space.rep.dimV
    out_slots = 2 * s - 1
    cols = []
    for k in range(s):
        for j in range(m):
            dot = [MultiPoly.const(0)] * m
            dot[j] = MultiPoly((_X,), {(k,): 1})
            d = moment_differential(space.ctx, psi_polys, dot)
            col = [0] * (out_slots * dim_g)
            for i, poly in enumerate(d):
                p = poly if isinstance(poly, MultiPoly) else MultiPoly.const(poly)
                for deg, cpoly in p.coeffs_in(_X).items():
                    if deg >= out_slots:
                        raise ShapeError("output degree exceeded 2s-2")
                    col[deg * dim_g + i] = cpoly.constant_value()
            cols.append(col)
    return ExactMatrix(cols).transpose()


def petri_apply_pointwise(space, psi, psidot, x0):
    """Evaluate sections first, then take dmu at the point."""
    p = evaluate_section(space, psi, x0)
    pd = evaluate_section(space, psidot, x0)
    return moment_differential(space.ctx, p, pd)
