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

``petri_kernel`` and ``in_petri_kernel`` convolve against the polarized
pairing forms A_j + A_j^T, A_j = rho_j^T Omega, with no moment context.
``s_form_rows``, ``s_form_kernel`` and ``s_form_in_kernel`` are the route
they replaced, written out here: the same convolution against the forms
S_k = Z_k + Z_k^T of the rep's ``MomentContext``, which are G^-1 times the
pairing forms, G the Gram matrix of the trace form.
"""

from spinorlab.matrix import ExactMatrix, ShapeError, _cleared, _echelon, _row_echelon
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


def s_form_rows(space, psi, degrees=None):
    """The sparse integer rows {column: nonzero int} of the section-level
    map of the forms S_k of ``space.ctx`` at psi cleared of denominators:
    the entry in row (l+k)*dim_g + i, column k*m + j is
    sum_r S_i[r][j] P[l*m + r].  ``degrees`` keeps the rows of output
    degree below it."""
    if len(psi) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    P, _ = _cleared(psi)
    s, dim_g, m = space.degree_bound, space.rep.algebra.dim, space.rep.dimV
    t = 2 * s - 1 if degrees is None else degrees
    rows = [{} for _ in range(t * dim_g)]
    for l in range(min(s, t)):
        for i, r, j, v in space.ctx._S:
            p = P[l * m + r]
            if p:
                for k in range(min(s, t - l)):
                    row, col = rows[(l + k) * dim_g + i], k * m + j
                    row[col] = row.get(col, 0) + v * p
                    if not row[col]:
                        del row[col]
    return rows


def s_form_w0_full_rank(space, psi):
    """Whether W0 = dmu at psi_0 has full column rank, from the S-form rows."""
    return len(_echelon(s_form_rows(space, psi, 1), space.rep.dimV)) == space.rep.dimV


def s_form_kernel(space, psi):
    """The kernel by the S-form route: empty when W0 has full column rank
    (tried when dim g >= dim V), else read off all the S-form rows."""
    if space.rep.algebra.dim >= space.rep.dimV and s_form_w0_full_rank(space, psi):
        return []
    return _row_echelon(s_form_rows(space, psi), space.dim)[1]


def s_form_in_kernel(space, psi, vec):
    """Whether every S-form row maps vec to zero."""
    if len(vec) != space.dim:
        raise ShapeError("section coordinate length mismatch")
    v, _ = _cleared(vec)
    return not any(sum(x * v[j] for j, x in row.items()) for row in s_form_rows(space, psi))
