"""Reference route for the cocycle layer, kept only as a test oracle.

``spinorlab.cocycle`` works over Laurent polynomials in the line symbol ``l``
(or over Q when ``l`` is rational): every denominator is a power of ``l``.
The route below is the one it replaced: the same identities over the general
fraction field ``FracElem``, with the dual block from ``rref_solve`` and
equality by cross-multiplication.  Its elimination is the fraction-field
route of ``matrix_oracles``, not the package's rational-only kernel.  Two
charts with independent line symbols (``l`` and ``l2``) only fit this route,
since a ``LaurentPoly`` has one distinguished variable.
``loop_block_form`` is the entrywise loop that ``cocycle.standard_form`` and
``bbflow.graded_omega`` each ran before both built ``matrix.line_block_form``.

``laurent_fresh_symbol_cocycle``, ``laurent_form_residual`` and
``laurent_necessity_solve`` are the Laurent route that the cleared integer
linear forms of ``spinorlab.cocycle`` replaced: gamma from the generic
``theta_dual`` (one rational inverse), the residual vector
r = u^T Theta gamma + l^-1 d^T from ``rings.dot`` over the
MultiPoly/LaurentPoly tower, and the necessity system read off every nonzero
entry of that residual with ``split_linear``.
"""

from dataclasses import dataclass

from spinorlab.cocycle import (
    BlockCocycle,
    InvalidCocycleError,
    NecessityResult,
    _line_inverse,
    assemble_transition,
    middle_theta,
    standard_form,
    theta_dual,
)
from spinorlab.matrix import ExactMatrix, random_symplectic, rank, solve_linear
from spinorlab.matrix import standard_omega
from spinorlab.rings import FracElem, LaurentPoly, MultiPoly, _is_rat, as_poly, dot, is_zero

from matrix_oracles import rref_rank_kernel, rref_solve


def split_linear(poly, unknowns):
    """Split a ``MultiPoly`` linear in ``unknowns`` as (constant part,
    {u: coeff}).

    Raises ValueError if any term has total degree >= 2 in the unknowns.
    """
    unk = set(unknowns)
    const_terms = {}
    lin = {nm: {} for nm in unknowns}
    for m, c in poly.terms.items():
        hits = [(nm, k) for nm, k in m if nm in unk]
        if not hits:
            const_terms[m] = c
        elif len(hits) == 1 and hits[0][1] == 1:
            nm = hits[0][0]
            lin[nm][tuple(p for p in m if p[0] != nm)] = c
        else:
            raise ValueError("polynomial is not linear in the unknowns")
    return MultiPoly._trusted(const_terms), {nm: MultiPoly._trusted(t) for nm, t in lin.items()}


def loop_block_form(n):
    """[[0,0,1],[0,Theta,0],[-1,0,0]] in the (line, middle, dual line)
    ordering, Theta = standard_omega(n - 1), copied entry by entry."""
    k = 2 * n - 2
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    rows[0][2 * n - 1] = 1
    rows[2 * n - 1][0] = -1
    if k:
        theta = standard_omega(n - 1)
        for i in range(k):
            for j in range(k):
                rows[1 + i][1 + j] = theta.entries[i][j]
    return ExactMatrix(rows)


@dataclass(frozen=True)
class FracCocycle:
    """Transition data (l, d, a | u, gamma) with a ``FracElem`` line transition."""

    n: int
    l: FracElem
    u: ExactMatrix
    d: tuple
    a: object
    gamma: tuple


def frac_theta_dual(d, u, l, theta):
    """Solve u^T Theta gamma = -l^{-1} d^T over the fraction field."""
    k = theta.rows
    if rref_rank_kernel(theta)[0] != k or rref_rank_kernel(u)[0] != k:
        raise ValueError("singular theta or u")
    l = l if isinstance(l, FracElem) else FracElem(l)
    linv = l.reciprocal()
    gamma = rref_solve(u.transpose() * theta, [-(linv * di) for di in d])
    if gamma is None:
        raise ValueError("dual system is inconsistent")
    for kk in range(k):
        if FracElem(0) + dot(gamma, theta.apply(u.col(kk))) != linv * d[kk]:
            raise ValueError("theta-dual failed its defining identity")
    return tuple(gamma)


def frac_fresh_symbol_cocycle(n, seed, gamma=None, names=("l", "d", "a")):
    """Fresh symbols ``l``, ``d1..``, ``a`` (renamed by ``names``) over the
    fraction field, with the middle block ``random_symplectic(n - 1, seed)``."""
    l_name, d_name, a_name = names
    k = 2 * n - 2
    l = FracElem(MultiPoly.var(l_name))
    d = tuple(MultiPoly.var(f"{d_name}{i+1}") for i in range(k))
    a = MultiPoly.var(a_name)
    u = random_symplectic(n - 1, seed)
    if gamma is None:
        gamma = frac_theta_dual(d, u, l, middle_theta(n))
    return FracCocycle(n, l, u, d, a, tuple(gamma))


def frac_perturb_gamma(c, slot, amount=1):
    gamma = list(c.gamma)
    gamma[slot] = gamma[slot] + amount
    return FracCocycle(c.n, c.l, c.u, c.d, c.a, tuple(gamma))


def frac_assemble_transition(c):
    k = 2 * c.n - 2
    rows = [[c.l] + list(c.d) + [c.a]]
    for i in range(k):
        rows.append([0] + list(c.u.entries[i]) + [c.gamma[i]])
    rows.append([0] * (k + 1) + [c.l.reciprocal()])
    return ExactMatrix(rows)


def frac_verify_form_preservation(c):
    """Residual v^T Omega_std v - Omega_std over the fraction field."""
    v = frac_assemble_transition(c)
    omega = standard_form(c.n)
    return v.transpose() * omega * v - omega


def dense_form_residual(c):
    """The whole residual v^T Omega v - Omega of a ``BlockCocycle``, from
    dense products over the Laurent tower; ``verify_form_preservation``
    forms only its two blocks that can be nonzero."""
    v = assemble_transition(c)
    omega = standard_form(c.n)
    return v.transpose() * omega * v - omega


def frac_necessity_solve(n, l, u, d, a):
    """Unknown gamma symbols, residual expanded over the fraction field, and
    the linear system read off the numerators; returns ``(gamma, rank)``."""
    k = 2 * n - 2
    names = [f"_g{i}" for i in range(k)]
    syms = tuple(MultiPoly.var(nm) for nm in names)
    c = FracCocycle(n, FracElem(l), u, tuple(d), a, syms)
    rows = []
    rhs = []
    for row in frac_verify_form_preservation(c).entries:
        for x in row:
            num = (x if isinstance(x, FracElem) else FracElem(x)).num
            if num.is_zero:
                continue
            const, lin = split_linear(num, names)
            coeffs = [lin.get(nm, MultiPoly.const(0)) for nm in names]
            if not const.is_constant or any(not cf.is_constant for cf in coeffs):
                raise ValueError("necessity solve needs rational block data")
            rows.append([cf.constant_value() for cf in coeffs])
            rhs.append(-const.constant_value())
    system = ExactMatrix(rows, cols=k)
    sol = rref_solve(system, rhs)
    if sol is None:
        raise ValueError("residual system has no solution")
    return tuple(sol), rref_rank_kernel(system)[0]


def laurent_to_frac(x, var="l"):
    """Map a ``LaurentPoly`` sum of c_k var^k (or a rational or ``MultiPoly``)
    to the equal ``FracElem``."""
    if not isinstance(x, LaurentPoly):
        return FracElem(x)
    if x.var != var:
        raise ValueError(f"expected the Laurent variable {var!r}")
    sym = MultiPoly.var(var)
    out = FracElem(0)
    for k, c in x.coeffs.items():
        out = out + (FracElem(c * sym ** k) if k >= 0 else FracElem(c, sym ** -k))
    return out


def laurent_fresh_symbol_cocycle(n, seed):
    """``fresh_symbol_cocycle(n, seed)`` with gamma from ``theta_dual``."""
    k = 2 * n - 2
    l = LaurentPoly("l", {1: 1})
    d = tuple(MultiPoly.var(f"d{i+1}") for i in range(k))
    u = random_symplectic(n - 1, seed)
    return BlockCocycle(n, l, u, d, MultiPoly.var("a"), theta_dual(d, u, l, middle_theta(n)))


def laurent_form_residual(c):
    """The residual of ``verify_form_preservation`` in its block layout, with
    r_i = dot(column i of u, Theta gamma) + l^-1 d_i over the tower."""
    k = 2 * c.n - 2
    linv = _line_inverse(c.l)
    theta_gamma = middle_theta(c.n).apply(c.gamma)
    r = [dot(col, theta_gamma) + linv * dj for col, dj in zip(c.u.transpose().entries, c.d)]
    rows = [[0] * (k + 2)]
    rows.extend([0] * (k + 1) + [ri] for ri in r)
    rows.append([0] + [-ri for ri in r] + [0])
    return ExactMatrix(rows)


def laurent_necessity_solve(n, l, u, d, a):
    """Unknown gamma symbols, ``laurent_form_residual`` expanded in them, and
    one row per nonzero entry read off with ``split_linear``."""
    if not _is_rat(l):
        raise InvalidCocycleError("necessity solve needs a rational line transition")
    k = 2 * n - 2
    names = [f"_g{i}" for i in range(k)]
    syms = tuple(MultiPoly.var(nm) for nm in names)
    residual = laurent_form_residual(BlockCocycle(n, l, u, tuple(d), a, syms))
    rows = []
    rhs = []
    for row in residual.entries:
        for x in row:
            if is_zero(x):
                continue
            const, lin = split_linear(as_poly(x), names)
            coeffs = [lin[nm] for nm in names]
            if not const.is_constant or any(not cf.is_constant for cf in coeffs):
                raise InvalidCocycleError("necessity solve needs rational block data")
            rows.append([cf.constant_value() for cf in coeffs])
            rhs.append(-const.constant_value())
    system = ExactMatrix(rows, cols=k)
    sol = solve_linear(system, rhs)
    if sol is None:
        raise InvalidCocycleError("residual system has no solution")
    return NecessityResult(tuple(sol), rank(system), k)
