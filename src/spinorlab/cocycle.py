"""Symbolic verification of the block-triangular transition reconstruction.

A transition matrix for the filtered bundle (line, middle symplectic block,
dual line) preserves the local standard form exactly when its mixed column
block gamma is the theta-dual of its mixed row block d; the forward direction
is proved here by a symbolic residual that vanishes identically in the free
symbols (l, d, a), and the converse by solving the residual for gamma.  Of
the residual v^T Omega v - Omega only the two mixed blocks are formed: the
rest is zero by the symplectic check on the middle block and the
antisymmetry of its form (see ``verify_form_preservation``).

Every denominator in these identities is a power of the line transition l,
a nonzero rational or a unit Laurent monomial ``c*l^e`` (a ``LaurentPoly``
whose coefficient is a nonzero constant), so l^-1 = c^-1 l^-e.  The mixed
blocks come down to the vector r = u^T Theta gamma + l^-1 d^T, which is
linear in the entries of gamma and d, and each entry is a sum of terms
q * l^e * m with q rational and m a monomial in the other symbols (for the
cocycles built here, one of d_i or the unknowns ``_g*``).  So r is computed
one term (e, m) at a time on integer vectors (``_residual_forms``): with
u = U / D cleared of denominators and E the lcm of the denominators of the
coefficients of gamma and l^-1 d, D E r = (D u^T Theta)(E gamma) +
D (E l^-1 d) in Python ints.  ``verify_form_preservation`` builds ring
elements only when r is not zero, and ``necessity_solve`` reads its linear
system off the same vectors.

``fresh_symbol_cocycle`` takes gamma from the closed form
gamma = l^-1 u Theta d^T: u^T Theta u = Theta and Theta^2 = -I give
(u^T Theta)^-1 = -u Theta, so it needs no inverse and no rank.
``theta_dual`` keeps the generic route, one rational inverse of u^T Theta,
and is the independent check of ``necessity_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .matrix import (
    ExactMatrix,
    _clear_denominators,
    inverse,
    is_symplectic,
    line_block_form,
    rank,
    random_symplectic,
    solve_linear,
    standard_omega,
)
from .rings import LaurentPoly, MultiPoly, _is_rat, dot


class InvalidCocycleError(ValueError):
    """Singular form, non-symplectic or non-rational middle block, or a line
    transition that is not a nonzero rational or a unit Laurent monomial."""


class ThetaDualError(ValueError):
    """The solved gamma fails the defining theta-dual identity."""


def middle_theta(n: int) -> ExactMatrix:
    """Symplectic form on the rank 2n-2 middle block (interleaved frame)."""
    if n < 2:
        raise ValueError("middle block needs n >= 2")
    return standard_omega(n - 1)


def standard_form(n: int) -> ExactMatrix:
    """Block form [[0,0,1],[0,Theta,0],[-1,0,0]] in the (line, middle, dual
    line) ordering: the pairing <l, s'> - <l', s> + theta(u, u')."""
    if n < 2:
        raise ValueError("middle block needs n >= 2")
    return line_block_form(n)


def _inverse_term(l):
    """``(q, e, var)`` with l^-1 = q * var^e: ``(1/l, 0, None)`` for a
    nonzero rational l, and ``(1/c, -k, x)`` for a unit Laurent monomial
    l = c*x^k with c a nonzero constant; any other l raises
    InvalidCocycleError."""
    if _is_rat(l):
        if l == 0:
            raise InvalidCocycleError("line transition must be invertible")
        return Fraction(l.denominator, l.numerator), 0, None
    if isinstance(l, LaurentPoly) and len(l.coeffs) == 1:
        ((k, c),) = l.coeffs.items()
        if c.is_constant:
            c = c.constant_value()
            return Fraction(c.denominator, c.numerator), -k, l.var
    raise InvalidCocycleError(
        "line transition must be a nonzero rational or a unit Laurent monomial c*x^k"
    )


def _line_inverse(l):
    """l^-1 as a rational or a ``LaurentPoly`` (see ``_inverse_term``)."""
    q, e, var = _inverse_term(l)
    return q if var is None else LaurentPoly(var, {e: q})


@dataclass(frozen=True)
class BlockCocycle:
    """Transition data (l, d, a | u, gamma) for one chart overlap.

    l is the invertible line transition (a nonzero rational or a unit Laurent
    monomial, see ``_line_inverse``), u the exactly symplectic middle
    transition, d the mixed row block, a the line-to-line mixed entry, and
    gamma the mixed column block.
    """

    n: int
    l: object
    u: ExactMatrix
    d: tuple
    a: object
    gamma: tuple

    def __post_init__(self):
        self._check_blocks()
        if not is_symplectic(self.u, middle_theta(self.n)):
            raise InvalidCocycleError("middle block is not symplectic")

    def _check_blocks(self):
        _inverse_term(self.l)
        k = 2 * self.n - 2
        if self.u.rows != k or len(self.d) != k or len(self.gamma) != k:
            raise InvalidCocycleError("block sizes inconsistent with n")

    @classmethod
    def _with_symplectic_u(cls, n, l, u, d, a, gamma) -> "BlockCocycle":
        """Internal constructor for a u already known to preserve
        ``middle_theta(n)``: a u from ``random_symplectic(n - 1, ...)``, which
        checked it against that form, or the u of a cocycle built before.
        Runs every check of ``__post_init__`` but the symplectic one."""
        self = object.__new__(cls)
        for name, value in zip(("n", "l", "u", "d", "a", "gamma"), (n, l, u, d, a, gamma)):
            object.__setattr__(self, name, value)
        self._check_blocks()
        return self


def theta_dual(d, u: ExactMatrix, l, theta: ExactMatrix):
    """The column block gamma characterized by
    theta(gamma s, u u') = <d u', l^{-1} s> for all (u', s).

    Stripping the arbitrary sections, this is the linear system
    u^T Theta gamma = -l^{-1} d^T, so gamma = -l^{-1} (u^T Theta)^{-1} d^T
    from one rational inverse; the result is re-verified against the
    defining identity.
    """
    k = theta.rows
    if rank(theta) != k:
        raise InvalidCocycleError("theta is singular")
    if rank(u) != k:
        raise InvalidCocycleError("u is singular")
    linv = _line_inverse(l)
    system_inv = inverse(u.transpose() * theta)
    gamma = tuple(-(linv * dot(row, d)) for row in system_inv.entries)
    # re-check the defining bilinear identity on the u-basis
    for kk in range(k):
        if dot(gamma, theta.apply(u.col(kk))) != linv * d[kk]:
            raise ThetaDualError("theta-dual failed its defining identity")
    return gamma


def assemble_transition(c: BlockCocycle) -> ExactMatrix:
    """The block upper-triangular matrix with rows
    (l, d, a | 0, u, gamma | 0, 0, l^{-1})."""
    k = 2 * c.n - 2
    top = [c.l] + list(c.d) + [c.a]
    rows = [top]
    for i in range(k):
        rows.append([0] + list(c.u.entries[i]) + [c.gamma[i]])
    rows.append([0] * (k + 1) + [_line_inverse(c.l)])
    return ExactMatrix(rows)


def _laurent_var(entries):
    """The one variable of the nonzero ``LaurentPoly`` values among entries,
    or None; two different ones raise ValueError, as Laurent arithmetic
    does."""
    names = {x.var for x in entries if isinstance(x, LaurentPoly) and x}
    if len(names) > 1:
        raise ValueError(f"mixed Laurent variables {sorted(names)}")
    return names.pop() if names else None


def _terms(x, var):
    """The pairs ``((e, m), q)`` with x = sum q * var^e * m over nonzero
    rationals q, for a value x of the tower: m is a ``MultiPoly`` monomial
    ``((name, exponent), ...)`` in the symbols other than the Laurent
    variable var."""
    if _is_rat(x):
        if x:
            yield (0, ()), x
    elif isinstance(x, LaurentPoly):
        for e, p in x.coeffs.items():
            for (_, m), q in _terms(p, var):
                yield (e, m), q
    elif isinstance(x, MultiPoly):
        if var in x.vars:
            raise ValueError(f"coefficient contains the Laurent variable {var!r}")
        for m, q in x.terms.items():
            yield (0, m), q
    else:
        raise TypeError(f"cannot expand a {type(x).__name__} in the cocycle symbols")


def _element(terms, var):
    """The value sum q * var^e * m of a dict ``{(e, m): q}`` of the pairs of
    ``_terms``: a ``LaurentPoly`` in var, or with var None a ``MultiPoly``,
    or a rational when every m is 1.  Every q is a nonzero ``Fraction`` and
    no m names var, so the polynomials are built as trusted."""
    if var is None and not any(m for _, m in terms):
        return sum(terms.values())
    by_power = {}
    for (e, m), q in terms.items():
        by_power.setdefault(e, {})[m] = q
    polys = {e: MultiPoly._trusted(mq) for e, mq in by_power.items()}
    return polys[0] if var is None else LaurentPoly._trusted(var, polys)


def _times_theta(row):
    """row * Theta for Theta = ``middle_theta``, the interleaved standard
    form: (x0, x1, x2, x3, ...) -> (-x1, x0, -x3, x2, ...)."""
    out = []
    for x, y in zip(row[0::2], row[1::2]):
        out += (-y, x)
    return out


def _residual_forms(c: BlockCocycle):
    """``(forms, den, var)`` for the vector r = u^T Theta gamma + l^-1 d^T of
    c.  var is the Laurent variable (None over Q), and forms maps each term
    (e, m) of some r_i to the ints den * (coefficient of var^e * m in r_i)
    over i; a term that cancels in every r_i is left out, so r is zero
    exactly when forms is empty.

    With u = U / D, W = D u^T Theta = U^T Theta is a matrix of ints (row i
    is column i of U times Theta), and E, the lcm of the denominators of the
    coefficients of gamma and l^-1 d, clears those: den = D E and
    D E r = W (E gamma) + D (E l^-1 d^T), one term at a time.  A u that is
    not rational raises InvalidCocycleError.
    """
    q_inv, e_inv, _ = _inverse_term(c.l)
    var = _laurent_var((c.l, *c.gamma, *c.d))
    k = len(c.d)
    gamma, scaled_d = {}, {}
    for j, g in enumerate(c.gamma):
        for key, q in _terms(g, var):
            gamma.setdefault(key, [0] * k)[j] = q
    for i, di in enumerate(c.d):
        for (e, m), q in _terms(di, var):
            scaled_d.setdefault((e + e_inv, m), [0] * k)[i] = q_inv * q
    E = lcm(*(q.denominator for vec in (*gamma.values(), *scaled_d.values()) for q in vec))
    flat = [x for row in c.u.entries for x in row]
    if not all(map(_is_rat, flat)):
        raise InvalidCocycleError("middle block must be rational")
    U, D = _clear_denominators(flat)
    W = [_times_theta(U[i::k]) for i in range(k)]
    zero = [0] * k
    forms = {}
    for key in {**gamma, **scaled_d}:
        g = [q.numerator * (E // q.denominator) for q in gamma.get(key, zero)]
        r = [
            sum(map(mul, w, g)) + D * q.numerator * (E // q.denominator)
            for w, q in zip(W, scaled_d.get(key, zero))
        ]
        if any(r):
            forms[key] = r
    return forms, D * E, var


def verify_form_preservation(c: BlockCocycle) -> ExactMatrix:
    """Residual v^T Omega v - Omega of v = assemble_transition(c) against
    Omega = standard_form(c.n), over Laurent polynomials in l; identically
    zero exactly when gamma is the theta-dual block.

    Only the entries that can be nonzero are formed.  In blocks of sizes
    (1, k, 1), k = 2n-2, with v = [[l, d, a], [0, u, gamma], [0, 0, l^-1]]
    and Omega = [[0, 0, 1], [0, Theta, 0], [-1, 0, 0]],

        v^T Omega v - Omega = [[0, 0,                  0     ],
                               [0, u^T Theta u - Theta, r     ],
                               [0, -r^T,               corner]]

    with the k-vector r = u^T Theta gamma + l^-1 d^T; the (2, 1) block is
    gamma^T Theta u - l^-1 d = -r^T because Theta is antisymmetric.  The
    middle block is zero because ``BlockCocycle`` checked that u preserves
    Theta, and corner = gamma^T Theta gamma + a l^-1 - l^-1 a is zero over a
    commutative ring, again because Theta is antisymmetric.  So entry
    [1+i][k+1] is r_i, entry [k+1][1+j] is -r_j, and every other entry is 0.

    r is decided on the integer vectors of ``_residual_forms``: when it is
    zero the result is the zero matrix of ints, and otherwise each r_i is
    built from them (see ``_element``).
    """
    k = 2 * c.n - 2
    forms, den, var = _residual_forms(c)
    if not forms:
        return ExactMatrix.zeros(k + 2, k + 2)
    r = [
        _element({key: Fraction(vec[i], den) for key, vec in forms.items() if vec[i]}, var)
        for i in range(k)
    ]
    rows = [[0] * (k + 2)]
    rows.extend([0] * (k + 1) + [ri] for ri in r)
    rows.append([0] + [-ri for ri in r] + [0])
    return ExactMatrix(rows)


def fresh_symbol_cocycle(n: int, seed: int, gamma: tuple | None = None) -> BlockCocycle:
    """Cocycle with fresh symbols for (l, d, a), a seeded random exact
    symplectic middle block, and gamma defaulting to the theta-dual.

    l is the Laurent monomial ``LaurentPoly("l", {1: 1})`` and d, a are
    ``MultiPoly`` symbols, so gamma and l^{-1} are Laurent polynomials in l
    with coefficients in (d, a).  A fully symbolic symplectic u has no free
    polynomial parametrization, so u is sampled; identities polynomial in
    (l, l^{-1}, d, a) are verified universally per sample.  The theta-dual
    is the closed form gamma = l^-1 u Theta d^T (see the module docstring),
    built term by term.
    """
    k = 2 * n - 2
    l = LaurentPoly("l", {1: 1})
    names = [f"d{i+1}" for i in range(k)]
    d = tuple(MultiPoly.var(nm) for nm in names)
    a = MultiPoly.var("a")
    # random_symplectic checked u against standard_omega(n - 1) = middle_theta(n)
    u = random_symplectic(n - 1, seed)
    if gamma is None:
        q, e, var = _inverse_term(l)
        gamma = tuple(
            _element({(e, ((nm, 1),)): q * x for nm, x in zip(names, row) if x}, var)
            for row in map(_times_theta, u.entries)
        )
    return BlockCocycle._with_symplectic_u(n, l, u, d, a, gamma)


def perturb_gamma(c: BlockCocycle, slot: int = 0, amount=1) -> BlockCocycle:
    """c with amount added to gamma[slot]; u is c's, already checked."""
    gamma = list(c.gamma)
    gamma[slot] = gamma[slot] + amount
    return BlockCocycle._with_symplectic_u(c.n, c.l, c.u, c.d, c.a, tuple(gamma))


@dataclass(frozen=True)
class NecessityResult:
    gamma: tuple
    system_rank: int
    unknowns: int

    @property
    def unique(self) -> bool:
        return self.system_rank == self.unknowns


def necessity_solve(n: int, l, u: ExactMatrix, d, a) -> NecessityResult:
    """Treat gamma as unknown symbols ``_g0, _g1, ...``, expand the residual
    r in them, and solve the linear system it gives: row i holds the
    coefficients of the unknowns in r_i and its right side is minus the
    constant term of r_i, read off the integer vectors of
    ``_residual_forms`` (both scaled by the same den).  For rational
    (l, u, d, a) these are the only terms; any other raises
    InvalidCocycleError.  The unique solution must reproduce theta_dual."""
    if not _is_rat(l):
        raise InvalidCocycleError("necessity solve needs a rational line transition")
    k = 2 * n - 2
    names = [f"_g{i}" for i in range(k)]
    syms = tuple(MultiPoly.var(nm) for nm in names)
    forms, _, _ = _residual_forms(BlockCocycle(n, l, u, tuple(d), a, syms))
    const_key = (0, ())
    unknown_keys = [(0, ((nm, 1),)) for nm in names]
    if not forms.keys() <= {const_key, *unknown_keys}:
        raise InvalidCocycleError("necessity solve needs rational block data")
    zero = [0] * k
    cols = [forms.get(key, zero) for key in unknown_keys]
    const = forms.get(const_key, zero)
    rows = []
    rhs = []
    for i in range(k):
        row = [col[i] for col in cols]
        if any(row) or const[i]:
            rows.append(row)
            rhs.append(-const[i])
    system = ExactMatrix(rows, cols=k)
    sol = solve_linear(system, rhs)
    if sol is None:
        raise InvalidCocycleError("residual system has no solution")
    return NecessityResult(tuple(sol), rank(system), k)
