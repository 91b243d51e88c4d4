"""Symbolic verification of the block-triangular transition reconstruction.

A transition matrix for the filtered bundle (line, middle symplectic block,
dual line) preserves the local standard form exactly when its mixed column
block gamma is the theta-dual of its mixed row block d; the forward direction
is proved here by a symbolic residual that vanishes identically in the free
symbols (l, d, a), and the converse by solving the residual for gamma.  Of
the residual v^T Omega v - Omega only the two mixed blocks are formed: the
rest is zero by the symplectic check on the middle block and the
antisymmetry of its form (see ``verify_form_preservation``).

Every denominator in these identities is a power of the line transition l, so
they hold over Laurent polynomials in l: l is a unit monomial ``c*l^k`` (a
``LaurentPoly`` whose coefficient is a nonzero constant) or a nonzero
rational, entries stay in the tower int/Fraction -> MultiPoly -> LaurentPoly,
and the only division is one rational inverse of ``u^T Theta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import (
    ExactMatrix,
    inverse,
    is_symplectic,
    line_block_form,
    rank,
    random_symplectic,
    solve_linear,
    standard_omega,
)
from .rings import LaurentPoly, MultiPoly, _is_rat, as_poly, dot, is_zero


class InvalidCocycleError(ValueError):
    """Singular form, non-symplectic middle block, or a line transition that
    is not a nonzero rational or a unit Laurent monomial."""


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


def _line_inverse(l):
    """l^{-1} for a nonzero rational l, or (1/c)*x^-k for a unit Laurent
    monomial l = c*x^k with c a nonzero constant; any other l raises
    InvalidCocycleError."""
    if _is_rat(l):
        if l == 0:
            raise InvalidCocycleError("line transition must be invertible")
        return 1 / Fraction(l)
    if isinstance(l, LaurentPoly) and len(l.coeffs) == 1:
        ((k, c),) = l.coeffs.items()
        if c.is_constant:
            return LaurentPoly(l.var, {-k: 1 / c.constant_value()})
    raise InvalidCocycleError(
        "line transition must be a nonzero rational or a unit Laurent monomial c*x^k"
    )


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
        _line_inverse(self.l)
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
    """
    k = 2 * c.n - 2
    linv = _line_inverse(c.l)
    theta_gamma = middle_theta(c.n).apply(c.gamma)
    r = [dot(col, theta_gamma) + linv * dj for col, dj in zip(c.u.transpose().entries, c.d)]
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
    (l, l^{-1}, d, a) are verified universally per sample.
    """
    k = 2 * n - 2
    l = LaurentPoly("l", {1: 1})
    d = tuple(MultiPoly.var(f"d{i+1}") for i in range(k))
    a = MultiPoly.var("a")
    # random_symplectic checked u against standard_omega(n - 1) = middle_theta(n)
    u = random_symplectic(n - 1, seed)
    theta = middle_theta(n)
    if gamma is None:
        gamma = theta_dual(d, u, l, theta)
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
    """Treat gamma as unknown symbols, expand the residual, and solve the
    resulting linear system; for rational (l, u, d, a) the residual entries
    are polynomials in the unknowns over Q, and the unique solution must
    reproduce theta_dual."""
    if not _is_rat(l):
        raise InvalidCocycleError("necessity solve needs a rational line transition")
    k = 2 * n - 2
    names = [f"_g{i}" for i in range(k)]
    syms = tuple(MultiPoly.var(nm) for nm in names)
    residual = verify_form_preservation(BlockCocycle(n, l, u, tuple(d), a, syms))
    rows = []
    rhs = []
    for row in residual.entries:
        for x in row:
            if is_zero(x):
                continue
            const, lin = as_poly(x).split_linear(names)
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
