"""Symbolic verification of the block-triangular transition reconstruction.

A transition matrix for the filtered bundle (line, middle symplectic block,
dual line) preserves the local standard form exactly when its mixed column
block gamma is the theta-dual of its mixed row block d; the forward direction
is proved here by a symbolic residual that vanishes identically in the free
symbols (l, d, a), and the converse by solving the residual for gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import ExactMatrix, mat_rank_kernel, random_symplectic, solve_linear, standard_omega
from .rings import FracElem, MultiPoly, dot


class InvalidCocycleError(ValueError):
    """Singular form or non-symplectic middle block."""


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
    k = 2 * n - 2
    theta = middle_theta(n)
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    rows[0][2 * n - 1] = 1
    rows[2 * n - 1][0] = -1
    for i in range(k):
        for j in range(k):
            rows[1 + i][1 + j] = theta.entries[i][j]
    return ExactMatrix(rows)


@dataclass(frozen=True)
class BlockCocycle:
    """Transition data (l, d, a | u, gamma) for one chart overlap.

    l is the invertible line transition, u the exactly symplectic middle
    transition, d the mixed row block, a the line-to-line mixed entry, and
    gamma the mixed column block.
    """

    n: int
    l: FracElem
    u: ExactMatrix
    d: tuple
    a: object
    gamma: tuple

    def __post_init__(self):
        k = 2 * self.n - 2
        if self.u.rows != k or len(self.d) != k or len(self.gamma) != k:
            raise InvalidCocycleError("block sizes inconsistent with n")
        theta = middle_theta(self.n)
        if self.u.transpose() * theta * self.u != theta:
            raise InvalidCocycleError("middle block is not symplectic")
        if self.l.is_zero:
            raise InvalidCocycleError("line transition must be invertible")


def theta_dual(d, u: ExactMatrix, l: FracElem, theta: ExactMatrix):
    """The column block gamma characterized by
    theta(gamma s, u u') = <d u', l^{-1} s> for all (u', s).

    Stripping the arbitrary sections, this is the linear system
    u^T Theta gamma = -l^{-1} d^T, solved over the fraction field and then
    re-verified against the defining identity.
    """
    k = theta.rows
    if mat_rank_kernel(theta)[0] != k:
        raise InvalidCocycleError("theta is singular")
    if mat_rank_kernel(u)[0] != k:
        raise InvalidCocycleError("u is singular")
    l = l if isinstance(l, FracElem) else FracElem(l)
    linv = l.reciprocal()
    system = u.transpose() * theta
    rhs = [-(linv * di) for di in d]
    gamma = solve_linear(system, rhs)
    if gamma is None:
        raise InvalidCocycleError("dual system is inconsistent")
    # re-check the defining bilinear identity on the u-basis
    for kk in range(k):
        lhs = dot(gamma, theta.apply(u.col(kk)))
        if FracElem(0) + lhs != linv * d[kk]:
            raise ThetaDualError("theta-dual failed its defining identity")
    return tuple(gamma)


def assemble_transition(c: BlockCocycle) -> ExactMatrix:
    """The block upper-triangular matrix with rows
    (l, d, a | 0, u, gamma | 0, 0, l^{-1})."""
    k = 2 * c.n - 2
    linv = c.l.reciprocal()
    top = [c.l] + list(c.d) + [c.a]
    rows = [top]
    for i in range(k):
        rows.append([0] + list(c.u.entries[i]) + [c.gamma[i]])
    rows.append([0] * (k + 1) + [linv])
    return ExactMatrix(rows)


def verify_form_preservation(c: BlockCocycle) -> ExactMatrix:
    """Residual v^T Omega_std v - Omega_std over the symbol ring; identically
    zero exactly when gamma is the theta-dual block."""
    v = assemble_transition(c)
    omega = standard_form(c.n)
    return v.transpose() * omega * v - omega


def fresh_symbol_cocycle(n: int, seed: int, gamma: tuple | None = None) -> BlockCocycle:
    """Cocycle with fresh polynomial symbols for (l, d, a), a seeded random
    exact symplectic middle block, and gamma defaulting to the theta-dual.

    A fully symbolic symplectic u has no free polynomial parametrization, so
    u is sampled; identities polynomial in (l, d, a) are verified universally
    per sample.
    """
    k = 2 * n - 2
    l = FracElem(MultiPoly.var("l"))
    d = tuple(MultiPoly.var(f"d{i+1}") for i in range(k))
    a = MultiPoly.var("a")
    u = random_symplectic(n - 1, seed)
    theta = middle_theta(n)
    if gamma is None:
        gamma = theta_dual(d, u, l, theta)
    return BlockCocycle(n, l, u, d, a, gamma)


def perturb_gamma(c: BlockCocycle, slot: int = 0, amount=1) -> BlockCocycle:
    gamma = list(c.gamma)
    gamma[slot] = gamma[slot] + amount
    return BlockCocycle(c.n, c.l, c.u, c.d, c.a, tuple(gamma))


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
    resulting linear system; for rational (l, u, d, a) the unique solution
    must reproduce theta_dual."""
    k = 2 * n - 2
    syms = [MultiPoly.var(f"_g{i}") for i in range(k)]
    c = BlockCocycle(n, FracElem(l), u, tuple(d), a, tuple(syms))
    residual = verify_form_preservation(c)
    names = [f"_g{i}" for i in range(k)]
    rows = []
    rhs = []
    for row in residual.entries:
        for x in row:
            f = x if isinstance(x, FracElem) else FracElem(x)
            num = f.num  # the denominator is a power of l, nonzero
            if num.is_zero:
                continue
            const, lin = num.split_linear(names)
            coeffs = [lin.get(nm, MultiPoly.const(0)) for nm in names]
            if all(cf.is_zero for cf in coeffs) and const.is_zero:
                continue
            if not const.is_constant or any(not cf.is_constant for cf in coeffs):
                raise InvalidCocycleError("necessity solve needs rational block data")
            rows.append([cf.constant_value() for cf in coeffs])
            rhs.append(-const.constant_value())
    system = ExactMatrix(rows, cols=k)
    rank_sys = mat_rank_kernel(system)[0]
    sol = solve_linear(system, rhs)
    if sol is None:
        raise InvalidCocycleError("residual system has no solution")
    return NecessityResult(tuple(sol), rank_sys, k)
