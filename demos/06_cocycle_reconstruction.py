"""Reconstructing a symplectic bundle from filtered transition data.

A block upper-triangular transition (l, d, a | 0, u, gamma | 0, 0, 1/l)
preserves the standard form exactly when gamma is the theta-dual of d.  The
forward direction is a symbolic identity in the free symbols (l, d_i, a):
every denominator is a power of l, so the residual is computed over Laurent
polynomials in l and is identically zero.  The converse is a linear solve
over Q that recovers the dual block uniquely.
"""

from fractions import Fraction

from spinorlab import necessity_solve, random_symplectic, theta_dual, verify_form_preservation
from spinorlab.cocycle import fresh_symbol_cocycle, middle_theta, perturb_gamma

c = fresh_symbol_cocycle(2, seed=11)
print("blocks: l is the Laurent symbol, d1, d2, a are free symbols;")
print("u is a random exact symplectic matrix")
print("u =")
print(c.u)
print("\ngamma = theta-dual of d:", [str(g) for g in c.gamma])

residual = verify_form_preservation(c)
print("\nresidual v^T Omega v - Omega is identically zero:", residual.is_zero)

bad = perturb_gamma(c)
print("after a unit perturbation of gamma it is not:",
      not verify_form_preservation(bad).is_zero)

print("\nconverse: solve the residual for gamma at rational block data")
u = random_symplectic(1, 5)
d = (Fraction(3), Fraction(-2))
res = necessity_solve(2, Fraction(2), u, d, Fraction(7))
want = theta_dual(d, u, Fraction(2), middle_theta(2))
print("  system rank:", res.system_rank, "of", res.unknowns, "unknowns")
print("  solution equals the theta-dual:", list(res.gamma) == list(want))
