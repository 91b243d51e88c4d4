"""Graded symplectic models and the scaling-limit computation: conjugating a
Higgs field by the weight torus, deciding existence of the limit as the
scaling parameter degenerates, and the weight-two identity of the fixed
component.

The grading has one slot of weight 1, a middle block of weight 0, and one
slot of weight -1; the symplectic form pairs the two line slots and restricts
to the middle block, so the weight torus g_s = diag(s^w) preserves it as an
exact Laurent identity.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .matrix import ExactMatrix, is_symplectic, line_block_form, rank
from .rings import LaurentPoly, is_zero

_S = "s"
_LAM = "lam"


def graded_omega(n: int) -> ExactMatrix:
    """Line pairing between the weight +1 and -1 slots plus the interleaved
    form on the weight-0 block."""
    if n < 1:
        raise ValueError("need n >= 1")
    return line_block_form(n)


def graded_weights(n: int) -> tuple:
    return tuple([1] + [0] * (2 * n - 2) + [-1])


class GradedHiggsModel(Record):
    def __init__(self, weights: tuple, omega: ExactMatrix, phi: ExactMatrix):
        self._store(locals())
        dim = len(weights)
        if omega.rows != dim or phi.rows != dim or not phi.is_square:
            raise ValueError("dimension mismatch")
        if omega.transpose() != -omega or rank(omega) != dim:
            raise ValueError("form is not symplectic: not antisymmetric or degenerate")
        ws = sorted(weights)
        if ws != sorted([1] + [0] * (dim - 2) + [-1]):
            raise ValueError("weight multiset must be one +1, one -1, rest 0")
        for i in range(dim):
            for j in range(dim):
                x = omega.entries[i][j]
                if not is_zero(x):
                    if weights[i] + weights[j] != 0:
                        raise ValueError("form pairs slots of nonzero total weight")

    @property
    def dim(self) -> int:
        return len(self.weights)


def graded_model(n: int, phi: ExactMatrix) -> GradedHiggsModel:
    return GradedHiggsModel(graded_weights(n), graded_omega(n), phi)


def strictly_filtered_phi(n: int, scale=1) -> ExactMatrix:
    """A Higgs field killing the coisotropic step and mapping the weight -1
    line into the weight +1 line: the shape the limit argument produces."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    rows[0][2 * n - 1] = scale
    return ExactMatrix(rows)


def weight_torus(model: GradedHiggsModel, inverse: bool = False) -> ExactMatrix:
    """g_s = diag(s^{w_i}) over the Laurent ring (or its inverse)."""
    sgn = -1 if inverse else 1
    return ExactMatrix.diag(
        [LaurentPoly.term(_S, sgn * w, 1) for w in model.weights]
    )


def scaling_conjugate(model: GradedHiggsModel, include_inverse_square: bool = True) -> ExactMatrix:
    """Entries phi_ij * s^(w_i - w_j - 2*delta), delta = 1 when the inverse
    square factor is included: the matrix g_s (s^-2 phi) g_s^-1."""
    delta = 2 if include_inverse_square else 0
    dim = model.dim
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            c = model.phi.entries[i][j]
            if c == 0:
                row.append(LaurentPoly(_S, {}))
            else:
                row.append(LaurentPoly.term(_S, model.weights[i] - model.weights[j] - delta, c))
        rows.append(row)
    return ExactMatrix(rows)


def bb_limit(model: GradedHiggsModel):
    """The value at s = 0 of the conjugated-and-rescaled family, or None when
    some entry has a pole in s."""
    scaled = scaling_conjugate(model, include_inverse_square=True)
    for row in scaled.entries:
        for p in row:
            if not p.is_zero and not p.is_regular:
                return None
    return ExactMatrix(
        [[p.coefficient(0).constant_value() if not p.is_zero else Fraction(0) for p in row]
         for row in scaled.entries]
    )


def fixed_point_scale_check(model: GradedHiggsModel, a) -> bool:
    """g_a phi g_a^{-1} = a^2 phi for a field supported on the block mapping
    the weight -1 slot to the weight +1 slot."""
    if a == 0:
        raise ValueError("scaling parameter must be nonzero")
    for i in range(model.dim):
        for j in range(model.dim):
            if model.phi.entries[i][j] != 0 and (model.weights[i], model.weights[j]) != (1, -1):
                raise ValueError("field must be supported on the weight-2 block")
    a = Fraction(a)
    dim = model.dim
    lhs = ExactMatrix(
        [[model.phi.entries[i][j] * a ** (model.weights[i] - model.weights[j])
          for j in range(dim)] for i in range(dim)]
    )
    return lhs == model.phi.scale(a * a)


def torus_preserves_form(model: GradedHiggsModel) -> bool:
    """g_s^T Omega g_s = Omega as a Laurent identity (weights pair to zero)."""
    return is_symplectic(weight_torus(model), model.omega)


def lambda_family(model: GradedHiggsModel) -> ExactMatrix:
    """The family lam * phi over the Laurent ring in lam."""
    return model.phi.map_entries(lambda c: LaurentPoly.term(_LAM, 1, c))


def lambda_s_conversion_check(model: GradedHiggsModel) -> bool:
    """Substituting lam = s^-2 into lam*phi and conjugating by the weight
    torus reproduces the scaling family with the inverse-square factor."""
    lam = lambda_family(model)
    in_s = lam.map_entries(lambda p: p.substitute_power(_S, -2))
    g = weight_torus(model)
    ginv = weight_torus(model, inverse=True)
    return g * in_s * ginv == scaling_conjugate(model, include_inverse_square=True)
