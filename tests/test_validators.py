"""Input validators that guard a verdict or a constructor, each tripped by a
bad input with its typed error and message.

Each case pins the message as well as the type, so deleting the guard makes
its test fail even where the input would go on to raise an error of the
same type further in.  The 0 x 0 characteristic polynomial is the one
guard that returns a value rather than raising.
"""

import pytest

from spinorlab.cocycle import BlockCocycle, InvalidCocycleError, middle_theta, verify_form_preservation
from spinorlab.hecke import TruncatedSeriesVector, hecke_family, symplectic_complete
from spinorlab.lie import MatrixLieAlgebra, sp_standard
from spinorlab.matrix import ExactMatrix, ShapeError, char_poly
from spinorlab.petri import SectionSpace
from spinorlab.rings import LaurentPoly, MultiPoly, as_poly
from spinorlab.rrdim import pair_euler_identity, y_dimension_identity

I2 = ExactMatrix.identity(2)

GUARDS = {
    "cocycle block sizes": (
        lambda: BlockCocycle(2, 1, I2, (0,), 0, (0, 0)),
        InvalidCocycleError, "block sizes inconsistent with n",
    ),
    "middle theta at n = 1": (lambda: middle_theta(1), ValueError, "middle block needs n >= 2"),
    "cocycle entry outside the symbols": (
        lambda: verify_form_preservation(BlockCocycle(2, 1, I2, ("x", 0), 0, (0, 0))),
        TypeError, "cannot expand a str",
    ),
    "odd series vector": (
        lambda: symplectic_complete(TruncatedSeriesVector((1, 0, 0), precision=2)),
        ValueError, "ambient dimension must be even",
    ),
    "hecke family at n = 0": (lambda: hecke_family(0, 1), ValueError, "need n >= 1 and m >= 1"),
    "hecke family at m = 0": (lambda: hecke_family(1, 0), ValueError, "need n >= 1 and m >= 1"),
    "empty basis": (lambda: MatrixLieAlgebra([]), ValueError, "empty basis"),
    "basis of unequal sizes": (
        lambda: MatrixLieAlgebra([I2, ExactMatrix.identity(3)]),
        ValueError, "basis matrices must be square of equal size",
    ),
    "subtraction of unequal shapes": (
        lambda: I2 - ExactMatrix.identity(3), ShapeError, "subtraction shape mismatch",
    ),
    "apply to a short vector": (lambda: I2.apply((1,)), ShapeError, "matrix-vector shape mismatch"),
    "degree bound 0": (lambda: SectionSpace(sp_standard(1), 0), ValueError, "degree bound must be >= 1"),
    "exponent of the wrong length": (
        lambda: MultiPoly(("x",), {(1, 2): 1}), ValueError, "exponent/variable length mismatch",
    ),
    "constant value of x": (
        lambda: MultiPoly.var("x").constant_value(), ValueError, "not a constant polynomial",
    ),
    "str as a polynomial": (lambda: as_poly("x"), TypeError, "cannot coerce str to MultiPoly"),
    "substitute the zeroth power": (
        lambda: LaurentPoly.term("t", 1).substitute_power("s", 0), ValueError, "power must be nonzero",
    ),
    "pair Euler identity at n = 0": (
        lambda: pair_euler_identity(0, 2), ValueError, "need n >= 1 and g >= 2",
    ),
    "Y dimension identity at n = 1": (
        lambda: y_dimension_identity(1, 2), ValueError, "need n >= 2 and g >= 2",
    ),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_bad_input_is_rejected(case):
    build, error, message = GUARDS[case]
    with pytest.raises(error, match=f"^{message}"):
        build()


def test_char_poly_of_the_empty_matrix_is_one():
    assert char_poly(ExactMatrix([])) == [1]
