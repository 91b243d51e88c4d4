"""``in_sp`` by the pair rule against the standard form, checked against the
dense product X^T Omega + Omega X (``dense_in_sp`` in ``matrix_oracles``)
over Fraction, ``MultiPoly`` and ``LaurentPoly`` entries."""

import random
from fractions import Fraction

import pytest

from spinorlab.lie import sp_algebra
from spinorlab.matrix import ExactMatrix, ShapeError, in_sp, line_block_form, standard_omega
from spinorlab.rings import LaurentPoly, MultiPoly

from matrix_oracles import dense_in_sp, laurent_lift


def _fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _multipoly(rng):
    return MultiPoly(("x", "y"), {(a, b): _fraction(rng) for a in range(2) for b in range(2) if rng.random() < 0.5})


def _laurent(rng):
    return LaurentPoly("z", {k: _fraction(rng) for k in range(-1, 2) if rng.random() < 0.6})


RINGS = {"fraction": _fraction, "multipoly": _multipoly, "laurent": _laurent}


def _member(n, draw, rng):
    """A combination of the basis of sp(2n) with coefficients drawn from one
    ring; a zero coefficient may leave rational zeros among ring entries."""
    X = ExactMatrix.zeros(2 * n, 2 * n)
    for B in sp_algebra(n).basis:
        X = X + B.scale(draw(rng))
    return X


def _changed(X, i, j, delta):
    rows = [list(r) for r in X.entries]
    rows[i][j] = rows[i][j] + delta
    return ExactMatrix(rows)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 5))
def test_pair_rule_matches_the_dense_product(ring, n):
    """A member is accepted, and a one-entry change is rejected unless the
    entry is some X[a][a^1]: that entry pairs only with itself, so it is free
    in sp(2n), as b and c are in [[a, b], [c, -a]] of sp(2)."""
    rng = random.Random(n * 31 + sorted(RINGS).index(ring))
    draw = RINGS[ring]
    for _ in range(2):
        X = _member(n, draw, rng)
        assert in_sp(X) and in_sp(X, standard_omega(n)) and dense_in_sp(X)
        for i in range(2 * n):
            for j in range(2 * n):
                for delta in (1, draw(rng) or 1):
                    P = _changed(X, i, j, delta)
                    got = in_sp(P)
                    assert got == dense_in_sp(P) == in_sp(P, standard_omega(n))
                    assert got == (j == i ^ 1)


def test_zero_and_empty_matrices_are_members():
    for n in range(0, 4):
        Z = ExactMatrix.zeros(2 * n, 2 * n)
        assert in_sp(Z) and dense_in_sp(Z)


def test_standard_form_takes_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense product")

    members = [B.scale(LaurentPoly.term("z", -1)) for B in sp_algebra(2).basis]
    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    assert all(in_sp(X) for X in sp_algebra(3).basis)
    assert all(in_sp(X, standard_omega(2)) for X in members)
    assert not in_sp(ExactMatrix.identity(4))
    with pytest.raises(AssertionError, match="dense product"):
        in_sp(ExactMatrix.identity(4), line_block_form(2))


@pytest.mark.parametrize("n", [2, 3])
def test_other_forms_keep_the_dense_verdict(n):
    rng = random.Random(n)
    omega = line_block_form(n)
    for X in (_member(n, _fraction, rng), ExactMatrix.identity(2 * n), ExactMatrix.zeros(2 * n, 2 * n)):
        assert in_sp(X, omega) == dense_in_sp(X, omega)
    lifted = laurent_lift(standard_omega(n), "z")
    for X in (_member(n, _laurent, rng), ExactMatrix.identity(2 * n).scale(LaurentPoly.term("z", 1))):
        assert in_sp(X, lifted) == dense_in_sp(X, lifted) == in_sp(X)


@pytest.mark.parametrize("X, omega", [
    (ExactMatrix.zeros(4, 3), None),
    (ExactMatrix.identity(3), None),
    (ExactMatrix.identity(4), standard_omega(1)),
    (ExactMatrix.zeros(2, 4), standard_omega(1)),
])
def test_other_shapes_raise_the_dense_error(X, omega):
    with pytest.raises(ShapeError) as want:
        dense_in_sp(X, omega)
    with pytest.raises(ShapeError, match=str(want.value)):
        in_sp(X, omega)
