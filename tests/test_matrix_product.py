"""The row-sparse ``ExactMatrix`` product against the product it replaced
(``matrix_oracles.dot_product``, one ``rings.dot`` per entry), value and type
alike, and the shape of the results that ``matrix`` builds without the
checks of the public constructor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_oracles import dot_product
from spinorlab.matrix import ExactMatrix, ShapeError, standard_omega
from spinorlab.rings import LaurentPoly, MultiPoly

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals), max_size=3
).map(lambda ts: MultiPoly(("a", "b"), dict(ts)))
laurents = st.dictionaries(st.integers(-2, 2), polys, max_size=2).map(
    lambda cs: LaurentPoly("z", cs)
)
zeros = st.sampled_from([0, 0, 0, Fraction(0), MultiPoly.const(0), LaurentPoly("z", {})])
VALUES = {
    "int": st.integers(-3, 3),
    "fraction": rationals,
    "multipoly": polys,
    "laurent": laurents,
    "mixed": st.one_of(st.integers(-3, 3), rationals, polys, laurents),
}


def matrices(rows, cols, kind):
    """rows x cols matrices whose entries are zeros (of every type) about
    half the time and values of the given kind otherwise."""
    entry = st.one_of(zeros, VALUES[kind])
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda rs: ExactMatrix(rs, cols=cols))


def exactly_equal(A, B):
    """Same shape, and entry by entry equal values of the same type."""
    return (A.rows, A.cols) == (B.rows, B.cols) and all(
        type(x) is type(y) and x == y
        for ra, rb in zip(A.entries, B.entries)
        for x, y in zip(ra, rb)
    )


def well_formed(M):
    """What the public constructor would build from M's entries."""
    return (
        type(M.entries) is tuple
        and all(type(r) is tuple and len(r) == M.cols for r in M.entries)
        and M.rows == len(M.entries)
        and M == ExactMatrix(M.entries, cols=M.cols)
    )


@given(st.data(), st.sampled_from(sorted(VALUES)))
@settings(max_examples=300, deadline=None)
def test_product_matches_dot_per_entry(data, kind):
    m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = data.draw(matrices(m, k, kind))
    B = data.draw(matrices(k, n, kind))
    got = A * B
    assert exactly_equal(got, dot_product(A, B))
    assert well_formed(got)


def test_empty_shapes():
    for m, k, n in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 2, 0)]:
        A = ExactMatrix([[1] * k for _ in range(m)], cols=k)
        B = ExactMatrix([[2] * n for _ in range(k)], cols=n)
        got = A * B
        assert (got.rows, got.cols) == (m, n) and well_formed(got)
        assert exactly_equal(got, dot_product(A, B))
        if k == 0:
            assert all(type(x) is int and x == 0 for r in got.entries for x in r)


def test_sparse_rows_pair_with_their_own_row():
    # each nonzero a_ik must meet row k of B, whatever the zeros around it
    A = ExactMatrix([[0, 2, 0], [3, 0, 0], [0, 0, 0], [0, 0, 5]])
    B = ExactMatrix([[1, 0], [0, 7], [11, 13]])
    assert (A * B).entries == ((0, 14), (3, 0), (0, 0), (55, 65))


def test_sums_start_from_the_first_product(monkeypatch):
    # a sum started from int 0 would build MultiPoly.const(0) through __radd__
    def no_radd(self, other):
        raise AssertionError("int + MultiPoly")

    monkeypatch.setattr(MultiPoly, "__radd__", no_radd)
    x = MultiPoly.var("x")
    A = ExactMatrix([[0, x, x], [0, 0, 0]])
    B = ExactMatrix([[x, 1], [2, 1], [x, 0]])
    got = A * B
    assert got.entries == ((2 * x + x * x, x), (0, 0))
    assert type(got[1, 0]) is int


@given(st.data(), st.sampled_from(sorted(VALUES)))
@settings(max_examples=100, deadline=None)
def test_internal_results_are_well_formed(data, kind):
    m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    A = data.draw(matrices(m, n, kind))
    B = data.draw(matrices(m, n, kind))
    c = data.draw(VALUES[kind])
    results = [A + B, A - B, -A, A.scale(c), A.transpose(), A.transpose().transpose()]
    results.append(ExactMatrix.from_blocks([[A, B], [B, A]]))
    results.append(ExactMatrix.from_blocks([[A], [B]]))
    assert all(well_formed(R) for R in results)
    assert A.transpose().transpose() == A
    assert ExactMatrix.from_blocks([[A, B]]).entries == tuple(
        ra + rb for ra, rb in zip(A.entries, B.entries)
    )


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ShapeError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        ExactMatrix([[1, 2]], cols=3)
    M = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        ExactMatrix.from_blocks([[M, ExactMatrix.zeros(3, 1)]])
    with pytest.raises(ShapeError):
        ExactMatrix.from_blocks([[M], [ExactMatrix.zeros(1, 3)]])
    # ShapeError is a ValueError, so older handlers still catch it
    with pytest.raises(ValueError):
        ExactMatrix.from_blocks([[M, ExactMatrix.zeros(1, 1)]])
    with pytest.raises(ShapeError):
        M * ExactMatrix.zeros(3, 2)


def test_standard_omega_is_one_instance_per_n():
    assert standard_omega(3) is standard_omega(3)
    assert standard_omega(2) == ExactMatrix(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    )
