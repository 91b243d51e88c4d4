"""Ring-law and structure tests for the exact coefficient tower."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_oracles import split_linear
from spinorlab.matrix import ExactMatrix, random_symplectic_laurent
from spinorlab.rings import Dual, FracElem, LaurentPoly, MultiPoly, dot, is_zero

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def polys(varnames=("a", "b")):
    term = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=3) for _ in varnames]),
        rationals,
    )
    return st.lists(term, max_size=4).map(
        lambda ts: MultiPoly(varnames, {e: c for e, c in ts})
    )


class TestMultiPoly:
    def test_construction_normalizes(self):
        p = MultiPoly(("y", "x"), {(0, 2): 3, (1, 0): 0})
        assert p.vars == ("x",)
        assert p.terms == {(("x", 2),): Fraction(3)}
        q = MultiPoly(("y", "x"), {(1, 2): 1, (0, 0): Fraction(1, 2), (2, 0): 3, (0, 1): 0})
        assert q.vars == ("x", "y")
        assert q.terms == {(("x", 2), ("y", 1)): 1, (): Fraction(1, 2), (("y", 2),): 3}
        r = MultiPoly(("x", "y"), {(1, 1): 2, (1, 0): -1}) - MultiPoly(("y", "x"), {(1, 1): 2})
        assert r == -MultiPoly.var("x") and r.terms == {(("x", 1),): -1}

    def test_repeated_names_or_bad_exponents_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            MultiPoly(("x", "x"), {(1, 2): 1})
        with pytest.raises(ValueError, match="repeated"):
            MultiPoly(("x", "y", "x"), {})
        for bad in (-1, 1.5, Fraction(1, 2)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                MultiPoly(("x",), {(bad,): 1})
        assert MultiPoly(("x",), {(3,): 1}) == MultiPoly.var("x") ** 3

    def test_constant_and_var(self):
        x = MultiPoly.var("x")
        assert (x + 1) * (x - 1) == x * x - 1
        assert MultiPoly.const(0).is_zero

    def test_cross_variable_arithmetic(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = (x + y) ** 2
        assert p == x * x + 2 * x * y + y * y
        assert p.coeff({"x": 1, "y": 1}) == 2

    def test_substitute(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = x * x * y + 3 * y
        assert p.substitute({"x": Fraction(2)}) == 7 * y
        assert p.substitute({"x": 2, "y": 1}) == 7
        assert p.substitute({"x": y}) == y ** 3 + 3 * y

    def test_coeffs_in(self):
        x, t = MultiPoly.var("x"), MultiPoly.var("t")
        p = x * x * t + 2 * x - 5
        cs = p.coeffs_in("x")
        assert cs[2] == t and cs[1] == 2 and cs[0] == -5

    def test_split_linear(self):
        x, u = MultiPoly.var("x"), MultiPoly.var("u")
        const, lin = split_linear(x + 3 * u * x + 7, ["u"])
        assert const == x + 7
        assert lin["u"] == 3 * x
        with pytest.raises(ValueError):
            split_linear(u * u, ["u"])

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + MultiPoly.const(0) == p
        assert p * MultiPoly.const(1) == p


def _normal(r):
    """Whether r is in the monomial normal form and is exactly what the
    public constructor builds from its terms laid out over ``r.vars``."""
    names = r.vars
    aligned = {tuple(dict(m).get(nm, 0) for nm in names): c for m, c in r.terms.items()}
    rebuilt = MultiPoly(names, aligned)
    return (
        r.terms == rebuilt.terms
        and hash(r) == hash(rebuilt)
        and all(type(c) is Fraction and c != 0 for c in r.terms.values())
        and all(
            type(m) is tuple
            and list(m) == sorted(m)
            and len({nm for nm, _ in m}) == len(m)
            and all(type(nm) is str and type(k) is int and k > 0 for nm, k in m)
            for m in r.terms
        )
    )


class TestTrustedConstructor:
    """Arithmetic results skip ``MultiPoly.__init__``; they must still be in
    normal form: monomials sorted by name with distinct names and positive
    exponents (so no unused variable), nonzero Fraction coefficients."""

    def test_cancelled_variable_is_pruned(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        r = x * y - x * y + x
        assert r.vars == ("x",) and _normal(r)
        assert (x * y - x * y).vars == () and (x * y - x * y).is_zero
        assert _normal(MultiPoly.const(0)) and _normal(MultiPoly.const(Fraction(3, 2)))
        assert _normal(MultiPoly.var("z"))

    @given(
        polys(("x", "y")),
        polys(("y", "z")),
        polys(("w", "x", "z")),
        st.one_of(st.integers(min_value=-3, max_value=3), rationals),
    )
    @settings(max_examples=150, deadline=None)
    def test_results_are_normal(self, p, q, r, c):
        results = [p + q, p - q, q - q, -p, c * p, p * c, p * q, q * r, (p + r) - p, p * q - q * p]
        results += [
            part for f in (p, q * r) for v in ("w", "x", "y", "z") for part in f.coeffs_in(v).values()
        ]
        assert all(_normal(res) for res in results)

class TestFracElem:
    def test_equality_by_cross_multiplication(self):
        x = MultiPoly.var("x")
        a = FracElem(x * x - 1, x - 1 + MultiPoly.const(0))
        b = FracElem(x + 1)
        # (x^2-1)/(x-1) == (x+1)/1 without any polynomial division
        assert a == b

    def test_reciprocal_product_is_one(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        f = FracElem(x + 2 * y, y ** 2 + 1)
        assert f * f.reciprocal() == FracElem(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FracElem(1, MultiPoly.const(0))

    def test_monomial_strip_keeps_denominators_flat(self):
        l = MultiPoly.var("l")
        f = FracElem(l ** 3 + l ** 2, l ** 2)
        assert f.den == 1
        assert f.num == l + 1

    @given(polys(("u", "v")), polys(("u", "v")))
    @settings(max_examples=40, deadline=None)
    def test_field_laws(self, p, q):
        d = MultiPoly.var("u") ** 2 + 1  # never zero, avoids rejection logic
        a = FracElem(p, d)
        b = FracElem(q, d)
        assert a + b == FracElem(p + q, d)
        assert a - a == 0
        if not q.is_zero:
            assert (a / b) * b == a

    def test_constant_denominator_left_by_the_strip_is_folded(self):
        x = MultiPoly.var("x")
        f = FracElem(x, 2 * x)  # strips to 1/2
        assert f.den == 1 and f.num == Fraction(1, 2)
        assert repr(f) == repr(FracElem(1, 2)) == "1/2"
        assert f == FracElem(1, 2)

    def test_equivalence_relation(self):
        x = MultiPoly.var("x")
        a = FracElem(x, x * x)  # strips to 1/x
        b = FracElem(2 * x, 2 * x * x)
        c = FracElem(1, x)
        assert a == b and b == c and a == c


class TestLaurentPoly:
    def test_ord_and_regularity(self):
        z = LaurentPoly.term("z", 1)
        p = z ** 3 + LaurentPoly.term("z", -2, 5)
        assert p.ord() == -2
        assert not p.is_regular
        assert (z ** 2).is_regular
        assert LaurentPoly("z").is_regular  # zero counts as regular

    def test_ord_of_zero_raises(self):
        with pytest.raises(ValueError):
            LaurentPoly("z").ord()

    @given(
        st.lists(st.tuples(st.integers(-4, 4), rationals), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-4, 4), rationals), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ord_additive(self, t1, t2):
        p = LaurentPoly("z", {k: c for k, c in t1})
        q = LaurentPoly("z", {k: c for k, c in t2})
        if p.is_zero or q.is_zero:
            return
        assert (p * q).ord() == p.ord() + q.ord()

    @given(
        st.lists(st.tuples(st.integers(-4, 4), polys()), max_size=4),
        st.one_of(rationals, st.integers(-9, 9)),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_product_matches_convolution(self, terms, c):
        """A rational factor scales the coefficients; the product equals the
        convolution with a constant, with the same coefficient types."""
        p = LaurentPoly("z", {k: q for k, q in terms})
        want = p * LaurentPoly.const("z", c)

        def shape(f):
            return {k: (q.vars, {e: (type(v), v) for e, v in q.terms.items()})
                    for k, q in f.coeffs.items()}

        for got in (p * c, c * p):
            assert type(got) is LaurentPoly and got.var == "z"
            assert got == want and shape(got) == shape(want)
            assert all(type(q) is MultiPoly for q in got.coeffs.values())

    def test_coefficients_carry_other_variables(self):
        t = MultiPoly.var("t")
        z = LaurentPoly.term("z", 1)
        h = 1 + LaurentPoly.term("z", -2, t)
        assert h.coefficient(-2) == t
        assert (h * z ** 2).is_regular

    def test_substitute_power(self):
        lam = LaurentPoly.term("lam", 1, 3)
        assert lam.substitute_power("s", -2) == LaurentPoly.term("s", -2, 3)

    @pytest.mark.parametrize("exponent", [0.5, 1.5, "2"])
    def test_exponent_that_is_not_an_int_rejected(self, exponent):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPoly("z", {exponent: 1})

    def test_mixing_laurent_var_into_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly("z", {0: MultiPoly.var("z")})
        # neither a product nor a sum may smuggle it in
        z = MultiPoly.var("z")
        for op in (lambda p: p * z, lambda p: z * p, lambda p: p + z, lambda p: p - z):
            with pytest.raises(ValueError):
                op(LaurentPoly.term("z", 1, 2))


class TestLaurentEquality:
    """``==`` compares by value and never raises; arithmetic on mixed
    variables still does."""

    def test_constants_in_other_variables(self):
        one_z, one_s = LaurentPoly.const("z", 1), LaurentPoly.const("s", 1)
        assert one_z == one_s and hash(one_z) == hash(one_s)
        assert len({one_z, one_s}) == 1
        t = MultiPoly.var("t")
        assert LaurentPoly.const("z", t) == LaurentPoly.const("s", t)
        assert LaurentPoly("z", {}) == LaurentPoly("s", {})
        assert one_z != LaurentPoly.const("s", 2)
        assert LaurentPoly.term("z", 1) != LaurentPoly.term("s", 1)
        assert LaurentPoly.term("z", 1) != one_s and one_s != LaurentPoly.term("z", 1)
        with pytest.raises(ValueError, match="mixed Laurent"):
            one_z + LaurentPoly.term("s", 1)

    def test_polynomial_in_the_laurent_variable_is_unequal(self):
        z = LaurentPoly("z", {1: 1})
        assert (z == MultiPoly.var("z")) is False
        assert (MultiPoly.var("z") == z) is False
        assert z not in [MultiPoly.var("z")]
        assert LaurentPoly.const("z", MultiPoly.var("t")) == MultiPoly.var("t")
        with pytest.raises(ValueError):
            z + MultiPoly.var("z")


class TestEdgeCases:
    def test_power_zero_and_one(self):
        x = MultiPoly.var("x")
        assert x ** 0 == 1
        assert x ** 1 == x
        z = LaurentPoly.term("z", -3, 2)
        assert z ** 0 == 1
        assert z ** 2 == LaurentPoly.term("z", -6, 4)

    def test_negative_power_fraction(self):
        x = MultiPoly.var("x")
        f = FracElem(x, x + 1)
        assert f ** -1 == FracElem(x + 1, x)
        assert f ** -2 == (f ** 2).reciprocal()

    def test_constant_hash_matches_rational(self):
        assert hash(MultiPoly.const(3)) == hash(3)
        assert hash(LaurentPoly.const("z", Fraction(5, 2))) == hash(Fraction(5, 2))

    def test_fracelem_unhashable(self):
        with pytest.raises(TypeError):
            hash(FracElem(MultiPoly.var("x")))

    def test_division_by_zero_rejected(self):
        x = MultiPoly.var("x")
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            FracElem(0).reciprocal()

    def test_monomial_pow_exponent_validation(self):
        with pytest.raises(ValueError):
            MultiPoly.var("x") ** -1
        with pytest.raises(ValueError):
            LaurentPoly.term("z", 1) ** -1


class TestDual:
    def test_first_order_product(self):
        d = Dual(Fraction(2), Fraction(3))
        e = Dual(Fraction(5), Fraction(7))
        assert d * e == Dual(Fraction(10), Fraction(2 * 7 + 3 * 5))

    def test_square_extracts_derivative_of_quadratic(self):
        # f(x) = x^2 at x=a with velocity v: eps part must be 2av
        a, v = Fraction(3), Fraction(4)
        assert (Dual(a, v) * Dual(a, v)).eps == 2 * a * v

    def test_polynomial_components(self):
        x = MultiPoly.var("x")
        d = Dual(x, MultiPoly.const(1))
        assert (d * d).eps == 2 * x


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


def _entry_types(value):
    """The types of a matrix's entries, or of a polynomial's term keys and coefficients."""
    if isinstance(value, ExactMatrix):
        return [type(x) for row in value.entries for x in row]
    return [(type(k), type(c)) for k, c in value.terms.items()]


class TestFracElemAndDualRoundTrips:
    """``pickle``, ``copy.copy`` and ``copy.deepcopy`` rebuild a value of
    the package slot by slot, never through ``__setattr__``, and give back
    the same parts."""

    @pytest.mark.parametrize("round_trip", [_pickled, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_frac_elem(self, round_trip):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        for f in (
            FracElem(x, x + 1),  # a denominator that is not constant
            FracElem(2 * x * y + 4 * x, 6 * x * x * y + y + 1),
            FracElem(x ** 3 + x ** 2, 3 * x ** 2 + x),  # stripped on construction
            FracElem(x, 2 * x),  # folds to the constant 1/2
            FracElem(0, x),
        ):
            again = round_trip(f)
            assert type(again) is FracElem
            assert again == f and repr(again) == repr(f)
            assert again.num.terms == f.num.terms and again.den.terms == f.den.terms

    @pytest.mark.parametrize("round_trip", [_pickled, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_dual(self, round_trip):
        x = MultiPoly.var("x")
        for d in (Dual(1, 2), Dual(Fraction(1, 3)), Dual(x, FracElem(x, x + 1))):
            again = round_trip(d)
            assert type(again) is Dual
            assert again == d and repr(again) == repr(d)
            assert (again.re, again.eps) == (d.re, d.eps)
            assert type(again.eps) is type(d.eps)

    @pytest.mark.parametrize("round_trip", [_pickled, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ExactMatrix([[1, -2, 0], [0, 3, 4]]),
            lambda: ExactMatrix([[Fraction(1, 2), 0], [Fraction(-3, 7), Fraction(5)]]),
            lambda: random_symplectic_laurent(2, 1),
            lambda: MultiPoly(("x", "y"), {(2, 1): 3, (0, 3): Fraction(1, 2), (0, 0): -1}),
            lambda: LaurentPoly("z", {-2: MultiPoly.var("t"), 0: 3, 1: Fraction(1, 4)}),
        ],
        ids=["int-matrix", "fraction-matrix", "laurent-matrix", "multipoly", "laurentpoly"],
    )
    def test_value(self, make, round_trip):
        value = make()
        again = round_trip(value)
        assert type(again) is type(value)
        assert again == value
        for slot in type(value).__slots__:
            assert getattr(again, slot) == getattr(value, slot)
        assert _entry_types(again) == _entry_types(value)


class TestDot:
    def test_all_zero_pairs_give_int_zero(self):
        x = MultiPoly.var("x")
        for xs, ys in [
            ([], []),
            ([0, Fraction(0), MultiPoly.const(0)], [x, 3, x]),
            ([x, LaurentPoly("z", {}), 2], [MultiPoly.const(0), LaurentPoly.term("z", 1), 0]),
        ]:
            got = dot(xs, ys)
            assert type(got) is int and got == 0

    def test_ring_factors_keep_their_type(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        cases = [
            [x + 1, 0, y], [x, -2 * y, 3],
            [FracElem(x, y), FracElem(0), FracElem(1, x + 1)], [FracElem(y), x, 2],
            [LaurentPoly("z", {-1: x}), LaurentPoly("z", {}), LaurentPoly.term("z", 2, 3)],
            [LaurentPoly.term("z", 1), 5, LaurentPoly("z", {0: y, 1: 1})],
        ]
        for xs, ys in zip(cases[::2], cases[1::2]):
            got = dot(xs, ys)
            assert type(got) is type(xs[0])
            brute = xs[0] * ys[0]
            for a, b in zip(xs[1:], ys[1:]):
                brute = brute + a * b
            assert got == brute

    def test_sum_starts_from_the_first_product(self, monkeypatch):
        # a sum started from int 0 would build MultiPoly.const(0) through __radd__
        def no_radd(self, other):
            raise AssertionError("int + MultiPoly")

        monkeypatch.setattr(MultiPoly, "__radd__", no_radd)
        x = MultiPoly.var("x")
        assert dot([0, x, x], [x, 2, x]) == 2 * x + x * x


def laurents(var="z"):
    return st.dictionaries(st.integers(-3, 3), polys(), max_size=3).map(
        lambda cs: LaurentPoly(var, cs)
    )


# a factor of ``dot``: any value of the tower, zeros of every type included
factors = st.one_of(
    st.integers(-3, 3),
    rationals,
    st.sampled_from([0, Fraction(0), MultiPoly.const(0), LaurentPoly("z", {})]),
    polys(),
    laurents(),
)


def unskipped_sum(xs, ys):
    """Sum of every product x*y, zero products included, from int 0."""
    total = 0
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


class TestTruthiness:
    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_multipoly_is_falsy_exactly_when_zero(self, p):
        assert bool(p) == (not p.is_zero)
        assert not (p - p) and (p - p).is_zero

    @given(laurents())
    @settings(max_examples=60, deadline=None)
    def test_laurent_is_falsy_exactly_when_zero(self, p):
        assert bool(p) == (not p.is_zero)
        assert not (p - p) and (p - p).is_zero

    def test_zero_of_each_type(self):
        x = MultiPoly.var("x")
        for zero in (MultiPoly.const(0), LaurentPoly("z", {}), FracElem(0), FracElem(x - x, x),
                     Dual(0, 0), Dual(MultiPoly.const(0), Fraction(0))):
            assert not zero and zero.is_zero and is_zero(zero)
        for nonzero in (x, MultiPoly.const(Fraction(1, 2)), LaurentPoly.term("z", -1),
                        FracElem(1, x), Dual(0, x), Dual(x, 0)):
            assert nonzero and not nonzero.is_zero and not is_zero(nonzero)

    @given(st.lists(st.tuples(factors, factors), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_dot_equals_the_unskipped_sum(self, pairs):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        assert dot(xs, ys) == unskipped_sum(xs, ys)

    @given(st.lists(st.tuples(factors, factors), max_size=6), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_dot_of_zero_pairs_is_int_zero(self, pairs, rnd):
        # zero one factor of every pair, on a side chosen per pair
        zero = [0, Fraction(0), MultiPoly.const(0), LaurentPoly("z", {})]
        xs, ys = [], []
        for x, y in pairs:
            if rnd.random() < 0.5:
                x = rnd.choice(zero)
            else:
                y = rnd.choice(zero)
            xs.append(x)
            ys.append(y)
        got = dot(xs, ys)
        assert type(got) is int and got == 0


def _laurent_normal(r):
    """Whether r is exactly what the checking constructor builds from it:
    int exponents, nonzero MultiPoly coefficients free of the Laurent
    variable, in the same order."""
    rebuilt = LaurentPoly(r.var, r.coeffs)
    return (
        type(r) is LaurentPoly
        and r == rebuilt
        and list(r.coeffs) == list(rebuilt.coeffs)
        and hash(r) == hash(rebuilt)
        and all(
            type(k) is int and type(c) is MultiPoly and c and r.var not in c.vars
            for k, c in r.coeffs.items()
        )
    )


class TestLaurentTrusted:
    """Laurent arithmetic results skip ``LaurentPoly.__init__``; they must
    still be what it would build."""

    @given(
        laurents(),
        laurents(),
        polys(),
        st.one_of(st.integers(min_value=-3, max_value=3), rationals),
    )
    @settings(max_examples=150, deadline=None)
    def test_results_are_normal(self, p, q, m, c):
        results = [p + q, p - q, q - q, -p, p * q, q * p, p * p - p * p, p * c, c * p]
        results += [p * m, m * p, p + m, m + p, p - m, m - p, p + c, c - p, p ** 2]
        assert all(_laurent_normal(r) for r in results)

    @given(laurents(), polys())
    @settings(max_examples=80, deadline=None)
    def test_polynomial_factor_scales_like_the_convolution(self, p, m):
        """A factor free of the Laurent variable scales the coefficients;
        the product equals the convolution with a constant, term order
        included."""
        want = p * LaurentPoly.const("z", m)

        def shape(f):
            return [(k, q.vars, list(q.terms.items())) for k, q in f.coeffs.items()]

        for got in (p * m, m * p):
            assert got == want and shape(got) == shape(want)

    @given(laurents(), st.one_of(st.integers(min_value=-3, max_value=3), rationals, st.booleans()))
    @settings(max_examples=80, deadline=None)
    def test_rational_operand_is_the_checked_constant(self, p, c):
        """A rational operand of ==, + and - becomes, without the checks, the
        constant the checking constructor builds (no term when it is zero)."""
        got, want = p._coerce(c), LaurentPoly(p.var, {0: c})
        assert _laurent_normal(got) and got.coeffs == want.coeffs
        assert (p == c) == (p.coeffs == want.coeffs)
        assert p + c == p + want and p - c == p - want

    def test_polynomial_operand_is_still_checked(self):
        """A MultiPoly operand goes through the checking constructor: free
        of the Laurent variable it is a constant, and with it it raises."""
        p = LaurentPoly("z", {-1: 2, 1: MultiPoly.var("a")})
        a = MultiPoly.var("a") + 1
        assert p._coerce(a).coeffs == {0: a} and p + a == p + LaurentPoly.const("z", a)
        assert p._coerce(MultiPoly.const(0)).coeffs == {}
        for op in (p._coerce, p.__add__, p.__sub__):
            with pytest.raises(ValueError):
                op(MultiPoly.var("z") + 1)
        assert p.__eq__(MultiPoly.var("z") + 1) is False

    @pytest.mark.parametrize("k", [0, 2, -1, -3, True])
    @pytest.mark.parametrize("c", [1, -2, 0, True, Fraction(3, 4), Fraction(-5), Fraction(0), MultiPoly.var("a") + 1])
    def test_term_is_the_checked_term(self, k, c):
        """A rational coefficient builds its term without the checks of
        ``__init__``; the term is still the one the checking constructor
        builds, coefficient types and term order included."""
        got, want = LaurentPoly.term("z", k, c), LaurentPoly("z", {k: c})
        assert _laurent_normal(got) and got == want
        assert [(e, type(e), q.terms) for e, q in got.coeffs.items()] == [
            (e, type(e), q.terms) for e, q in want.coeffs.items()
        ]
        assert all(type(x) is Fraction for q in got.coeffs.values() for x in q.terms.values())

    def test_a_rational_term_skips_the_checks(self, monkeypatch):
        cases = [(2, 3), (-1, Fraction(1, 2)), (0, 0)]
        want = [LaurentPoly("z", {k: c}) for k, c in cases]

        def refuse(*args):
            raise AssertionError("checked LaurentPoly.__init__")

        monkeypatch.setattr(LaurentPoly, "__init__", refuse)
        assert [LaurentPoly.term("z", k, c) for k, c in cases] == want

    @pytest.mark.parametrize(
        "k, c",
        [
            (1.0, 2), (Fraction(1), 2), ("1", 2), (None, 0), (1.5, MultiPoly.var("a")),
            (1, MultiPoly.var("z")), (-2, MultiPoly.var("z") * 3 + 1),
        ],
    )
    def test_term_still_rejects_a_non_int_exponent_or_the_laurent_variable(self, k, c):
        with pytest.raises(ValueError):
            LaurentPoly.term("z", k, c)


_POWER_BASES = [
    MultiPoly.var("x") + MultiPoly.var("y") * Fraction(1, 2) - 1,
    LaurentPoly("z", {-2: 3, 1: MultiPoly.var("a")}),
]


@pytest.mark.parametrize("base", _POWER_BASES)
def test_power_is_the_repeated_product(base):
    """Both rings raise to a power through one square-and-multiply loop;
    the repeated product is its oracle."""
    want = base * 0 + 1
    for k in range(9):
        assert base ** k == want
        want = want * base


@pytest.mark.parametrize("base", _POWER_BASES)
@pytest.mark.parametrize("k", [-1, -4, 2.0, Fraction(2), "2", None])
def test_power_rejects_a_negative_or_non_int_exponent(base, k):
    with pytest.raises(ValueError):
        base ** k
