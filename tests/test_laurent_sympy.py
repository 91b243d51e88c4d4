"""``LaurentPoly`` against sympy as an independent oracle.

Laurent polynomials in z are drawn through the public constructor, with
exponents from -3 to 3 and coefficients that are polynomials in a and b,
and the same terms are summed as a sympy expression with negative powers of
z.  Each operation is compared with sympy's expansion of the same
expression; a result is read back only through the public API
(``coeffs``, ``coefficient``), never through the stored layout.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.rings import LaurentPoly, MultiPoly

VAR = "z"
NAMES = ("a", "b")
Z, S = sympy.Symbol(VAR), sympy.Symbol("s")
SYMBOLS = {nm: sympy.Symbol(nm) for nm in NAMES}
# z^SHIFT times any expression drawn or computed here is a polynomial in z
SHIFT = 20

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
coefficients = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3)


def sym(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def frac(c) -> Fraction:
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def poly_to_sympy(p: MultiPoly):
    out = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sym(c)
        for nm, k in m:
            term *= SYMBOLS[nm] ** k
        out += term
    return out


@st.composite
def drawn(draw):
    """A pair (LaurentPoly, sympy expression) built from the same terms."""
    cs = draw(st.dictionaries(st.integers(-3, 3), coefficients, max_size=3))
    expr = sympy.Integer(0)
    for k, terms in cs.items():
        for (i, j), c in terms.items():
            expr += sym(c) * Z ** k * SYMBOLS["a"] ** i * SYMBOLS["b"] ** j
    return LaurentPoly(VAR, {k: MultiPoly(NAMES, t) for k, t in cs.items()}), sympy.expand(expr)


def to_sympy(p: LaurentPoly, var=Z):
    """The value of p read off its public coefficients."""
    return sum((var ** k * poly_to_sympy(c) for k, c in p.coeffs.items()), sympy.Integer(0))


def agrees(p: LaurentPoly, expr, var=Z) -> bool:
    return sympy.expand(to_sympy(p, var) - expr) == 0


def powers(expr) -> list:
    """The exponents of z with a nonzero coefficient in expr, ascending."""
    expr = sympy.expand(expr * Z ** SHIFT)
    if expr == 0:
        return []
    return sorted(d - SHIFT for (d,) in sympy.Poly(expr, Z).as_dict())


def from_sympy(expr) -> LaurentPoly:
    """The public constructor fed sympy's coefficients of each power of z."""
    expr = sympy.expand(expr)
    cs = {}
    for k in powers(expr):
        c = sympy.Poly(expr.coeff(Z, k), *SYMBOLS.values())
        cs[k] = MultiPoly(NAMES, {e: frac(q) for e, q in c.terms() if q})
    return LaurentPoly(VAR, cs)


@given(drawn(), drawn())
@settings(max_examples=80, deadline=None)
def test_arithmetic_matches_sympy(pa, qb):
    (p, a), (q, b) = pa, qb
    # (p + q) * (p - q) cancels its cross terms p*q - q*p
    cases = ((p + q, a + b), (p - q, a - b), (p * q, a * b), (-p, -a), ((p + q) * (p - q), a * a - b * b))
    for got, want in cases:
        assert type(got) is LaurentPoly and got.var == VAR
        assert agrees(got, want)
        rebuilt = from_sympy(want)
        assert got == rebuilt and hash(got) == hash(rebuilt)


@given(drawn(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_small_powers_match_sympy(pa, k):
    p, a = pa
    assert agrees(p ** k, a ** k)


@given(drawn(), drawn())
@settings(max_examples=80, deadline=None)
def test_equality_matches_sympy(pa, qb):
    (p, a), (q, b) = pa, qb
    same = sympy.expand(a - b) == 0
    assert (p == q) is same and (q == p) is same
    assert p == from_sympy(a) and hash(p) == hash(from_sympy(a))
    if powers(a) in ([], [0]):
        # a constant in z equals its coefficient and hashes like it
        c = p.coefficient(0)
        assert p == c and hash(p) == hash(c)


@given(drawn(), st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_coefficients_match_sympy(pa, k):
    p, a = pa
    c = p.coefficient(k)
    assert type(c) is MultiPoly and VAR not in c.vars
    assert sympy.expand(poly_to_sympy(c) - a.coeff(Z, k)) == 0
    assert sorted(p.coeffs) == powers(a)


@given(drawn(), drawn())
@settings(max_examples=60, deadline=None)
def test_ord_and_regularity_match_sympy(pa, qb):
    (p, a), (q, b) = pa, qb
    for f, expr in ((p, a), (p * q, a * b)):
        ks = powers(expr)
        assert f.is_regular == all(k >= 0 for k in ks)
        if ks:
            assert f.ord() == ks[0]


@given(drawn(), st.sampled_from([-3, -2, -1, 1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_substitute_power_matches_sympy(pa, power):
    p, a = pa
    got = p.substitute_power("s", power)
    assert type(got) is LaurentPoly and got.var == "s"
    assert agrees(got, a.subs(Z, S ** power), var=S)
