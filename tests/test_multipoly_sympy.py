"""``MultiPoly`` against sympy as an independent oracle.

Polynomials are drawn through the public constructor in up to three names
listed in an order that is not their sorted order, such as ("z", "a", "b"),
so the conversion to name-sorted monomials is exercised on every draw.
Each operation is compared with sympy's expansion of the same expression.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.rings import MultiPoly

NAMES = ("z", "a", "b")
SYMBOLS = {nm: sympy.Symbol(nm) for nm in NAMES}

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
name_lists = st.permutations(NAMES).flatmap(lambda p: st.integers(1, 3).map(lambda k: tuple(p[:k])))


@st.composite
def drawn(draw):
    """A pair (MultiPoly, sympy expression) built from the same aligned terms."""
    names = draw(name_lists)
    exps = st.tuples(*[st.integers(0, 3) for _ in names])
    terms = draw(st.dictionaries(exps, rationals, max_size=4))
    expr = sum((sym(c) * _monomial(zip(names, e)) for e, c in terms.items()), sympy.Integer(0))
    return MultiPoly(names, terms), sympy.expand(expr)


def sym(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def frac(c) -> Fraction:
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def _monomial(pairs):
    out = sympy.Integer(1)
    for nm, k in pairs:
        out *= SYMBOLS[nm] ** k
    return out


def to_sympy(p: MultiPoly):
    """The value of p read off its monomials."""
    return sum((sym(c) * _monomial(m) for m, c in p.terms.items()), sympy.Integer(0))


def agrees(p: MultiPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def from_sympy(expr, order):
    """The public constructor fed sympy's exponent tuples over ``order``."""
    poly = sympy.Poly(sympy.expand(expr), *[SYMBOLS[nm] for nm in order])
    return MultiPoly(order, {e: frac(c) for e, c in poly.terms() if c})


@given(drawn(), drawn())
@settings(max_examples=80, deadline=None)
def test_arithmetic_matches_sympy(pa, qb):
    (p, a), (q, b) = pa, qb
    for got, want in ((p + q, a + b), (p - q, a - b), (p * q, a * b), (p ** 2, a ** 2)):
        assert agrees(got, want)
        rebuilt = from_sympy(want, NAMES)
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert got.vars == tuple(sorted(str(s) for s in sympy.expand(want).free_symbols))


@given(drawn(), st.sampled_from(NAMES), st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3)))
@settings(max_examples=80, deadline=None)
def test_structure_matches_sympy(pa, name, assignment):
    p, a = pa
    x = SYMBOLS[name]
    want_deg = sympy.degree(a, x) if a != 0 else 0
    assert p.degree_in(name) == want_deg
    parts = p.coeffs_in(name)
    want_parts = {d: sympy.expand(a).coeff(x, d) for d in range(want_deg + 1)}
    assert sorted(parts) == sorted(d for d, c in want_parts.items() if c != 0)
    for d, c in parts.items():
        assert c and name not in c.vars and agrees(c, want_parts[d])

    gens = [SYMBOLS[nm] for nm in NAMES]
    mono = tuple(assignment.get(nm, 0) for nm in NAMES)
    want = sympy.Poly(a, *gens).coeff_monomial(mono) if a != 0 else 0
    assert p.coeff(assignment) == frac(want)


@given(drawn(), drawn(), st.sampled_from(NAMES), rationals)
@settings(max_examples=60, deadline=None)
def test_substitute_matches_sympy(pa, qb, name, r):
    (p, a), (q, b) = pa, qb
    x = SYMBOLS[name]
    assert agrees(p.substitute({name: r}), a.subs(x, sym(r)))
    assert agrees(p.substitute({name: q}), a.subs(x, b))
    other = next(nm for nm in NAMES if nm != name)
    both = p.substitute({name: q, other: r})
    assert agrees(both, a.subs({x: b, SYMBOLS[other]: sym(r)}, simultaneous=True))


@given(drawn(), drawn(), drawn())
@settings(max_examples=60, deadline=None)
def test_equal_results_hash_equal(pa, qb, rc):
    (p, _), (q, _), (r, _) = pa, qb, rc
    pairs = [((p + q) * r, p * r + q * r), (p * q - q * p, MultiPoly.const(0)), ((p - p) + 3, 3)]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
