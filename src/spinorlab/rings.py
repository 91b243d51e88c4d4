"""Exact coefficient tower used by every other module.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), on top of
which sit sparse multivariate polynomials, their fraction field, Laurent
polynomials in one distinguished variable, and dual numbers for first-order
derivatives.  All values are immutable and all arithmetic is exact; nothing
in this package ever touches floating point.

A ``MultiPoly`` keeps one format: a dict from monomials to nonzero
``Fraction`` coefficients, where a monomial is a name-sorted tuple of
``(name, exponent)`` pairs with positive exponents and ``()`` is 1, so
``3*x^2*y - 1`` is ``{(("x", 2), ("y", 1)): 3, (): -1}``.  Only the public
constructor ``MultiPoly(vars, terms)`` reads exponent tuples aligned with a
list of names; it converts them once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


class UnsupportedRingError(TypeError):
    """Raised when an elimination function of ``matrix``, which works over Q
    only, gets an entry that is not rational."""


def _is_rat(x) -> bool:
    return isinstance(x, (int, Fraction))


def is_zero(x) -> bool:
    """Whether a value of the tower is zero.  Every value is falsy exactly
    when it is zero: rationals natively, and ``MultiPoly``, ``LaurentPoly``,
    ``FracElem`` and ``Dual`` through a ``__bool__`` equal to
    ``not self.is_zero``."""
    return not x


def dot(xs, ys):
    """Sum of ``x*y`` over paired entries, skipping pairs with a zero factor;
    int ``0`` when every pair is skipped.  Zero factors are found by
    truthiness (see ``is_zero``), which costs an int or Fraction no method
    call.  The sum starts from the first nonzero product, so ring elements
    never go through ``int + element``."""
    acc = None
    for x, y in zip(xs, ys):
        if not x or not y:
            continue
        acc = x * y if acc is None else acc + x * y
    return 0 if acc is None else acc


def _power(base, k, one):
    """base**k by square-and-multiply, starting from the ring's ``one``;
    ValueError unless k is a nonnegative int."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on rationals: gcd of numerators over lcm of denominators
    num = gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    ``terms`` maps monomials to nonzero ``Fraction`` coefficients.  A
    monomial is a tuple of ``(name, exponent)`` pairs sorted by name, each
    exponent a positive int, and ``()`` is the monomial 1; so equal
    polynomials have equal ``terms``.  ``vars`` is the sorted tuple of the
    names that occur.  The constructor takes exponent tuples aligned with a
    tuple of distinct names and converts them once; arithmetic works on the
    monomials directly.
    """

    __slots__ = ("terms",)

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, Rat] | None = None):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated variable names in {vs!r}")
        tm = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != len(vs):
                    raise ValueError("exponent/variable length mismatch")
                if not all(isinstance(k, int) and k >= 0 for k in exp):
                    raise ValueError("exponents must be nonnegative integers")
                m = tuple(sorted((nm, k) for nm, k in zip(vs, exp) if k))
                tm[m] = tm.get(m, Fraction(0)) + c
        object.__setattr__(self, "terms", {m: c for m, c in tm.items() if c != 0})

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, terms: dict) -> "MultiPoly":
        """Internal constructor for results of this class's own arithmetic:
        ``terms`` already maps monomials to nonzero ``Fraction`` values."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Rat) -> "MultiPoly":
        c = Fraction(c)
        return cls._trusted({(): c} if c != 0 else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._trusted({((name, 1),): Fraction(1)})

    # -- predicates ----------------------------------------------------

    @property
    def vars(self) -> tuple:
        return tuple(sorted({nm for m in self.terms for nm, _ in m}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        return self.terms.keys() <= {()}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def degree_in(self, name: str) -> int:
        return max((k for m in self.terms for nm, k in m if nm == name), default=0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if _is_rat(other):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MultiPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if _is_rat(other):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_rat(other):
            if other == 0:
                return MultiPoly._trusted({})
            c0 = Fraction(other)
            return MultiPoly._trusted({m: c * c0 for m, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _monomial_product(m1, m2)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return MultiPoly._trusted(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_rat(other):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, MultiPoly.const(1))

    # -- structure ---------------------------------------------------------

    def coeff(self, assignment: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given exponents (others 0)."""
        m = tuple(sorted((nm, k) for nm, k in assignment.items() if k))
        return self.terms.get(m, Fraction(0))

    def coeffs_in(self, name: str) -> dict:
        """View this polynomial as univariate in ``name``: degree -> MultiPoly."""
        buckets: dict[int, dict] = {}
        for m, c in self.terms.items():
            k = dict(m).get(name, 0)
            rest = tuple(p for p in m if p[0] != name) if k else m
            buckets.setdefault(k, {})[rest] = c
        return {d: MultiPoly._trusted(t) for d, t in sorted(buckets.items())}

    def substitute(self, values: Mapping[str, object]):
        """Substitute ring values for variables; unmentioned variables remain."""
        acc = None
        for m, c in self.terms.items():
            term = MultiPoly._trusted({tuple(p for p in m if p[0] not in values): c})
            exps = dict(m)
            for nm, val in values.items():
                k = exps.get(nm)
                if k:
                    term = term * (val ** k if not _is_rat(val) else Fraction(val) ** k)
            acc = term if acc is None else acc + term
        if acc is None:
            return MultiPoly.const(0)
        return acc

    # -- comparison / formatting ---------------------------------------

    def __eq__(self, other):
        if _is_rat(other):
            return self.is_constant and self.terms.get((), Fraction(0)) == other
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self.is_constant:  # constants hash like their rational value
            return hash(self.terms.get((), Fraction(0)))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        # ascending exponent tuples over the sorted names: at the first name
        # where two monomials differ, the one lacking an earlier name or with
        # the lower exponent comes first
        pos = {nm: i for i, nm in enumerate(self.vars)}
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: [(-pos[nm], k) for nm, k in t[0]]):
            mono = "*".join(f"{nm}^{k}" if k > 1 else nm for nm, k in m)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


def _monomial_product(m1: tuple, m2: tuple) -> tuple:
    """Product of two monomials: exponents of shared names add."""
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for nm, k in m2:
        exps[nm] = exps.get(nm, 0) + k
    return tuple(sorted(exps.items()))


def as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if _is_rat(x):
        return MultiPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to MultiPoly")


class FracElem:
    """Element of the fraction field of the polynomial ring.

    Equality is decided by cross-multiplication; no polynomial GCDs are
    computed.  The only normalization is cheap: zero numerators reset the
    denominator, constant denominators are folded into the numerator, and
    common monomial/content factors are stripped (which keeps powers of a
    single inverted symbol from accumulating).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = MultiPoly.const(1)
        elif den.is_constant:
            num = num * (Fraction(1) / den.constant_value())
            den = MultiPoly.const(1)
        else:
            num, den = _strip_common(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("FracElem is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return bool(self.num)

    def reciprocal(self) -> "FracElem":
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return FracElem(self.den, self.num)

    def __add__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return FracElem(self.num + other.num, self.den)
        return FracElem(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FracElem(-self.num, self.den)

    def __sub__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return FracElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        return FracElem(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # cross-multiplied equality admits no cheap hash-compatible invariant
    __hash__ = None

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return f"({self.num})/({self.den})"


def _as_frac(x):
    if isinstance(x, FracElem):
        return x
    if isinstance(x, MultiPoly) or _is_rat(x):
        return FracElem(x)
    return NotImplemented


def _strip_common(num: MultiPoly, den: MultiPoly):
    """Divide out the common monomial and rational content of num and den."""
    terms = list(num.terms.items()) + list(den.terms.items())
    common = dict(terms[0][0])
    for m, _ in terms[1:]:
        exps = dict(m)
        common = {nm: min(k, exps[nm]) for nm, k in common.items() if nm in exps}
    content = terms[0][1]
    for _, c in terms[1:]:
        content = _frac_gcd(content, c)
        if content == 1:
            break
    if not common and content == 1:
        return num, den
    inv = Fraction(1) / content

    def strip(p):
        return MultiPoly._trusted({
            tuple((nm, k - common.get(nm, 0)) for nm, k in m if k > common.get(nm, 0)): c * inv
            for m, c in p.terms.items()
        })

    return strip(num), strip(den)


class LaurentPoly:
    """Laurent polynomial in one distinguished variable.

    Coefficients are ``MultiPoly`` values (other variables ride along in
    them), keyed by possibly negative integer exponents.  Finitely many
    coefficients are nonzero.  The results of this class's own ``+``, ``-``
    and ``*`` skip the coercion and checks of ``__init__`` (``_trusted``);
    a product with a rational, or with a ``MultiPoly`` free of the Laurent
    variable, scales the coefficients directly.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Mapping[int, object] | None = None):
        cs = {}
        if coeffs:
            for k, c in coeffs.items():
                c = as_poly(c)
                if not c.is_zero:
                    if var in c.vars:
                        raise ValueError(f"coefficient contains the Laurent variable {var!r}")
                    cs[int(k)] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _trusted(cls, var: str, coeffs: dict) -> "LaurentPoly":
        """Internal constructor for results of this class's own arithmetic:
        ``coeffs`` maps int exponents to nonzero ``MultiPoly`` values that do
        not contain ``var``."""
        self = object.__new__(cls)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def const(cls, var: str, c) -> "LaurentPoly":
        return cls(var, {0: c})

    @classmethod
    def term(cls, var: str, exponent: int, coeff=1) -> "LaurentPoly":
        return cls(var, {exponent: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def ord(self) -> int:
        """Minimal exponent with nonzero coefficient."""
        if not self.coeffs:
            raise ValueError("ord of the zero Laurent polynomial is undefined")
        return min(self.coeffs)

    @property
    def is_regular(self) -> bool:
        """No negative exponents (the zero polynomial counts as regular)."""
        return all(k >= 0 for k in self.coeffs)

    def coefficient(self, k: int) -> MultiPoly:
        return self.coeffs.get(k, MultiPoly.const(0))

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.var != self.var:
                if other.is_zero:
                    return LaurentPoly(self.var, {})
                raise ValueError(f"mixed Laurent variables {self.var!r} and {other.var!r}")
            return other
        if _is_rat(other):
            return LaurentPoly._trusted(self.var, {0: MultiPoly.const(other)} if other else {})
        if isinstance(other, MultiPoly):
            return LaurentPoly(self.var, {0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in o.coeffs.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return LaurentPoly._trusted(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.var, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_rat(other) or (isinstance(other, MultiPoly) and self.var not in other.vars):
            # scale each coefficient; a zero scalar drops every term, and a
            # nonzero one leaves every coefficient nonzero
            if not other:
                return LaurentPoly._trusted(self.var, {})
            return LaurentPoly._trusted(self.var, {k: c * other for k, c in self.coeffs.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, MultiPoly] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in o.coeffs.items():
                k = k1 + k2
                s = out.get(k)
                if s is None:
                    out[k] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return LaurentPoly._trusted(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, LaurentPoly.const(self.var, 1))

    def substitute_power(self, new_var: str, power: int) -> "LaurentPoly":
        """Replace the Laurent variable v by new_var**power (power may be negative)."""
        if power == 0:
            raise ValueError("power must be nonzero")
        return LaurentPoly(new_var, {k * power: c for k, c in self.coeffs.items()})

    def substitute_coeff_var(self, name: str, value) -> "LaurentPoly":
        """Substitute a value for a variable living inside the coefficients."""
        return LaurentPoly(
            self.var, {k: c.substitute({name: value}) for k, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        if isinstance(other, LaurentPoly) and other.var != self.var:
            # in different Laurent variables only constants can be equal
            return self.coeffs.keys() <= {0} and other.coeffs.keys() <= {0} and self.coeffs == other.coeffs
        if isinstance(other, MultiPoly) and self.var in other.vars:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if set(self.coeffs) <= {0}:  # constants hash like their coefficient
            return hash(self.coeffs.get(0, MultiPoly.const(0)))
        return hash((self.var, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            cs = repr(c) if c.is_constant else f"({c!r})"
            if k == 0:
                parts.append(cs)
            else:
                mono = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts)


class Dual:
    """Dual number a + eps*b with eps^2 = 0, over any commutative base ring.

    Multiplying two duals keeps exactly the first-order term, which is how
    derivatives of polynomial maps are extracted without symbolic machinery.
    """

    __slots__ = ("re", "eps")

    def __init__(self, re, eps=0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "eps", eps)

    def __setattr__(self, *a):
        raise AttributeError("Dual is immutable")

    @property
    def is_zero(self) -> bool:
        return is_zero(self.re) and is_zero(self.eps)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.eps)

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, Fraction, MultiPoly)):
            return Dual(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re + o.re, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re - o.re, self.eps - o.eps)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re * o.re, self.re * o.eps + self.eps * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.eps == o.eps

    def __repr__(self):
        return f"({self.re!r} + eps*{self.eps!r})"
