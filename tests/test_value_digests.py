"""sha256 digests of the structure constants and of the moment contexts,
values and types alike, committed as literals.

Each value is encoded with its type: an int as ``int:v``, a Fraction as
``Fraction:num/den``, a tuple or list as its encoded items in order, so a
digest changes when a value, a type or an order does.  The constants of an
algebra are its ``_den``, its flat table ``_constants`` and the Fraction
view ``structure_constants`` (sorted); a context contributes ``_Z``, ``_S``,
``_rho`` and ``_q_inv``.  The literals were taken before the table was
built on first read, so building it lazily changed no value and no type.
"""

import hashlib
from fractions import Fraction

import pytest

from spinorlab.lie import sl2_algebra, sl2_sym_cube, sl2_w_plus_wdual, sp_algebra, sp_standard
from spinorlab.moment import MomentContext


def encode(value) -> str:
    if type(value) in (tuple, list):
        return "(" + ",".join(map(encode, value)) + ")"
    if type(value) is int:
        return f"int:{value}"
    if type(value) is Fraction:
        return f"Fraction:{value.numerator}/{value.denominator}"
    raise TypeError(f"no encoding for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(encode(value).encode()).hexdigest()


ALGEBRAS = {
    "sp2": (lambda: sp_algebra(1), "bb93abfcf0fc05e910f5846f6600c2cea46a1416f6749418f2486085bf59b6d0"),
    "sp4": (lambda: sp_algebra(2), "6fdfb5276c350177d6d234d77ca008752f18d9cfdcf85af84fbc081dbc82555f"),
    "sp6": (lambda: sp_algebra(3), "b81dccf0df10b1bccbd084f21c7f20cff08f9857c4eabfeffe37023e6e95a5bb"),
    "sp8": (lambda: sp_algebra(4), "40fc4bc9a3fa19cf475cdb1038c610f9b1b2e2e0f00931a9ca96932b30c25826"),
    "sl2": (sl2_algebra, "91634ada88af2f0f7413cc38cde982de677c48b63f79b6382deee309dde20518"),
}

CONTEXTS = {
    "sp8-standard": (lambda: sp_standard(4), "29f4f836c6dbf193674bd8e937e9cc7bd3d565942d89a171a98ade600473b573"),
    "sl2-W+W*": (sl2_w_plus_wdual, "cd183d9c07371c69d1d29a833fc945065cea0c19fdad2773ce483ec39f507322"),
    "sl2-Sym3": (sl2_sym_cube, "9a21f564b7915aa7076b0b03cafeca7a8c207b1968d5b060eb52f50b9e2c212a"),
}


def test_encoding_tells_types_apart():
    assert encode([1, Fraction(1)]) == "(int:1,Fraction:1/1)"
    with pytest.raises(TypeError):
        encode(1.0)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_structure_constants_digest(name):
    build, want = ALGEBRAS[name]
    alg = build()
    table = sorted((key, sorted(cs.items())) for key, cs in alg.structure_constants.items())
    assert digest((alg._den, alg._constants, table)) == want


@pytest.mark.parametrize("name", list(CONTEXTS))
def test_moment_context_digest(name):
    build, want = CONTEXTS[name]
    ctx = MomentContext(build())
    assert digest((ctx._Z, ctx._S, ctx._rho, ctx._q_inv)) == want
