"""Reference route for the random Cech squares, kept only as a test oracle.

``spinorlab.cech`` builds its random models and morphisms over the integers:
it solves each square with den * P^-1, den the lcm of the denominators of
P^-1, and scales the matching differential by den.  The route below is the
one it replaced: the same draws, solved with P^-1 itself, so the solved
blocks carry ``Fraction`` entries.  Each builder also returns the den the
integer route clears, so a test can compare the two exactly.
``fraction_cleared_inverse`` is the route ``matrix._cleared_inverse``
replaced: it reads den and den P^-1 off the ``Fraction`` entries of the
Gauss-Jordan inverse of ``matrix_oracles.rref_inverse``, and
``dense_cleared_inverse`` reads the same off ``_cleared_inverse``.
``pairwise_check_five_term`` is the route ``cech.check_five_term`` replaced:
it checks both maps at every node, so the inner maps are checked twice.
"""

import math

from spinorlab.cech import (
    ComplexMorphism,
    ExactnessReport,
    TwoTermCechModel,
    _extend_to_basis,
    _rand_injective,
    _rand_invertible,
    _rand_matrix,
)
from spinorlab.matrix import ExactMatrix, _cleared_inverse, inverse, rank

from matrix_oracles import rref_inverse


def _hstack(A, B):
    return ExactMatrix.from_blocks([[A, B]])


def _den(M):
    return math.lcm(*(x.denominator for r in M.entries for x in r))


def frac_random_model(rng, max_dim=6):
    """``(model, den)``: the square with a1 = [d1 a0 | R] P^-1."""
    a00 = rng.randint(0, max_dim - 1)
    a01 = a00 + rng.randint(0, max(1, max_dim - a00))
    a10 = rng.randint(0, max_dim)
    a11 = rng.randint(0, max_dim)
    d0 = _rand_injective(rng, a01, a00)
    a0 = _rand_matrix(rng, a10, a00)
    d1 = _rand_matrix(rng, a11, a10)
    C = _extend_to_basis(rng, d0)
    P = _hstack(d0, C)
    forced = d1 * a0  # a11 x a00
    R = _rand_matrix(rng, a11, C.cols)
    vals = _hstack(forced, R)
    a1 = vals * inverse(P) if a01 else ExactMatrix.zeros(a11, 0)
    return TwoTermCechModel(d0, d1, a0, a1), _den(inverse(P))


def frac_random_morphism(rng, max_dim=5, ensure_hypothesis=True):
    """``(morphism, den_src, den)``: the source from ``frac_random_model`` and,
    with ``ensure_hypothesis``, the target's d1 = [phi11 d1 | R2] Q^-1."""
    src, den_src = frac_random_model(rng, max_dim)
    a00, a01, a10s, a11s = src.dims
    den = 1
    if ensure_hypothesis:
        a10t = a10s + rng.randint(0, 2)
        a11t = a11s + rng.randint(0, 2)
        P = _rand_invertible(rng, a10t)
        incl = ExactMatrix(
            [[1 if i == j else 0 for j in range(a10s)] for i in range(a10t)]
        )
        phi10 = P * incl
        phi11 = _rand_matrix(rng, a11t, a11s)
        C2 = _extend_to_basis(rng, phi10)
        Q = _hstack(phi10, C2)
        forced = phi11 * src.cech_d1
        R2 = _rand_matrix(rng, a11t, C2.cols)
        vals = _hstack(forced, R2)
        d1t = vals * inverse(Q) if a10t else ExactMatrix.zeros(a11t, 0)
        tgt = TwoTermCechModel(src.cech_d0, d1t, phi10 * src.diff_a0, phi11 * src.diff_a1)
        den = _den(inverse(Q))
    else:
        phi10 = ExactMatrix.zeros(a10s, a10s)
        phi11 = ExactMatrix.zeros(a11s, a11s)
        tgt = TwoTermCechModel(
            src.cech_d0,
            _rand_matrix(rng, a11s, a10s),
            ExactMatrix.zeros(a10s, a00),
            ExactMatrix.zeros(a11s, a01),
        )
    return ComplexMorphism(src, tgt, phi10, phi11), den_src, den


def dense_cleared_inverse(P):
    """``(den, den P^-1)`` from ``matrix._cleared_inverse`` on the nonzeros
    of the rows of the square P, whose pivot columns are 0..n-1."""
    n = P.cols
    den, inv = _cleared_inverse([{j: x for j, x in enumerate(r) if x} for r in P.entries], n)
    assert list(inv) == list(range(n))
    return den, ExactMatrix([[row.get(j, 0) for j in range(n)] for row in inv.values()], cols=n)


def fraction_cleared_inverse(P):
    """``(den, den P^-1)`` from the Fraction entries of P^-1."""
    inv = rref_inverse(P).entries
    den = math.lcm(*(x.denominator for r in inv for x in r))
    return den, ExactMatrix(
        [[x.numerator * (den // x.denominator) for x in r] for r in inv], cols=P.cols
    )


def _induced_rank(T, dom, cod):
    stacked = _hstack(T * dom.Z, cod.B)
    return rank(stacked) - cod.rank_b


def _maps_into(T, dom, cod):
    """Every T-image of a dom generator lies in span(Z_cod)."""
    both = _hstack(cod.Z, T * dom.Z)
    return rank(both) == rank(cod.Z)


def _composite_zero(Tg, Tf, dom, end):
    stacked = _hstack(Tg * (Tf * dom.Z), end.B)
    return rank(stacked) == end.rank_b


def pairwise_check_five_term(data):
    """The ``ExactnessReport`` of ``data``, node by node, with every map
    checked at each node that it touches."""
    names = ("H0(A1)", "H1_total", "H1(A0)")
    spaces, maps = data.spaces, data.maps
    nodes = []
    for k, name in enumerate(names):
        dom, mid, cod = spaces[k], spaces[k + 1], spaces[k + 2]
        Tf, Tg = maps[k], maps[k + 1]
        ok_into = _maps_into(Tf, dom, mid) and _maps_into(Tg, mid, cod)
        cz = _composite_zero(Tg, Tf, dom, cod)
        rin = _induced_rank(Tf, dom, mid)
        rout = _induced_rank(Tg, mid, cod)
        exact = ok_into and cz and (rin + rout == mid.dim)
        nodes.append((name, cz, rin, rout, mid.dim, exact))
    return ExactnessReport(tuple(nodes))
