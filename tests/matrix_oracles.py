"""Reference routes for exact elimination, kept only as test oracles.

Over Q, ``spinorlab.matrix`` runs ``mat_rank_kernel``, ``solve_linear`` and
``inverse`` through fraction-free integer elimination.  The routes below are
the ones it replaced: Gauss-Jordan elimination on ``Fraction`` (or
``FracElem``) rows through ``_rref``.
"""

from fractions import Fraction

from spinorlab.matrix import ExactMatrix, _field_rows, _rref
from spinorlab.rings import FracElem, is_zero


def _unit(rows):
    return FracElem(1) if any(isinstance(x, FracElem) for r in rows for x in r) else Fraction(1)


def rref_rank_kernel(M):
    rows = _field_rows(M.entries)
    pivots = _rref(rows, M.cols)
    one = _unit(rows)
    kernel = []
    for fc in range(M.cols):
        if fc in pivots:
            continue
        v = [one - one] * M.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        kernel.append(tuple(v))
    return len(pivots), kernel


def rref_solve(M, b):
    aug = _field_rows([list(r) + [x] for r, x in zip(M.entries, b)])
    pivots = _rref(aug, M.cols)
    for row in aug:
        if all(is_zero(x) for x in row[: M.cols]) and not is_zero(row[M.cols]):
            return None
    one = _unit(aug)
    x = [one - one] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][M.cols]
    return tuple(x)


def rref_inverse(M):
    n = M.rows
    aug = _field_rows([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(M.entries)])
    if len(_rref(aug, n)) != n:
        raise ValueError("matrix is singular")
    return ExactMatrix([r[n:] for r in aug])
