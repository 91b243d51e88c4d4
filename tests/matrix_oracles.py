"""Reference routes for exact elimination, kept only as test oracles.

``spinorlab.matrix`` runs ``rank``, ``mat_rank_kernel``, ``solve_linear`` and
``inverse`` over Q only, through fraction-free integer elimination.  The
routes below are the ones it replaced: Gauss-Jordan elimination on
``Fraction`` rows, or on ``FracElem`` rows when an entry is a polynomial or a
polynomial fraction, through ``_rref``.  ``cocycle_oracles`` runs its
fraction-field route on them.  ``dot_product`` is the product that
``ExactMatrix.__mul__`` replaced: one ``rings.dot`` per entry, over the row
of A and the column of B.
``exactly_equal`` compares results in value and in type.
``lifted_random_symplectic_laurent`` is the ``random_symplectic_laurent``
that lifted its identity, its form and its vectors to Laurent constants,
checked against the lifted form.
``rref_int_rank_kernel`` is the route ``mat_rank_kernel`` and
``petri_kernel`` took before ``_row_echelon``: Gauss-Jordan elimination of
every row by ``_rref_int`` (through ``_reduce``), the kernel read off by
``kernel_from``; ``solve_linear``, ``inverse`` and the coordinate solver of
``lie`` ran on ``_reduce`` too, before ``matrix._echelon``.
``transvection_product_symplectic`` is ``random_symplectic`` as the product
of its transvection matrices, before the rank-one updates, and
``dense_is_symplectic`` the ``M^T Omega M == Omega`` product that
``is_symplectic`` replaced by the pair formula for a rational M.
``dense_in_sp`` is the ``X^T Omega + Omega X = 0`` product that ``in_sp``
replaced by the pair rule against the standard form.
"""

import random

from fractions import Fraction

from spinorlab.matrix import ExactMatrix, _integer_rows
from spinorlab.matrix import is_symplectic, standard_omega, transvection
from spinorlab.rings import FracElem, MultiPoly, UnsupportedRingError, dot, is_zero
from spinorlab.rings import LaurentPoly


def exactly_equal(a, b):
    """Equal values of equal types, entry by entry."""
    if isinstance(a, ExactMatrix):
        return exactly_equal(a.entries, b.entries) and a.cols == b.cols
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(exactly_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def dot_product(A, B):
    """A * B, each entry ``dot(row, column)``."""
    if A.cols != B.rows:
        raise ValueError("multiplication shape mismatch")
    ocols = list(zip(*B.entries)) if B.rows else [()] * B.cols
    return ExactMatrix([[dot(r, c) for c in ocols] for r in A.entries], cols=B.cols)


def _as_field(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, MultiPoly):
        return FracElem(x)
    if isinstance(x, FracElem):
        return x
    raise UnsupportedRingError(
        f"entries of type {type(x).__name__} do not form a supported field"
    )


def _field_rows(entries):
    rows = [[_as_field(x) for x in r] for r in entries]
    # if any entry is a polynomial fraction, promote everything to FracElem
    if any(isinstance(x, FracElem) for r in rows for x in r):
        rows = [[x if isinstance(x, FracElem) else FracElem(x) for x in r] for r in rows]
    return rows


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


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


def kernel_from(rows, pivots, ncols):
    """Kernel basis of the first ncols columns of rows that ``_rref_int``
    reduced: one vector per free column fc, with 1 at fc and
    -rows[r][fc] / rows[r][pc] at each pivot column pc."""
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        kernel.append(tuple(v))
    return kernel


def _rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place, on
    the first ncols columns; returns the pivot column list.

    Lazy Bareiss: with prev the last pivot, each row i keeps a level lev[i],
    the pivot at its last update (1 at the start), and is stored as its
    Bareiss row at level prev times lev[i] / prev.  At pivot p in column c
    a row that is zero in column c is left alone (its Bareiss row would only
    be rescaled by p / prev), and every other row a becomes
    (p*a - a[c]*b) // lev[i] with lev[i] = p.  The pivot row b is first
    brought up to its Bareiss row with x * prev // lev[r] if it is behind.
    Both divisions are exact, because each result is a Bareiss row, whose
    entries are minors of the input.  The rows stay integers: pivot row r
    has the nonzero entry rows[r][pivots[r]], is zero in every other pivot
    column, and divided by that entry is row r of the reduced form.  The
    rows past the rank are zero in the first ncols columns.
    """
    pivots = []
    lev = [1] * len(rows)
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lev[r], lev[pr] = lev[pr], lev[r]
        b = rows[r]
        if lev[r] != prev:
            d = lev[r]
            b = rows[r] = [x * prev // d for x in b]
        p = b[c]
        for i in range(r):
            a = rows[i]
            f = a[c]
            if f:
                d = lev[i]
                rows[i] = [(p * x - f * y) // d for x, y in zip(a, b)]
                lev[i] = p
        # b and the rows below it are zero left of column c
        tail = b[c:]
        for i in range(r + 1, len(rows)):
            a = rows[i]
            f = a[c]
            if f:
                d = lev[i]
                rows[i] = a[:c] + [(p * x - f * y) // d for x, y in zip(a[c:], tail)]
                lev[i] = p
        lev[r] = prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def _reduce(entries, ncols):
    """Rational rows cleared of denominators and reduced by ``_rref_int`` on
    the first ncols columns; returns ``(rows, pivots)`` with integer rows."""
    rows = _integer_rows(entries)
    return rows, _rref_int(rows, ncols)


def rref_int_rank_kernel(rows, ncols):
    """``(rank, kernel)`` of integer rows (not modified) by ``_reduce``."""
    rows, pivots = _reduce(rows, ncols)
    return len(pivots), kernel_from(rows, pivots, ncols)


def laurent_lift(M, var):
    """M with every entry lifted to a Laurent constant in var."""
    return M.map_entries(lambda x: LaurentPoly.const(var, x))


def lifted_random_symplectic_laurent(n, seed, var="z"):
    """``(M, is_symplectic(M, lifted omega))`` with the draws of
    ``random_symplectic_laurent``, every rational lifted to ``var``."""
    rng = random.Random(seed)
    dim = 2 * n
    M = laurent_lift(ExactMatrix.identity(dim), var)
    omega_l = laurent_lift(standard_omega(n), var)
    for _ in range(rng.randint(2, 4)):
        v = [LaurentPoly.const(var, rng.randint(-2, 2)) for _ in range(dim)]
        if all(x.is_zero for x in v):
            v[rng.randrange(dim)] = LaurentPoly.const(var, 1)
        c = LaurentPoly.term(var, rng.randint(-2, 2), rng.choice([1, -1, 2]))
        M = M * transvection(v, c, omega_l)
    return M, is_symplectic(M, omega_l)


def transvection_product_symplectic(n, seed):
    """The draws of ``random_symplectic(n, seed)``, multiplied out as
    ``M * transvection(v, c, omega)`` one factor at a time."""
    rng = random.Random(seed)
    omega = standard_omega(n)
    M = ExactMatrix.identity(2 * n)
    for _ in range(rng.randint(3, 6)):
        v = [rng.randint(-2, 2) for _ in range(2 * n)]
        if all(x == 0 for x in v):
            v[rng.randrange(2 * n)] = 1
        c = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
        M = M * transvection(v, c, omega)
    return M


def dense_is_symplectic(M, omega=None):
    """``M^T Omega M == Omega`` by two dense products, the standard form of
    M's size by default."""
    if omega is None:
        if M.rows % 2:
            return False
        omega = standard_omega(M.rows // 2)
    return M.is_square and M.transpose() * omega * M == omega


def dense_in_sp(X, omega=None):
    """``X^T Omega + Omega X = 0`` by two dense products, the standard form
    of X's size by default."""
    if omega is None:
        omega = standard_omega(X.rows // 2)
    return (X.transpose() * omega + omega * X).is_zero
