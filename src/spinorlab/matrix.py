"""Exact matrices over the coefficient tower, with rank/kernel/solve/inverse
over Q, a division-free characteristic polynomial, and deterministic random
symplectic matrices built from transvections.

A product walks the nonzeros of each row of A and adds ``a_ik * b_kj`` over
the nonzeros of row k of B, in ascending k from the first product, so each
entry has the value and type of ``rings.dot`` on its row and column (int
``0`` where nothing was added) without testing a zero more than once.
``apply`` and ``char_poly`` go through ``rings.dot``.  The results of
``+``, ``-``, ``*``, ``scale``, ``transpose`` and ``from_blocks`` are
rectangular by construction and skip the checks of the public constructor.

``_cleared`` is the one rule for what is rational: it clears a vector of
ints and Fractions to ints over the lcm of its denominators and raises
``UnsupportedRingError``, naming the type, on any other entry.  Every vector
the package clears to ints goes through it.  ``rings._check_tower`` is the
rule for what a route over any ring takes: the values of the coefficient
tower, whose zeros are exactly the falsy values.  ``_flattened`` and
``is_symplectic`` and ``in_sp`` (on omega and on their dense routes) go
through it, so a ``None``, ``0.0`` or ``""`` entry raises
``UnsupportedRingError`` instead of being read as zero.

Elimination builds no Fraction: rows are cleared of their denominators and
reduced over Z.  One sparse Gauss-Jordan pass (``_echelon``) hands back the
reduced row echelon form as primitive integer rows, taken sparsest first and
stopped as soon as the rank is full; ``mat_rank_kernel``, ``solve_linear``
and ``_cleared_inverse``, the one [X | I] elimination, read their results
off it.  ``rank`` runs eager fraction-free elimination (Bareiss) below the
pivots.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import mul

from .rings import LaurentPoly, UnsupportedRingError, _check_tower, _is_rat, _Value, dot


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation."""


class NotSymplecticError(ValueError):
    """A matrix built to be symplectic fails M^T Omega M = Omega."""


class ExactMatrix(_Value):
    """Immutable rectangular matrix with entries in any exact ring of this
    package (int/Fraction, MultiPoly, LaurentPoly).  Elimination needs
    rational entries.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(map(tuple, entries))
        if len(set(map(len, rows))) > 1:
            raise ShapeError("ragged rows")
        ncols = len(rows[0]) if rows else (cols or 0)
        if rows and cols is not None and cols != ncols:
            raise ShapeError("explicit column count disagrees with rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _trusted(cls, rows: tuple, cols: int) -> "ExactMatrix":
        """Internal constructor for results of this module's own arithmetic:
        ``rows`` a tuple of tuples, each of length ``cols``.  Skips the
        re-wrap and the ragged check of ``__init__``."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "ExactMatrix":
        return cls([[0] * c for _ in range(r)], cols=c)

    @classmethod
    def diag(cls, values) -> "ExactMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, blocks) -> "ExactMatrix":
        """Assemble from a 2D grid of ExactMatrix blocks."""
        out = []
        width = sum(b.cols for b in blocks[0])
        for brow in blocks:
            h = brow[0].rows
            if any(b.rows != h for b in brow):
                raise ShapeError("inconsistent block heights")
            if sum(b.cols for b in brow) != width:
                raise ShapeError("inconsistent block widths")
            # each row of the band joins the rows of its blocks
            rows = brow[0].entries
            for b in brow[1:]:
                rows = map(tuple.__add__, rows, b.entries)
            out.extend(rows)
        return cls._trusted(tuple(out), width)

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def submatrix(self, rows, cols) -> "ExactMatrix":
        cols = list(cols)
        return ExactMatrix(
            [[self.entries[i][j] for j in cols] for i in rows], cols=len(cols)
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        pairs = zip(self.entries, other.entries)
        return ExactMatrix._trusted(
            tuple([tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in pairs]), self.cols
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("subtraction shape mismatch")
        pairs = zip(self.entries, other.entries)
        return ExactMatrix._trusted(
            tuple([tuple([a - b for a, b in zip(r1, r2)]) for r1, r2 in pairs]), self.cols
        )

    def __neg__(self):
        return ExactMatrix._trusted(
            tuple([tuple([-x for x in r]) for r in self.entries]), self.cols
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("multiplication shape mismatch")
        n = other.cols
        # the nonzeros of each row of other, found once
        sparse = [[(j, y) for j, y in enumerate(r) if y] for r in other.entries]
        out = []
        for r in self.entries:
            acc = [None] * n
            for x, brow in zip(r, sparse):
                if x:
                    for j, y in brow:
                        s = acc[j]
                        acc[j] = x * y if s is None else s + x * y
            out.append(tuple([0 if s is None else s for s in acc]))
        return ExactMatrix._trusted(tuple(out), n)

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix._trusted(
            tuple([tuple([c * x for x in r]) for r in self.entries]), self.cols
        )

    def apply(self, vec):
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.cols:
            raise ShapeError("matrix-vector shape mismatch")
        return tuple(dot(r, vec) for r in self.entries)

    def transpose(self) -> "ExactMatrix":
        if self.rows == 0:
            return ExactMatrix._trusted(((),) * self.cols, 0)
        return ExactMatrix._trusted(tuple(zip(*self.entries)), self.rows)

    def map_entries(self, fn) -> "ExactMatrix":
        return ExactMatrix([[fn(x) for x in r] for r in self.entries], cols=self.cols)

    @property
    def is_zero(self) -> bool:
        # an entry is zero exactly when it is falsy (see rings.is_zero)
        return not any(map(any, self.entries))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return "ExactMatrix([\n" + "\n".join(
            "  [" + ", ".join(repr(x) for x in r) + "]," for r in self.entries
        ) + "\n])"


# -- elimination ---------------------------------------------------------
#
# rank, mat_rank_kernel, solve_linear and inverse take rational entries only;
# the entries are cleared of their denominators by _cleared, which raises
# UnsupportedRingError on any other entry, and the rows are eliminated over Z
# without fractions.
#
# Every Gauss-Jordan caller goes through _echelon, which takes sparse rows
# {column: nonzero int} and hands back the reduced row echelon form as
# {pivot column: primitive sparse int row}.  mat_rank_kernel (_row_echelon)
# and solve_linear on [A | b] reach it through one adapter, _sparse_rows;
# petri and lie build their rows sparse.  One routine, _cleared_inverse,
# eliminates [X | I]: inverse, cech's _solve_on_complement, moment's Gram
# matrix and lie's coordinate solver all read it.  _echelon takes the rows
# sparsest first and stops once the rank is full, never reading the rows
# past that point.
# The reduced form is unique and each caller divides a row only by its own
# pivot entry (or clears the quotients, _cleared_inverse), so no result
# depends on the order of the rows or on how a row is scaled.
#
# rank stays on _rank_bareiss, eager fraction-free elimination below the
# pivots (after Bareiss, Math. Comp. 22 (1968)): after k pivots every entry
# of a row is a k+1 minor of the input, so the division by the previous
# pivot is exact, and on its small dense inputs the dict rows cost more.


_INT_ONLY = {int}
_RATIONAL = {int, Fraction}


def _cleared(values):
    """(ints, L) with values == ints / L as a new list, L the lcm of the
    denominators (1 for ints).  A value is rational when it is an int (a
    bool too) or a Fraction; any other raises UnsupportedRingError.  One
    scan of the types picks the int path and decides rationality."""
    types = set(map(type, values))
    if types <= _INT_ONLY:
        return list(values), 1
    if not types <= _RATIONAL:
        for x in values:
            if not _is_rat(x):
                raise UnsupportedRingError(f"entries must be rational, not {type(x).__name__}")
    L = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (L // x.denominator) for x in values], L


def _integer_rows(entries):
    """Dense rational rows ``_cleared``, for ``_rank_bareiss`` and cech."""
    return [_cleared(r)[0] for r in entries]


def _integer_row(v):
    """A sparse rational row ``_cleared``, as ``{column: nonzero int}``."""
    return {j: x for j, x in zip(v, _cleared(v.values())[0]) if x}


def _integer_flats(flats):
    """``(rows, L)``: the sparse rational rows ``flats`` (``{column:
    nonzero}``) times L, the lcm of all their denominators, as int rows,
    cleared by one ``_cleared`` call."""
    ints, L = _cleared([x for f in flats for x in f.values()])
    it = iter(ints)
    return [dict(zip(f, it)) for f in flats], L


def _sparse_rows(entries):
    """Dense rational rows ``_cleared``, each as ``{column: nonzero int}``."""
    return [dict(compress(enumerate(v), v)) for v, _ in map(_cleared, entries)]


def _eliminate(v, b, c):
    """(p/g) v - (f/g) b for the entries p of b and f of v at column c, with
    g = gcd(p, f), over sparse rows {column: nonzero int}: zero at c."""
    p, f = b[c], v[c]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    w = {j: p * x for j, x in v.items()} if p != 1 else dict(v)
    for j, y in b.items():
        x = w.get(j, 0) - f * y
        if x:
            w[j] = x
        else:
            del w[j]
    return w


def _primitive(v):
    """A sparse integer row divided by the gcd of its entries."""
    g = math.gcd(*v.values())
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _echelon(rows, ncols):
    """The reduced row echelon form of rows ``{column < ncols: nonzero
    int}`` (a zero would be taken for a leading entry and divided by), as
    ``{pivot column pc: row}`` in ascending pc: each row a dict of its
    nonzero ints, primitive, zero at every other pivot column, so divided
    by its entry at pc it is a row of the reduced form.

    Rows are taken sparsest first (a stable sort on ``len``).  Each is
    reduced fraction-free at its leading column against the row kept there,
    until it is zero or leads at a column with no kept row; it is then
    divided by its content and kept at that column.  Every step keeps the
    row space, which alone fixes the reduced form, so the order of the rows
    changes no result.  Once every column has a kept row the form is the
    identity and the other rows are never read; otherwise the kept rows are
    back-substituted in descending pivot order.
    """
    kept = {}
    for v in sorted(rows, key=len):
        if not v:
            continue
        c = min(v)
        while c in kept:
            v = _eliminate(v, kept[c], c)
            if not v:
                break
            c = min(v)
        else:
            kept[c] = _primitive(v)
            if len(kept) == ncols:
                return {c: {c: 1} for c in range(ncols)}
    # kept[c] is zero left of column c; clear its other pivot columns with
    # rows that are already zero at every pivot column but their own
    for c in sorted(kept, reverse=True):
        v = kept[c]
        later = [j for j in v if j != c and j in kept]
        for j in later:
            v = _eliminate(v, kept[j], j)
        if later:
            kept[c] = _primitive(v)
    return dict(sorted(kept.items()))


def _row_echelon(rows, ncols):
    """``(rank, kernel)`` of sparse integer rows as ``_echelon`` takes them,
    the kernel read off ``_echelon``'s reduced rows: one vector per
    free column fc, with 1 at fc and -row[fc] / row[pc] at the pivot column
    pc of each reduced row."""
    kept = _echelon(rows, ncols)
    zero, one = Fraction(0), Fraction(1)
    kernel = {}
    for fc in range(ncols):
        if fc not in kept:
            kernel[fc] = v = [zero] * ncols
            v[fc] = one
    for pc, row in kept.items():
        p = row[pc]
        for fc, x in row.items():
            if fc != pc:
                kernel[fc][pc] = Fraction(-x, p)
    return len(kept), list(map(tuple, kernel.values()))


def mat_rank_kernel(M: ExactMatrix):
    """Exact rank and kernel basis of a matrix over Q.

    Returns ``(rank, kernel_basis)`` where each kernel vector v satisfies
    M.apply(v) == 0 and rank + len(kernel_basis) == M.cols.
    """
    return _row_echelon(_sparse_rows(M.entries), M.cols)


def rank(M: ExactMatrix) -> int:
    """Rank over Q by fraction-free elimination below the pivots."""
    return _rank_bareiss(_integer_rows(M.entries))


def _rank_bareiss(rows) -> int:
    # fraction-free elimination over Z, below the pivots only
    m, n = len(rows), len(rows[0]) if rows else 0
    rk = 0
    prev = 1
    for c in range(n):
        pr = None
        for i in range(rk, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[rk], rows[pr] = rows[pr], rows[rk]
        piv = rows[rk][c]
        for i in range(rk + 1, m):
            for j in range(c + 1, n):
                rows[i][j] = (piv * rows[i][j] - rows[i][c] * rows[rk][j]) // prev
            rows[i][c] = 0
        prev = piv
        rk += 1
        if rk == m:
            break
    return rk


def solve_linear(M: ExactMatrix, b):
    """Solve M x = b exactly over Q; returns a solution tuple or None if
    inconsistent.

    When the system is underdetermined, free variables are set to zero.
    """
    if len(b) != M.rows:
        raise ShapeError("right-hand side length mismatch")
    n = M.cols
    kept = _echelon(_sparse_rows([(*row, x) for row, x in zip(M.entries, b)]), n + 1)
    if n in kept:
        return None
    x = [Fraction(0)] * n
    for pc, row in kept.items():
        x[pc] = Fraction(row.get(n, 0), row[pc])
    return tuple(x)


def inverse(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix over Q; ValueError when singular."""
    if not M.is_square:
        raise ShapeError("inverse needs a square matrix")
    n = M.rows
    # every entry type-checked: M = ints / L, so M^-1 = L (ints)^-1
    ints, L = _cleared([x for r in M.entries for x in r])
    rows = [dict(compress(enumerate(v), v)) for v in (ints[i * n:(i + 1) * n] for i in range(n))]
    den, inv = _cleared_inverse(rows, n)
    return ExactMatrix._trusted(
        tuple([tuple([Fraction(L * row.get(j, 0), den) for j in range(n)]) for row in inv.values()]), n
    )


def _cleared_inverse(rows, size: int):
    """``(den, {P_r: {j: den E[r][j]}})`` for independent sparse rational
    rows ``{column < size: nonzero}`` of X: E is the inverse of X on its
    pivot columns P (X^-1 when X is square), den the lcm of its denominators.
    Row j of [L X | L I], L the common denominator (``_integer_flats``), is
    L X_j and L at size + j.  ``_echelon``'s row at P_r over its pivot entry
    p holds row r of E on the right, and with g = gcd(p, the entries x
    there), den E[r][j] = (x / g) (den / (p / g)).  A pivot in the identity
    block means the rows are dependent and raises ValueError."""
    ints, L = _integer_flats(rows)
    kept = _echelon([{**row, size + j: L} for j, row in enumerate(ints)], size + len(ints))
    if any(c >= size for c in kept):
        raise ValueError("rows are linearly dependent")
    cleared = []
    for pc, row in kept.items():
        xs = {j - size: x for j, x in row.items() if j >= size}
        g = math.gcd(row[pc], *xs.values())
        cleared.append((pc, row[pc] // g, g, xs))
    den = math.lcm(*(p for _, p, _, _ in cleared))
    return den, {pc: {j: x // g * (den // p) for j, x in xs.items()} for pc, p, g, xs in cleared}


def char_poly(M: ExactMatrix):
    """Coefficients of det(lambda*I - M) from lambda^0 up to lambda^dim.

    Division-free (Berkowitz), so it works over any commutative coefficient
    ring, including polynomial and Laurent rings.
    """
    if not M.is_square:
        raise ShapeError("characteristic polynomial needs a square matrix")
    n = M.rows
    if n == 0:
        return [1]
    A = M.entries
    V = [1, -A[0][0]]  # descending coefficients for the leading 1x1 block
    for r in range(2, n + 1):
        R = A[r - 1][: r - 1]
        w = [A[i][r - 1] for i in range(r - 1)]
        c = [1, -A[r - 1][r - 1], -dot(R, w)]
        # c needs R A^j w for j = 0..r-2 only, so A^(r-1) w is never built
        for _ in range(r - 2):
            w = [dot(A[i], w) for i in range(r - 1)]
            c.append(-dot(R, w))
        # lower-triangular Toeplitz product: V[i] = sum_j c[i-j] * V[j]
        V = [dot(c[i::-1], V) for i in range(r + 1)]
    return list(reversed(V))


# -- symplectic structure ------------------------------------------------


@cache
def standard_omega(n: int) -> ExactMatrix:
    """Standard symplectic form in the interleaved frame (e1,f1,...,en,fn):
    block-diagonal copies of [[0,1],[-1,0]].  One instance per n, which the
    immutability of ``ExactMatrix`` makes safe to share.
    """
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        m[2 * k][2 * k + 1] = 1
        m[2 * k + 1][2 * k] = -1
    return ExactMatrix(m)


def line_block_form(n: int) -> ExactMatrix:
    """Block form [[0,0,1],[0,Theta,0],[-1,0,0]] in the (line, middle, dual
    line) ordering, with Theta = ``standard_omega(n - 1)`` on the middle
    block of size 2n-2: the pairing <l, s'> - <l', s> + theta(u, u')."""
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    rows[0][2 * n - 1] = 1
    rows[2 * n - 1][0] = -1
    for row, theta_row in zip(rows[1:], standard_omega(n - 1).entries):
        row[1:-1] = theta_row
    return ExactMatrix(rows)


def is_symplectic(M: ExactMatrix, omega: ExactMatrix | None = None) -> bool:
    """Whether the square matrix M preserves omega: M^T Omega M = Omega, with
    the standard form of M's size by default.  A rational omega serves M over
    any ring of the tower, since products and ``==`` mix rational entries in.
    A rational M against the standard form goes through the pair formula of
    ``_preserves_standard_form``; an M that ``_cleared`` rejects, or any
    other form, through the dense product, which takes only values of the
    coefficient tower (``_check_tower``) in M; omega is checked first."""
    if omega is None:
        if M.rows % 2:
            return False
        omega = standard_omega(M.rows // 2)
    _check_tower(omega.entries)
    if not M.is_square:
        return False
    if M.rows % 2 == 0 and omega == standard_omega(M.rows // 2):
        try:
            U, D = _cleared([x for r in M.entries for x in r])
        except UnsupportedRingError:
            pass
        else:
            return _preserves_standard_form(U, D, M.rows)
    _check_tower(M.entries)
    return M.transpose() * omega * M == omega


def _preserves_standard_form(U, D, dim) -> bool:
    """M^T Omega M = Omega for the standard Omega of size dim, from the
    entries of U = D M, a rational M cleared of denominators (``_cleared``),
    listed row by row.  Entry (i, j) of U^T Omega U is the pair sum
    sum_k (U[2k][i] U[2k+1][j] - U[2k+1][i] U[2k][j]), which must equal
    D^2 Omega[i][j].  It is antisymmetric in (i, j), so only i < j is
    checked, all in Python ints."""
    cols = [U[j::dim] for j in range(dim)]
    evens = [c[0::2] for c in cols]
    odds = [c[1::2] for c in cols]
    unit = D * D
    for i in range(dim):
        ei, oi = evens[i], odds[i]
        for j in range(i + 1, dim):
            s = sum(map(mul, ei, odds[j])) - sum(map(mul, oi, evens[j]))
            if s != (unit if j == i + 1 and i % 2 == 0 else 0):
                return False
    return True


def in_sp(X: ExactMatrix, omega: ExactMatrix | None = None) -> bool:
    """Lie algebra membership: X^T Omega + Omega X = 0.  A rational omega
    serves X over any ring of the tower, as in ``is_symplectic``.  A square
    X against the standard form of its size goes through the pair rule of
    ``_in_standard_sp`` on its nonzeros; every other X or form through the
    dense product.  Either route takes only values of the coefficient tower
    (``_check_tower``) in X; omega is checked first."""
    if omega is None:
        omega = standard_omega(X.rows // 2)
    _check_tower(omega.entries)
    d = X.rows
    if X.is_square and d % 2 == 0 and omega == standard_omega(d // 2):
        return _in_standard_sp(_flattened(X), d)
    _check_tower(X.entries)
    return (X.transpose() * omega + omega * X).is_zero


def _flattened(M: ExactMatrix) -> dict:
    """Nonzero entries of a square matrix keyed by flattened position.  An
    entry is read as zero when it is falsy, so every entry must be a value
    of the coefficient tower (``_check_tower``)."""
    _check_tower(M.entries)
    return {r * M.cols + c: x for r, row in enumerate(M.entries) for c, x in enumerate(row) if x}


def _in_standard_sp(flat: dict, d: int) -> bool:
    """X^T Omega + Omega X = 0 for the standard Omega of even size d, from
    the nonzeros of X keyed by flattened position r d + c.  With s_i = +1 on
    even i and -1 on odd i, Omega[i][i^1] = s_i is the only nonzero of row
    i, so entry (a^1, b) of the sum is s_(a^1) (X[a][b] + s_a s_b X[b^1][a^1]):
    it vanishes when X[b^1][a^1] is -X[a][b] for a, b of equal parity and
    X[a][b] for unequal.  (a, b) -> (b^1, a^1) pairs the positions (a
    position with b = a^1 pairs with itself and is free), so the condition
    is read once per pair of nonzeros, at the lower position: a sum or a
    difference, zero exactly when falsy (see ``rings.is_zero``), over any
    ring.  A nonzero whose partner is zero fails outright."""
    for p, x in flat.items():
        a, b = divmod(p, d)
        q = (b ^ 1) * d + (a ^ 1)
        y = flat.get(q)
        if y is None:
            return False
        if q > p and (y - x if (a ^ b) & 1 else y + x):
            return False
    return True


def transvection(v, c, omega: ExactMatrix) -> ExactMatrix:
    """Symplectic transvection x -> x + c*omega(x,v)*v, i.e. I - c v v^T Omega.

    Exactly symplectic for every vector v and scalar c because v v^T Omega
    squares to zero (omega(v,v) = 0).
    """
    n = omega.rows
    wv = omega.apply(v)  # column Omega*v; then (v v^T Omega)_{ij} = -v_i (Omega v)_j
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = (1 if i == j else 0) + c * v[i] * wv[j]
            row.append(e)
        rows.append(row)
    return ExactMatrix(rows)


def _rank_one_update(U, v, w, p, q):
    """The rows of q U + p (U v) w^T for integer rows U: with M = U / D, w =
    Omega v and c = p / q, they are q D times M (I + c v w^T), the product
    of M with ``transvection(v, c, omega)``, in O(n^2) int operations."""
    mv = [sum(map(mul, row, v)) for row in U]
    return [[q * x + p * a * y for x, y in zip(row, w)] for row, a in zip(U, mv)]


class TrialRandom(random.Random):
    """``random.Random`` whose ``randint`` and ``choice`` draw straight from
    ``getrandbits``, by the base class's own rule: with n the size of the
    range or sequence, take r = getrandbits(n.bit_length()) and draw again
    while r >= n.  Every seed gives the stream ``random.Random`` gives, with
    none of the base methods' nested calls per draw.  An empty range or
    sequence, or a bound that is not an int, goes to the base method, which
    raises (or converts) as before; with n = 0 the loop would never end."""

    def randint(self, a, b):
        if type(a) is int and type(b) is int and a <= b:
            n = b - a + 1
            k = n.bit_length()
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            return a + r
        return super().randint(a, b)

    def choice(self, seq):
        n = len(seq)
        if n:
            k = n.bit_length()
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            return seq[r]
        return super().choice(seq)


def random_symplectic(n: int, seed: int) -> ExactMatrix:
    """Deterministic random element of Sp(2n, Q) with exact entries.

    Built as a product of symplectic transvections (equivalently, exponentials
    of rank-one nilpotents in sp), with small integer/rational parameters.
    The defining identity M^T Omega M = Omega is checked before returning.

    Each factor T = I + c v (Omega v)^T (``transvection``) is applied as the
    rank-one update M T = M + c (M v)(Omega v)^T on M = U / D with U an
    integer matrix (``_rank_one_update``).  The entries come out typed as
    the dense product ``M * transvection(v, c, omega)`` types them: ints
    until the first Fraction parameter, Fractions after it, except an int 0
    where no product of the last factor landed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = TrialRandom(seed)
    omega = standard_omega(n)
    dim = 2 * n
    U = [[int(i == j) for j in range(dim)] for i in range(dim)]
    D = 1
    rational = False
    for _ in range(rng.randint(3, 6)):
        v = [rng.randint(-2, 2) for _ in range(dim)]
        if all(x == 0 for x in v):
            v[rng.randrange(dim)] = 1
        c = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
        w = omega.apply(v)
        p, q = c.numerator, c.denominator
        prev = U
        U = _rank_one_update(U, v, w, p, q)
        D *= q
        rational = rational or isinstance(c, Fraction)

    def entry(i, j):
        x = U[i][j]
        if not rational:
            return x
        # a zero is Fraction(0) where a product of the last factor landed
        if x or any(a and (m == j) + c * v[m] * w[j] for m, a in enumerate(prev[i])):
            return Fraction(x, D)
        return 0

    M = ExactMatrix._trusted(
        tuple(tuple(entry(i, j) for j in range(dim)) for i in range(dim)), dim
    )
    if not is_symplectic(M, omega):
        raise NotSymplecticError("product of transvections is not symplectic")
    return M


def random_symplectic_laurent(n: int, seed: int, var: str = "z") -> ExactMatrix:
    """Random symplectic matrix over the Laurent ring Q[var, var^-1].

    Product of transvections whose scalar parameter is c*var^k; each factor is
    exactly symplectic for the standard form, hence so is the product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = TrialRandom(seed)
    omega = standard_omega(n)
    dim = 2 * n
    M = ExactMatrix.identity(dim)
    for _ in range(rng.randint(2, 4)):
        v = [rng.randint(-2, 2) for _ in range(dim)]
        if not any(v):
            v[rng.randrange(dim)] = 1
        c = LaurentPoly.term(var, rng.randint(-2, 2), rng.choice([1, -1, 2]))
        M = M * transvection(v, c, omega)
    if not is_symplectic(M, omega):
        raise NotSymplecticError("product of Laurent transvections is not symplectic")
    return M
