"""Matrix Lie algebras with exact structure constants, symplectic
representations with declared summand decompositions, commutant and
intertwiner computations, and the multiplicity-freeness test.

Decompositions are declared by constructors and verified, not discovered:
the verification surface checks invariance and certifies irreducibility
through commutant dimensions instead of running a full Meataxe.

The built-in constructors (``sp_algebra``, ``sp_standard``, ``sl2_algebra``,
``sl2_standard``, ``sl2_w_plus_wdual``, ``sl2_sym_cube``, ``trivial_rep`` and
``direct_sum``) write the nonzeros of their matrices directly; the public
constructors flatten the matrices they are given, and a None, 0.0 or ""
entry, which flattening would read as zero, raises UnsupportedRingError.

An algebra proves its basis independent at construction by one elimination
of the basis rows alone; its coordinate solver, read off
``matrix._cleared_inverse``, is built on first read (by ``coordinates_of``,
the structure constants or ``_den``), so petri alone never builds it.  A
representation caches rho cleared once (``_rho_cleared``) and its pairing
forms A_j = rho_j^T Omega (``_pairing``): the moment context reads both,
and petri takes its kernels from the pairing forms directly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from ._record import Record
from .matrix import (
    ExactMatrix,
    _cleared,
    _cleared_inverse,
    _echelon,
    _flattened,
    _in_standard_sp,
    _integer_flats,
    _integer_row,
    _row_echelon,
    in_sp,
    inverse,
    rank,
    standard_omega,
)
from .rings import _check_tower, _is_rat


class InvariantFormError(ValueError):
    """The invariant symplectic form of a representation is not unique up to scale."""


class RepFormatError(ValueError):
    """Text that ``rep_from_text`` cannot read as a representation."""


class MatrixLieAlgebra:
    """A Lie algebra given by a linearly independent list of ambient square
    matrices, closed under the bracket.  The nonzeros of the basis matrices
    (``_flat``) are the stored format; ``basis`` keeps the matrices given to
    the constructor, or is built from ``_flat`` on first read.

    Closure is settled at construction.  A basis of d(d+1)/2 elements of
    sp(Omega), Omega the standard form of an even size d, each checked by
    the pair rule on its nonzeros (``matrix._in_standard_sp``), spans
    sp(Omega): one elimination of the basis rows alone, which every basis
    gets at construction (a dependent one raises ValueError), has proved
    the elements independent, and that is the dimension of sp(Omega).
    sp(Omega) is closed, so nothing more is checked.  Any other basis has
    every bracket solved at construction, which raises ValueError when one
    lies outside the span.  The coordinate solver (``_coord_solver``, and
    with it ``_den``) and the structure constants (``_constants``) are
    built on first read, for a proved basis as for any other, and each
    bracket is checked on the full system then.
    """

    def __init__(self, basis, name: str = ""):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        d = basis[0].rows
        if any(not b.is_square or b.rows != d for b in basis):
            raise ValueError("basis matrices must be square of equal size")
        self.basis = basis
        self._set_up([_flattened(b) for b in basis], d, name)

    def _set_up(self, flat, d: int, name: str):
        self.name = name
        self.ambient_dim = d
        self.dim = len(flat)
        self._flat = flat
        if len(_echelon(_integer_flats(flat)[0], d * d)) < len(flat):
            raise ValueError("basis matrices are linearly dependent")
        if not (d % 2 == 0 and len(flat) == d * (d + 1) // 2 and all(_in_standard_sp(f, d) for f in flat)):
            self._constants  # the all-pairs closure check

    @cached_property
    def _coord_solver(self) -> "_CoordinateSolver":
        return _CoordinateSolver(self._flat, self.ambient_dim ** 2)

    @property
    def _den(self) -> int:
        """The solver's den: the structure constants are integers over it."""
        return self._coord_solver.den

    @cached_property
    def basis(self) -> tuple:
        return tuple(_combination((1,), (f,), self.ambient_dim) for f in self._flat)

    @cached_property
    def _constants(self) -> list:
        """Each structure constant once, as (i, j, k, den c^k_ij) for i < j
        over the nonzero c, ascending, with den the solver's: integers for an
        integer basis.  Every bracket is solved and checked on the full
        system; one outside the span raises ValueError.  A pair with no
        product term brackets to zero."""
        out = []
        for i, j, br in _brackets(self._flat, self.ambient_dim):
            scaled = self._coord_solver.scaled_coords(br)
            if scaled is None:
                raise ValueError("basis is not closed under the bracket")
            out.extend((i, j, k, x) for k, x in sorted(scaled.items()) if x)
        return out

    @cached_property
    def structure_constants(self) -> dict:
        """``{(i, j): {k: c^k_ij}}`` over the nonzero c, for i != j, as
        Fractions: [X_i, X_j] = sum_k c^k_ij X_k.  A view of ``_constants``."""
        table = {}
        for i, j, k, x in self._constants:
            c = Fraction(x, self._den)
            table.setdefault((i, j), {})[k] = c
            table.setdefault((j, i), {})[k] = -c
        return table

    def bracket_coords(self, i: int, j: int) -> dict:
        """Sparse coordinates of [X_i, X_j] in the basis."""
        return self.structure_constants.get((i, j), {})

    def coordinates_of(self, M: ExactMatrix):
        """Coordinates of an ambient matrix in the basis, or None."""
        if (M.rows, M.cols) != (self.ambient_dim, self.ambient_dim):
            return None
        return self._coord_solver.coords(_flattened(M))

    def from_coordinates(self, coords) -> ExactMatrix:
        return _combination(coords, self._flat, self.ambient_dim)

    @cached_property
    def _trace_form(self) -> list:
        """Row i of the Gram matrix of the trace form B(X, Y) = tr(XY) as
        ``{j: B(X_i, X_j)}`` over its nonzeros."""
        d = self.ambient_dim
        # tr(XY) = sum over entries X_rc of X_rc * Y_cr: at[p] lists the
        # (j, X_j entry) whose transposed position is p
        at = {}
        for j, f in enumerate(self._flat):
            for p, y in f.items():
                at.setdefault((p % d) * d + p // d, []).append((j, y))
        rows = []
        for f in self._flat:
            row = {}
            for p, x in f.items():
                for j, y in at.get(p, ()):
                    row[j] = row.get(j, 0) + x * y
            rows.append({j: x for j, x in row.items() if x})
        return rows

    def trace_gram(self) -> ExactMatrix:
        """Gram matrix of the trace form on the basis, from ``_trace_form``."""
        return ExactMatrix([[row.get(j, 0) for j in range(self.dim)] for row in self._trace_form])


def _brackets(flats, d: int):
    """``[(i, j, [X_i, X_j])]`` in ascending (i, j), i < j, of d x d
    matrices X given by their nonzero entries keyed by flattened position
    (``_flattened``), over the pairs whose products have a term; every
    other pair brackets to zero.  One sparse all-pairs product, row by row
    (Gustavson, ACM TOMS 4 (1978)): each nonzero X_i[r][m] meets every
    nonzero X_j[m][c] of row m, adding X_i[r][m] X_j[m][c] at (r, c) to
    [X_i, X_j] when i < j and subtracting it from [X_j, X_i] when j < i.
    A bracket may hold zeros where its terms cancel."""
    at_row = {}
    for j, flat in enumerate(flats):
        for p, y in flat.items():
            m, c = divmod(p, d)
            at_row.setdefault(m, []).append((j, c, y))
    out = {}
    for i, flat in enumerate(flats):
        for p, x in flat.items():
            m = p % d
            rd = p - m  # r d, for p in row r
            for j, c, y in at_row.get(m, ()):
                if j > i:
                    pair, v = (i, j), x * y
                elif j < i:
                    pair, v = (j, i), -x * y
                else:
                    continue
                br = out.get(pair)
                if br is None:
                    out[pair] = br = {}
                br[rd + c] = br.get(rd + c, 0) + v
    return [(i, j, out[i, j]) for i, j in sorted(out)]


class _CoordinateSolver:
    """Solves sum_j c_j X_j = Y for a fixed linearly independent list of
    flattened matrices X_j, given as sparse {position: value} maps.

    ``matrix._cleared_inverse`` of the rows X_j of F (ValueError when they
    are dependent) gives the D pivot positions ``sel`` at which the X_j
    are independent, den, and ``inv``: each P_r to its nonzero
    (j, den E[r][j]), E the inverse of F on the columns P, so
    c_j = sum_r E[r][j] y[P_r].  A solve walks the nonzeros of y only and
    sums den c in integers (for an integer y); the result is checked on
    the full system before den is divided out.
    """

    def __init__(self, columns, size: int):
        self.columns = columns
        self.den, inv = _cleared_inverse(columns, size)
        self.sel = list(inv)
        self.inv = {p: list(row.items()) for p, row in inv.items()}

    def scaled_coords(self, y: dict):
        """``{j: den c_j}`` over the j that the nonzeros of ``y`` reach, for
        the flattened matrix with entries ``y``, or None when it lies
        outside the span."""
        inv = self.inv
        acc = {}
        for pos, v in y.items():
            if v and pos in inv:
                for j, e in inv[pos]:
                    acc[j] = acc.get(j, 0) + e * v
        # verify on the full system; None signals y outside the span
        back = {}
        for j, cj in acc.items():
            if cj:
                for pos, x in self.columns[j].items():
                    back[pos] = back.get(pos, 0) + cj * x
        den = self.den
        if {p: v for p, v in back.items() if v} != {p: den * v for p, v in y.items() if v}:
            return None
        return acc

    def coords(self, y: dict):
        """Coordinates of the flattened matrix with nonzero entries ``y``, or
        None when it lies outside the span."""
        scaled = self.scaled_coords(y)
        if scaled is None:
            return None
        c = [0] * len(self.columns)
        for j, x in scaled.items():
            c[j] = Fraction(x, self.den)
        return tuple(c)


class Summand(Record):
    """Declared indecomposable symplectic summand.

    ``kind`` is "irreducible" for an irreducible symplectic summand or
    "dual-pair" for a summand of shape W + W*, in which case ``mid`` separates
    the two halves: omega is nondegenerate on the whole block and zero on
    each half.  Any other kind, or a ``mid`` on an irreducible summand,
    raises ValueError.
    """

    def __init__(self, kind: str, lo: int, hi: int, mid: int | None = None):
        self._store(locals())
        if kind == "irreducible":
            if mid is not None:
                raise ValueError("an irreducible summand has no mid")
        elif kind != "dual-pair":
            raise ValueError(f"a summand kind is 'irreducible' or 'dual-pair', not {kind!r}")

    def constituents(self, tag: str):
        if self.kind == "irreducible":
            return [(tag, (self.lo, self.hi))]
        return [(f"{tag}.W", (self.lo, self.mid)), (f"{tag}.W*", (self.mid, self.hi))]


class CheckReport(Record):
    def __init__(self, checks: tuple):
        self._store(locals())

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_names(self):
        return [name for name, ok in self.checks if not ok]


class SymplecticRep:
    """A symplectic representation rho: g -> sp(V, omega) with a declared
    decomposition into indecomposable symplectic summands.  As in
    ``MatrixLieAlgebra``, the nonzeros of the rho images (``_rho_flat``) are
    stored, and ``rho`` keeps the given matrices or is built on first read.
    The public constructor takes only values of the coefficient tower in
    rho and omega (``rings._check_tower``), so no entry is read as zero
    unless it is one.  ``_rho_cleared`` and ``_pairing``, the forms
    omega(rho(X_j) psi, psi), are what moment and petri read."""

    def __init__(self, algebra: MatrixLieAlgebra, omega: ExactMatrix, rho, summands, name: str = ""):
        _check_tower(omega.entries)
        self.rho = tuple(rho)
        if any((R.rows, R.cols) != (omega.rows, omega.rows) for R in self.rho):
            raise ValueError("each rho image must be dimV x dimV")
        self._set_up(algebra, omega, [_flattened(R) for R in self.rho], summands, name)

    def _set_up(self, algebra, omega, rho_flat, summands, name: str):
        self.algebra = algebra
        self.omega = omega
        self._rho_flat = rho_flat
        self.summands = tuple(summands)
        self.name = name
        self.dimV = omega.rows
        if len(rho_flat) != algebra.dim:
            raise ValueError("need one image per basis element")
        # the sorted spans must each be nonempty and tile range(dimV) end to end
        end = 0
        for lo, hi in sorted((s.lo, s.hi) for s in self.summands):
            if not lo == end < hi:
                raise ValueError("summands must partition the coordinate range")
            end = hi
        if end != self.dimV:
            raise ValueError("summands must partition the coordinate range")
        for s in self.summands:
            if s.kind != "irreducible" and not (s.mid is not None and s.lo < s.mid < s.hi):
                raise ValueError("a dual-pair summand needs lo < mid < hi")

    @cached_property
    def rho(self) -> tuple:
        return tuple(_combination((1,), (f,), self.dimV) for f in self._rho_flat)

    @cached_property
    def _rho_cleared(self) -> tuple:
        """``(d, table)``: the nonzeros (j, row, col, d rho_j[row][col]) in
        ints, d their common denominator, cleared by ``matrix._cleared``."""
        m = self.dimV
        R, d = _cleared([x for flat in self._rho_flat for x in flat.values()])
        it = iter(R)
        return d, [(j, *divmod(p, m), next(it)) for j, flat in enumerate(self._rho_flat) for p in flat]

    @cached_property
    def _pairing(self) -> tuple:
        """``(den, table)``: the pairing forms A_j = rho_j^T Omega, with
        psi^T A_j psi = omega(rho(X_j) psi, psi), as the flat list ``table``
        of the nonzeros (j, row, col, value) of den A_j, in ints.  rho comes
        from ``_rho_cleared`` and omega is cleared by ``matrix._cleared``,
        and den is the product of their two denominators.  Each A_j is
        listed in the order its entries are first reached, walking the
        nonzeros of rho_j and then of the matching row of Omega."""
        m = self.dimV
        d, rho = self._rho_cleared
        W, w = _cleared([x for row in self.omega.entries for x in row])
        omega_rows = [[(c, v) for c, v in enumerate(W[r * m:(r + 1) * m]) if v] for r in range(m)]
        As = [{} for _ in self._rho_flat]
        for j, r, c, x in rho:
            A = As[j]
            for c2, v in omega_rows[r]:
                A[c, c2] = A.get((c, c2), 0) + x * v
        return d * w, [(j, *rc, a) for j, A in enumerate(As) for rc, a in A.items() if a]

    def constituents(self):
        out = []
        for i, s in enumerate(self.summands):
            out.extend(s.constituents(f"summand{i}"))
        return out

    def rho_of(self, coords) -> ExactMatrix:
        """Image of the algebra element with the given basis coordinates."""
        return _combination(coords, self._rho_flat, self.dimV)


def _sparse(cls, *args):
    """A ``cls`` set up from nonzeros by its ``_set_up``, past its dense constructor."""
    self = cls.__new__(cls)
    self._set_up(*args)
    return self


def _combination(coords, flats, d: int) -> ExactMatrix:
    """sum_j coords[j] * X_j as a d x d matrix, from the nonzero entries of
    each X_j keyed by flattened position (``_flattened``), skipping rational
    zero coordinates.

    Each entry equals that of the dense sum 0 + c_1 X_1 + c_2 X_2 + ...  At
    a position where every X_j is zero the entry is that sum's zero
    0 + c_1 * 0 + ..., so it stays in the ring of the coordinates; elsewhere
    the sum starts from the first product, as in ``rings.dot``.
    """
    zero = 0
    acc = {}
    for c, flat in zip(coords, flats):
        if _is_rat(c) and c == 0:
            continue
        zero = zero + c * 0
        for p, x in flat.items():
            s = acc.get(p)
            acc[p] = c * x if s is None else s + c * x
    out = [zero] * (d * d)
    for p, s in acc.items():
        out[p] = s
    return ExactMatrix([out[r * d:(r + 1) * d] for r in range(d)], cols=d)


def verify_symplectic_rep(rep: SymplecticRep) -> CheckReport:
    """Run every structural check; failures become report entries, not errors.

    Each summand, whatever its kind, gets "omega nondegenerate on
    summand{i}": omega restricted to its block has full rank.  A dual pair
    then gets "W isotropic in summand{i}" and "W* isotropic in summand{i}":
    omega is zero on each half."""
    checks = []
    omega = rep.omega
    checks.append(("omega antisymmetric", omega.transpose() == omega.scale(-1)))
    checks.append(("omega invertible", rank(omega) == rep.dimV))

    # the pair rule on the nonzeros against the standard form; the dense
    # view for any other form
    m = rep.dimV
    if m % 2 == 0 and omega == standard_omega(m // 2):
        members = [_in_standard_sp(f, m) for f in rep._rho_flat]
    else:
        members = [in_sp(R, omega) for R in rep.rho]
    checks.extend((f"sp-membership rho(X{i})", ok) for i, ok in enumerate(members))

    # den [rho_i, rho_j] = sum_k den c^k_ij rho_k, compared on the nonzero
    # entries, over every pair where either side has a term
    alg = rep.algebra
    want = {}
    for i, j, k, c in alg._constants:
        w = want.setdefault((i, j), {})
        for p, x in rep._rho_flat[k].items():
            w[p] = w.get(p, 0) + c * x
    rho_brackets = {(i, j): br for i, j, br in _brackets(rep._rho_flat, m)}
    hom = ("homomorphism on all basis pairs", True)
    for i, j in sorted(rho_brackets.keys() | want.keys()):
        br, w = rho_brackets.get((i, j), {}), want.get((i, j), {})
        if any(alg._den * br.get(p, 0) != w.get(p, 0) for p in br.keys() | w.keys()):
            hom = (f"homomorphism fails on (X{i}, X{j})", False)
            break
    checks.append(hom)

    # a span is invariant when no nonzero of a rho maps into its complement
    at = [divmod(p, m) for flat in rep._rho_flat for p in flat]
    for tag, (lo, hi) in rep.constituents():
        span = range(lo, hi)
        checks.append((f"invariance of {tag}", not any(c in span and r not in span for r, c in at)))

    for i, s in enumerate(rep.summands):
        block = range(s.lo, s.hi)
        checks.append((f"omega nondegenerate on summand{i}", rank(omega.submatrix(block, block)) == len(block)))
        if s.kind == "dual-pair":
            for half, span in (("W", range(s.lo, s.mid)), ("W*", range(s.mid, s.hi))):
                checks.append((f"{half} isotropic in summand{i}", omega.submatrix(span, span).is_zero))
    return CheckReport(tuple(checks))


def _joint_kernel(maps, ncols: int):
    """Basis of the joint kernel of linear maps on Q^ncols, each given by
    its nonempty sparse rational rows: one ``_row_echelon`` of all of them."""
    return _row_echelon([_integer_row(r) for rows in maps for r in rows], ncols)[1]


def _sylvester(a, b, p: int, q: int):
    """Rows of the map T -> T A + B T on p x q matrices T flattened row by
    row, for A (q x q) and B (p x p) given by their nonzero (row, col,
    value) entries: ``{r q + c: row}`` over the nonempty rows, each a dict
    of nonzeros.  Row r q + c holds A[k][c] at r q + k and B[r][k] at
    k q + c; the two meet only at r q + c, dropped there when they cancel."""
    rows = {}
    for k, c, x in a:  # (T A)_{rc} = sum_k T_{rk} A_{kc}
        for r in range(p):
            rows.setdefault(r * q + c, {})[r * q + k] = x
    for r, k, y in b:  # (B T)_{rc} = sum_k B_{rk} T_{kc}
        for c in range(q):
            row = rows.setdefault(r * q + c, {})
            s = row.pop(k * q + c, 0) + y
            if s:
                row[k * q + c] = s
    return {i: row for i, row in rows.items() if row}


def _intertwiners(rep: SymplecticRep, ra: range, rb: range):
    """Basis of the len(rb) x len(ra) matrices T, flattened, with
    T rho_a(X) = rho_b(X) T for every basis image, rho_a and rho_b the
    diagonal blocks of rho(X) on the coordinate ranges ra and rb."""
    maps = []
    for flat in rep._rho_flat:
        at = [(*divmod(p, rep.dimV), x) for p, x in flat.items()]
        a = [(r - ra.start, c - ra.start, x) for r, c, x in at if r in ra and c in ra]
        b = [(r - rb.start, c - rb.start, -x) for r, c, x in at if r in rb and c in rb]
        maps.append(_sylvester(a, b, len(rb), len(ra)).values())
    return _joint_kernel(maps, len(ra) * len(rb))


def commutant(rep: SymplecticRep):
    """Basis of End_g(V), computed as the joint kernel of
    A -> A rho(X_i) - rho(X_i) A."""
    m = rep.dimV
    ker = _intertwiners(rep, range(m), range(m))
    return [ExactMatrix([v[r * m : (r + 1) * m] for r in range(m)]) for v in ker]


def hom_space(rep: SymplecticRep, a: int, b: int) -> int:
    """Dimension of the intertwiner space Hom_g between two declared
    constituents (dual-pair summands contribute W and W* separately)."""
    cons = rep.constituents()
    if not (0 <= a < len(cons) and 0 <= b < len(cons)):
        raise IndexError("constituent index out of range")
    return len(_intertwiners(rep, range(*cons[a][1]), range(*cons[b][1])))


class SaturationVerdict(Record):
    def __init__(
        self,
        status: str,  # "TRUE", "FALSE", or "INCONCLUSIVE"
        witnesses: tuple = (),
    ):
        self._store(locals())

    def __bool__(self):
        return self.status == "TRUE"


def almost_saturated_check(rep: SymplecticRep) -> SaturationVerdict:
    """Multiplicity-freeness test for the declared decomposition.

    TRUE iff all constituents in distinct summands have zero intertwiner
    space and each dual-pair summand has Hom(W, W*) = 0.  Declared
    irreducibility is certified first via a one-dimensional Hom(a, a) on
    each constituent a; a failed certificate aborts with INCONCLUSIVE.
    """
    report = verify_symplectic_rep(rep)
    if not report.passed:
        raise ValueError(f"representation fails verification: {report.failed_names()}")

    cons = rep.constituents()
    spans = [range(*span) for _, span in cons]
    for (tag, _), span in zip(cons, spans):
        if len(_intertwiners(rep, span, span)) != 1:
            return SaturationVerdict("INCONCLUSIVE", ((tag, "commutant dimension > 1"),))

    # a dual pair's W starts at its lo, and its W* is the next constituent;
    # every other pair a < b lies in two distinct summands
    starts = {s.lo for s in rep.summands if s.kind == "dual-pair"}
    halves = [(a, a + 1) for a, span in enumerate(spans) if span.start in starts]
    pairs = [(a, b) for a in range(len(cons)) for b in range(a + 1, len(cons)) if (a, b) not in halves]
    witnesses = tuple(
        (cons[a][0], cons[b][0]) for a, b in pairs + halves if _intertwiners(rep, spans[a], spans[b])
    )
    return SaturationVerdict("FALSE", witnesses) if witnesses else SaturationVerdict("TRUE")


# -- constructors -----------------------------------------------------------


@lru_cache(maxsize=None)
def sp_algebra(n: int) -> MatrixLieAlgebra:
    """sp(2n) in the interleaved frame: X = Omega^{-1} S for S symmetric."""
    dim = 2 * n
    # -Omega (E_ij + E_ji), or -Omega E_ii: row 2k of -Omega is -e_{2k+1}
    # and row 2k+1 is e_{2k}, so E_ab moves to row a ^ 1; each element's one
    # or two nonzeros in ascending position
    flat = [
        dict(sorted({(a ^ 1) * dim + b: -1 if a % 2 else 1 for a, b in ((i, j), (j, i))}.items()))
        for i in range(dim) for j in range(i, dim)
    ]
    return _sparse(MatrixLieAlgebra, flat, dim, f"sp{2*n}")


# The largest n of sp_standard, and so of a suite's n.
MAX_N = 4


@lru_cache(maxsize=None)
def sp_standard(n: int) -> SymplecticRep:
    """Standard representation of sp(2n) on its defining symplectic space."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"supported range is 1 <= n <= {MAX_N}")
    alg = sp_algebra(n)
    return _sparse(
        SymplecticRep, alg, standard_omega(n), alg._flat, [Summand("irreducible", 0, 2 * n)], f"sp{2*n}-standard"
    )


def _sym_power(k: int) -> list:
    """Nonzeros of e, h and f acting on Sym^k of the standard module of sl2,
    in the monomial basis x^(k-j) y^j, j = 0..k, keyed by flattened position
    in ascending order: by derivation from e y = x, h x = x, h y = -y and
    f x = y, e gives j at (j-1, j), h gives k-2j at (j, j) and f gives k-j at
    (j+1, j).  Sym^1 is the defining module."""
    d = k + 1
    return [
        {(j - 1) * d + j: j for j in range(1, d)},
        {j * d + j: k - 2 * j for j in range(d) if k != 2 * j},
        {(j + 1) * d + j: k - j for j in range(k)},
    ]


@lru_cache(maxsize=None)
def sl2_algebra() -> MatrixLieAlgebra:
    return _sparse(MatrixLieAlgebra, _sym_power(1), 2, "sl2")


@lru_cache(maxsize=None)
def sl2_w_plus_wdual() -> SymplecticRep:
    """sl2 acting on W + W* (W the standard module), with the duality
    pairing as symplectic form; coordinates are (u1, u2, delta1, delta2)."""
    alg = sl2_algebra()
    # X at (r, c) and -X^T at (c + 2, r + 2), in ascending position
    rho = []
    for f in alg._flat:
        at = [(*divmod(p, 2), x) for p, x in f.items()]
        pairs = [(r * 4 + c, x) for r, c, x in at] + [((c + 2) * 4 + r + 2, -x) for r, c, x in at]
        rho.append(dict(sorted(pairs)))
    z, I2 = ExactMatrix.zeros(2, 2), ExactMatrix.identity(2)
    omega = ExactMatrix.from_blocks([[z, I2], [I2.scale(-1), z]])
    return _sparse(SymplecticRep, alg, omega, rho, [Summand("dual-pair", 0, 4, mid=2)], "sl2-W+W*")


@lru_cache(maxsize=None)
def sl2_standard() -> SymplecticRep:
    """sl2 on its standard 2-dimensional module, viewed inside sp(2)."""
    alg = sl2_algebra()
    return _sparse(SymplecticRep, alg, standard_omega(1), alg._flat, [Summand("irreducible", 0, 2)], "sl2-standard")


@lru_cache(maxsize=None)
def sl2_sym_cube() -> SymplecticRep:
    """sl2 on the third symmetric power of the standard module: a
    4-dimensional irreducible symplectic representation.  The invariant
    form is computed (and certified unique up to scale) at construction."""
    k = 3
    alg, rho, d = sl2_algebra(), _sym_power(k), k + 1

    # solve W rho(X) + rho(X)^T W = 0, W + W^T = 0 (2 W_rr at r = c), over d^2 unknowns
    symmetric_part = [
        {r * d + c: 1, c * d + r: 1} if r != c else {r * (d + 1): 2} for r in range(d) for c in range(d)
    ]
    entries = [[(*divmod(p, d), x) for p, x in f.items()] for f in rho]
    maps = [_sylvester(a, [(c, r, x) for r, c, x in a], d, d).values() for a in entries]
    ker = _joint_kernel(maps + [symmetric_part], d * d)
    if len(ker) != 1:
        raise InvariantFormError(f"expected a unique invariant form up to scale, found {len(ker)}")
    v = ker[0]
    scale = 1
    for x in v:
        scale = scale * Fraction(x).denominator
    v = [Fraction(x) * scale for x in v]
    omega = ExactMatrix([v[r * d:(r + 1) * d] for r in range(d)])
    if omega.entries[0][d - 1] < 0:
        omega = omega.scale(-1)
    return _sparse(SymplecticRep, alg, omega, rho, [Summand("irreducible", 0, d)], "sl2-Sym3")


def trivial_rep(algebra: MatrixLieAlgebra, n: int = 1) -> SymplecticRep:
    """rho = 0 on a standard symplectic space of half-dimension n."""
    return _sparse(
        SymplecticRep, algebra, standard_omega(n), [{}] * algebra.dim, [Summand("irreducible", 0, 2 * n)], "trivial"
    )


def direct_sum(r1: SymplecticRep, r2: SymplecticRep) -> SymplecticRep:
    """Direct sum of two representations of the same algebra."""
    a1, a2 = r1.algebra, r2.algebra
    if a1 is not a2 and (a1.ambient_dim, a1._flat) != (a2.ambient_dim, a2._flat):
        raise ValueError("direct sum needs a common algebra")
    z12 = ExactMatrix.zeros(r1.dimV, r2.dimV)
    z21 = ExactMatrix.zeros(r2.dimV, r1.dimV)
    omega = ExactMatrix.from_blocks([[r1.omega, z12], [z21, r2.omega]])
    off, d = r1.dimV, omega.rows
    # r1's entry (r, c) stays at (r, c), r2's moves to (r + off, c + off)
    rho = [
        {(p // k + o) * d + p % k + o: x for f, k, o in ((f1, off, 0), (f2, r2.dimV, off)) for p, x in f.items()}
        for f1, f2 in zip(r1._rho_flat, r2._rho_flat)
    ]
    summands = list(r1.summands) + [
        Summand(s.kind, s.lo + off, s.hi + off, None if s.mid is None else s.mid + off)
        for s in r2.summands
    ]
    return _sparse(SymplecticRep, r1.algebra, omega, rho, summands, f"{r1.name}+{r2.name}")


def conjugate_rep(rep: SymplecticRep, g: ExactMatrix) -> SymplecticRep:
    """Change of basis by an invertible g; summand structure collapses to a
    single declared block since coordinate spans are not preserved."""
    ginv = inverse(g)
    rho = [g * R * ginv for R in rep.rho]
    omega = ginv.transpose() * rep.omega * ginv
    return SymplecticRep(
        rep.algebra, omega, rho, [Summand("irreducible", 0, rep.dimV)],
        name=f"{rep.name}-conjugated",
    )


# -- line-oriented text serialization ---------------------------------------


_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_COUNT = "[0-9]+"


def _fmt_frac(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _fmt_matrix(M: ExactMatrix) -> str:
    return " ".join(_fmt_frac(x) for r in M.entries for x in r)


def _parse_matrix(tokens, n: int) -> ExactMatrix:
    # Only the forms _fmt_frac writes: Fraction alone would also take a
    # decimal exponent and expand 1e100000000 digit by digit.
    if not all(re.fullmatch(_RATIONAL, t) for t in tokens):
        raise ValueError("matrix entries must be integers or p/q")
    vals = [Fraction(t) for t in tokens]
    if len(vals) != n * n:
        raise ValueError("wrong entry count for matrix")
    return ExactMatrix([vals[i * n : (i + 1) * n] for i in range(n)])


def rep_to_text(rep: SymplecticRep) -> str:
    """Line-oriented text form: header, algebra basis, omega, rho images,
    and summand declarations, with all entries as rationals.  The name must
    be one token of ``str.split`` (an empty name is written as "unnamed")."""
    name = rep.name or "unnamed"
    if name.split() != [name]:
        raise ValueError(f"a representation name must be one token without whitespace, not {name!r}")
    lines = [f"spinorlab-rep 1 {name}"]
    lines.append(f"algebra {rep.algebra.dim} {rep.algebra.ambient_dim}")
    for X in rep.algebra.basis:
        lines.append("X " + _fmt_matrix(X))
    lines.append(f"dimV {rep.dimV}")
    lines.append("omega " + _fmt_matrix(rep.omega))
    for R in rep.rho:
        lines.append("rho " + _fmt_matrix(R))
    for s in rep.summands:
        if s.kind == "irreducible":
            lines.append(f"summand irr {s.lo} {s.hi}")
        else:
            lines.append(f"summand dual {s.lo} {s.mid} {s.hi}")
    return "\n".join(lines) + "\n"


def rep_from_text(text: str) -> SymplecticRep:
    """Inverse of ``rep_to_text``.  Truncated, garbled or inconsistent text,
    or any line that ``rep_to_text`` would not write, raises RepFormatError."""
    try:
        return _parse_rep(text)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise RepFormatError(f"malformed representation text: {exc}") from exc


def _fields(tokens, tag: str):
    """The tokens after ``tag`` on a line that starts with it."""
    if tokens[0] != tag:
        raise ValueError(f"expected a {tag} line, got {tokens[0]!r}")
    return tokens[1:]


def _counts(tokens, tag: str, k: int):
    """The k counts after ``tag``, each written in ASCII digits only: int()
    alone would also take a sign, underscores and non-ASCII digits."""
    fields = _fields(tokens, tag)
    if len(fields) != k or not all(re.fullmatch(_COUNT, t) for t in fields):
        raise ValueError(f"{tag} takes {k} counts in ASCII digits, got {fields}")
    return [int(t) for t in fields]


def _parse_rep(text: str) -> SymplecticRep:
    lines = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    head = lines[0]
    if len(head) != 3 or head[:2] != ["spinorlab-rep", "1"]:
        raise ValueError("the header must be 'spinorlab-rep 1 NAME'")
    dim, amb = _counts(lines[1], "algebra", 2)
    algebra = MatrixLieAlgebra([_parse_matrix(_fields(lines[2 + k], "X"), amb) for k in range(dim)])
    (dimv,) = _counts(lines[2 + dim], "dimV", 1)
    omega = _parse_matrix(_fields(lines[3 + dim], "omega"), dimv)
    rho = [_parse_matrix(_fields(lines[4 + dim + k], "rho"), dimv) for k in range(dim)]
    summands = []
    for tokens in lines[4 + 2 * dim:]:
        kind = _fields(tokens, "summand")[:1]
        if kind == ["irr"]:
            lo, hi = _counts(tokens[1:], "irr", 2)
            summands.append(Summand("irreducible", lo, hi))
        elif kind == ["dual"]:
            lo, mid, hi = _counts(tokens[1:], "dual", 3)
            summands.append(Summand("dual-pair", lo, hi, mid=mid))
        else:
            raise ValueError(f"a summand is irr or dual, not {kind}")
    return SymplecticRep(algebra, omega, rho, summands, name=head[2])
