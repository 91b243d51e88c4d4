"""Matrix Lie algebras with exact structure constants, symplectic
representations with declared summand decompositions, commutant and
intertwiner computations, and the multiplicity-freeness test.

Decompositions are declared by constructors and verified, not discovered:
the verification surface checks invariance and certifies irreducibility
through commutant dimensions instead of running a full Meataxe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .matrix import ExactMatrix, _cleared_rows, _reduce, in_sp, inverse, mat_rank_kernel, rank, standard_omega
from .rings import _is_rat, is_zero


def nonzero_entries(M: ExactMatrix):
    """The nonzero entries of a matrix as (row, col, value) triples."""
    return tuple((r, c, x) for r, row in enumerate(M.entries) for c, x in enumerate(row) if x)


def _flattened(M: ExactMatrix) -> dict:
    """Nonzero entries of a square matrix keyed by flattened position."""
    return {r * M.cols + c: x for r, c, x in nonzero_entries(M)}


class InvariantFormError(ValueError):
    """The invariant symplectic form of a representation is not unique up to scale."""


class RepFormatError(ValueError):
    """Text that ``rep_from_text`` cannot read as a representation."""


class MatrixLieAlgebra:
    """A Lie algebra given by a linearly independent list of ambient square
    matrices, closed under the bracket.  Structure constants are computed and
    the closure identity [X_i, X_j] = sum_k c^k_ij X_k is verified exactly at
    construction.
    """

    def __init__(self, basis, name: str = ""):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        d = basis[0].rows
        if any(not b.is_square or b.rows != d for b in basis):
            raise ValueError("basis matrices must be square of equal size")
        self.name = name
        self.basis = basis
        self.ambient_dim = d
        self.dim = len(basis)
        self._flat = [_flattened(b) for b in basis]
        self._coord_solver = _CoordinateSolver(self._flat, d * d)
        self.structure_constants = self._compute_structure_constants()

    def _compute_structure_constants(self):
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, j, br in _brackets(self._flat, self.ambient_dim):
            scaled = self._coord_solver.scaled_coords(br)
            if scaled is None:
                raise ValueError("basis is not closed under the bracket")
            den = self._coord_solver.den
            cs = {k: Fraction(x, den) for k, x in sorted(scaled.items()) if x}
            if cs:
                table[(i, j)] = cs
                table[(j, i)] = {k: -c for k, c in cs.items()}
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

    def trace_gram(self) -> ExactMatrix:
        """Gram matrix of the trace form B(X,Y) = tr(XY) on the basis."""
        d = self.ambient_dim
        # tr(XY) = sum over entries X_rc of X_rc * Y_cr: at[p] lists the
        # (j, X_j entry) whose transposed position is p
        at = {}
        for j, f in enumerate(self._flat):
            for p, y in f.items():
                at.setdefault((p % d) * d + p // d, []).append((j, y))
        gram = [[0] * self.dim for _ in range(self.dim)]
        for row, f in zip(gram, self._flat):
            for p, x in f.items():
                for j, y in at.get(p, ()):
                    row[j] += x * y
        return ExactMatrix(gram)


def _brackets(flats, d: int):
    """Yield (i, j, [X_i, X_j]) for every pair i < j, in order, of d x d
    matrices X given by their nonzero entries keyed by flattened position
    (``_flattened``).  Each bracket X_i X_j - X_j X_i is a map of the same
    kind, computed entry by entry from the nonzeros; it may hold zeros."""
    by_row = [{} for _ in flats]
    for rows, flat in zip(by_row, flats):
        for p, x in flat.items():
            rows.setdefault(p // d, []).append((p % d, x))
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            br = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, rows in by_row[a].items():
                    for m, x in rows:
                        for c, y in by_row[b].get(m, ()):
                            br[r * d + c] = br.get(r * d + c, 0) + sign * x * y
            yield i, j, br


class _CoordinateSolver:
    """Solves sum_j c_j X_j = Y for a fixed linearly independent list of
    flattened matrices X_j, given as sparse {position: value} maps.

    One fraction-free RREF of the D x (size + D) matrix [F | I], with F the
    D x size matrix whose rows are the X_j, does all the elimination.  Its
    pivots P are D positions at which the X_j are independent; its integer
    row r divided by its pivot entry has, in the right block, row r of the
    inverse E of F restricted to the columns P, so c_j = sum_r E[r][j] y[P_r].
    With den the lcm of the denominators of E (``matrix._cleared_rows``),
    den E is an integer matrix, kept as a map from each pivot position to its
    nonzero (j, den E[r][j]).  A solve walks the nonzeros of y only and sums
    den c in integers (for an integer y); the result is checked on the full
    system before den is divided out.
    """

    def __init__(self, columns, size: int):
        dim = len(columns)
        entries = []
        for j, col in enumerate(columns):
            row = [0] * (size + dim)
            for pos, x in col.items():
                row[pos] = x
            row[size + j] = 1
            entries.append(row)
        rows, self.sel = _reduce(entries, size)
        if len(self.sel) != dim:
            raise ValueError("basis matrices are linearly dependent")
        self.columns = columns
        self.den, inv = _cleared_rows(rows, self.sel, size)
        self.inv = {p: [(j, e) for j, e in enumerate(row) if e] for p, row in zip(self.sel, inv)}

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


@dataclass(frozen=True)
class Summand:
    """Declared indecomposable symplectic summand.

    ``kind`` is "irreducible" for an irreducible symplectic summand or
    "dual-pair" for a summand of shape W + W*, in which case ``mid`` separates
    the two isotropic halves.
    """

    kind: str
    lo: int
    hi: int
    mid: int | None = None

    def constituents(self, tag: str):
        if self.kind == "irreducible":
            return [(tag, (self.lo, self.hi))]
        return [(f"{tag}.W", (self.lo, self.mid)), (f"{tag}.W*", (self.mid, self.hi))]


@dataclass(frozen=True)
class CheckReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_names(self):
        return [name for name, ok in self.checks if not ok]


class SymplecticRep:
    """A symplectic representation rho: g -> sp(V, omega) with a declared
    decomposition into indecomposable symplectic summands."""

    def __init__(self, algebra: MatrixLieAlgebra, omega: ExactMatrix, rho, summands, name: str = ""):
        self.algebra = algebra
        self.omega = omega
        self.rho = tuple(rho)
        self.summands = tuple(summands)
        self.name = name
        self.dimV = omega.rows
        if len(self.rho) != algebra.dim:
            raise ValueError("need one image per basis element")
        # the sorted nonempty spans must tile range(dimV) end to end
        end = 0
        for lo, hi in sorted((s.lo, s.hi) for s in self.summands):
            if lo < hi:
                if lo != end:
                    raise ValueError("summands must partition the coordinate range")
                end = hi
        if end != self.dimV:
            raise ValueError("summands must partition the coordinate range")
        for s in self.summands:
            if s.kind != "irreducible" and not (s.mid is not None and s.lo < s.mid < s.hi):
                raise ValueError("a dual-pair summand needs lo < mid < hi")

    def constituents(self):
        out = []
        for i, s in enumerate(self.summands):
            out.extend(s.constituents(f"summand{i}"))
        return out

    def rho_of(self, coords) -> ExactMatrix:
        """Image of the algebra element with the given basis coordinates."""
        return _combination(coords, self._rho_flat, self.dimV)

    @cached_property
    def _rho_flat(self):
        return [_flattened(R) for R in self.rho]


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
    """Run every structural check; failures become report entries, not errors."""
    checks = []
    omega = rep.omega
    checks.append(("omega antisymmetric", omega.transpose() == omega.scale(-1)))
    checks.append(("omega invertible", rank(omega) == rep.dimV))

    for i, R in enumerate(rep.rho):
        checks.append((f"sp-membership rho(X{i})", in_sp(R, omega)))

    # [rho_i, rho_j] = sum_k c^k_ij rho_k, compared on the nonzero entries
    hom = ("homomorphism on all basis pairs", True)
    for i, j, br in _brackets(rep._rho_flat, rep.dimV):
        want = {}
        for k, c in rep.algebra.bracket_coords(i, j).items():
            for p, x in rep._rho_flat[k].items():
                want[p] = want.get(p, 0) + c * x
        if any(br.get(p, 0) != want.get(p, 0) for p in br.keys() | want.keys()):
            hom = (f"homomorphism fails on (X{i}, X{j})", False)
            break
    checks.append(hom)

    for tag, (lo, hi) in rep.constituents():
        inv_ok = all(
            is_zero(R.entries[r][c])
            for R in rep.rho
            for c in range(lo, hi)
            for r in list(range(0, lo)) + list(range(hi, rep.dimV))
        )
        checks.append((f"invariance of {tag}", inv_ok))

    for i, s in enumerate(rep.summands):
        if s.kind == "irreducible":
            sub = omega.submatrix(range(s.lo, s.hi), range(s.lo, s.hi))
            checks.append((f"omega nondegenerate on summand{i}", rank(sub) == s.hi - s.lo))
        else:
            w_iso = omega.submatrix(range(s.lo, s.mid), range(s.lo, s.mid)).is_zero
            ws_iso = omega.submatrix(range(s.mid, s.hi), range(s.mid, s.hi)).is_zero
            checks.append((f"W isotropic in summand{i}", w_iso))
            checks.append((f"W* isotropic in summand{i}", ws_iso))
    return CheckReport(tuple(checks))


def _joint_kernel(maps):
    """Basis of the joint kernel of linear maps (as ExactMatrix) with a
    common column count: one ``mat_rank_kernel`` of their stacked rows."""
    stacked = ExactMatrix([row for M in maps for row in M.entries], cols=maps[0].cols)
    return mat_rank_kernel(stacked)[1]


def _sylvester(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Matrix of the map T -> T A + B T on p x q matrices T flattened row by
    row, for A of size q x q and B of size p x p."""
    p, q = B.rows, A.rows
    rows = []
    for r in range(p):
        for c in range(q):
            row = [0] * (p * q)
            for k in range(q):
                row[r * q + k] += A.entries[k][c]  # (T A)_{rc} = sum_k T_{rk} A_{kc}
            for k in range(p):
                row[k * q + c] += B.entries[r][k]  # (B T)_{rc} = sum_k B_{rk} T_{kc}
            rows.append(row)
    return ExactMatrix(rows, cols=p * q)


def commutant(rep: SymplecticRep):
    """Basis of End_g(V), computed as the joint kernel of
    A -> A rho(X_i) - rho(X_i) A."""
    m = rep.dimV
    ker = _joint_kernel([_sylvester(R, -R) for R in rep.rho])
    return [ExactMatrix([v[r * m : (r + 1) * m] for r in range(m)]) for v in ker]


def hom_space(rep: SymplecticRep, a: int, b: int) -> int:
    """Dimension of the intertwiner space Hom_g between two declared
    constituents (dual-pair summands contribute W and W* separately)."""
    cons = rep.constituents()
    if not (0 <= a < len(cons) and 0 <= b < len(cons)):
        raise IndexError("constituent index out of range")
    ra, rb = range(*cons[a][1]), range(*cons[b][1])
    # unknown T (len(rb) x len(ra)): T Ra - Rb T = 0
    maps = [_sylvester(R.submatrix(ra, ra), -R.submatrix(rb, rb)) for R in rep.rho]
    return len(_joint_kernel(maps))


@dataclass(frozen=True)
class SaturationVerdict:
    status: str  # "TRUE", "FALSE", or "INCONCLUSIVE"
    witnesses: tuple = ()

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
    for a, (tag, _) in enumerate(cons):
        if hom_space(rep, a, a) != 1:
            return SaturationVerdict("INCONCLUSIVE", ((tag, "commutant dimension > 1"),))

    summand_of = []
    for i, s in enumerate(rep.summands):
        summand_of.extend([i] * len(s.constituents("x")))

    witnesses = []
    for a in range(len(cons)):
        for b in range(a + 1, len(cons)):
            if summand_of[a] == summand_of[b]:
                continue
            if hom_space(rep, a, b) != 0:
                witnesses.append((cons[a][0], cons[b][0]))
    for i, s in enumerate(rep.summands):
        if s.kind == "dual-pair":
            idx = [k for k, so in enumerate(summand_of) if so == i]
            if hom_space(rep, idx[0], idx[1]) != 0:
                witnesses.append((cons[idx[0]][0], cons[idx[1]][0]))
    if witnesses:
        return SaturationVerdict("FALSE", tuple(witnesses))
    return SaturationVerdict("TRUE")


# -- constructors -----------------------------------------------------------


@lru_cache(maxsize=None)
def sp_algebra(n: int) -> MatrixLieAlgebra:
    """sp(2n) in the interleaved frame: X = Omega^{-1} S for S symmetric."""
    dim = 2 * n
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            # -Omega (E_ij + E_ji), or -Omega E_ii: row 2k of -Omega is
            # -e_{2k+1} and row 2k+1 is e_{2k}, so E_ab moves to row a ^ 1
            X = [[0] * dim for _ in range(dim)]
            for a, b in ((i, j), (j, i)):
                X[a ^ 1][b] = -1 if a % 2 else 1
            basis.append(ExactMatrix(X))
    return MatrixLieAlgebra(basis, name=f"sp{2*n}")


@lru_cache(maxsize=None)
def sp_standard(n: int) -> SymplecticRep:
    """Standard representation of sp(2n) on its defining symplectic space."""
    if not 1 <= n <= 4:
        raise ValueError("supported range is 1 <= n <= 4")
    alg = sp_algebra(n)
    return SymplecticRep(
        alg,
        standard_omega(n),
        alg.basis,
        [Summand("irreducible", 0, 2 * n)],
        name=f"sp{2*n}-standard",
    )


@lru_cache(maxsize=None)
def sl2_algebra() -> MatrixLieAlgebra:
    e = ExactMatrix([[0, 1], [0, 0]])
    h = ExactMatrix([[1, 0], [0, -1]])
    f = ExactMatrix([[0, 0], [1, 0]])
    return MatrixLieAlgebra([e, h, f], name="sl2")


@lru_cache(maxsize=None)
def sl2_w_plus_wdual() -> SymplecticRep:
    """sl2 acting on W + W* (W the standard module), with the duality
    pairing as symplectic form; coordinates are (u1, u2, delta1, delta2)."""
    alg = sl2_algebra()
    rho = []
    for X in alg.basis:
        Xt = X.transpose()
        rho.append(
            ExactMatrix.from_blocks(
                [[X, ExactMatrix.zeros(2, 2)], [ExactMatrix.zeros(2, 2), Xt.scale(-1)]]
            )
        )
    I2 = ExactMatrix.identity(2)
    omega = ExactMatrix.from_blocks([[ExactMatrix.zeros(2, 2), I2], [I2.scale(-1), ExactMatrix.zeros(2, 2)]])
    return SymplecticRep(
        alg, omega, rho, [Summand("dual-pair", 0, 4, mid=2)], name="sl2-W+W*"
    )


@lru_cache(maxsize=None)
def sl2_standard() -> SymplecticRep:
    """sl2 on its standard 2-dimensional module, viewed inside sp(2)."""
    alg = sl2_algebra()
    return SymplecticRep(
        alg, standard_omega(1), alg.basis, [Summand("irreducible", 0, 2)],
        name="sl2-standard",
    )


@lru_cache(maxsize=None)
def sl2_sym_cube() -> SymplecticRep:
    """sl2 on the third symmetric power of the standard module: a
    4-dimensional irreducible symplectic representation.  The invariant
    form is computed (and certified unique up to scale) at construction."""
    alg = sl2_algebra()
    rho = [_sym_cube_action(X) for X in alg.basis]

    # solve W rho(X) + rho(X)^T W = 0, W antisymmetric, over 16 unknowns
    symmetric_part = []
    for r in range(4):
        for c in range(4):
            row = [0] * 16
            row[r * 4 + c] += 1
            row[c * 4 + r] += 1
            symmetric_part.append(row)
    ker = _joint_kernel([_sylvester(R, R.transpose()) for R in rho] + [ExactMatrix(symmetric_part)])
    if len(ker) != 1:
        raise InvariantFormError(f"expected a unique invariant form up to scale, found {len(ker)}")
    v = ker[0]
    scale = 1
    for x in v:
        scale = scale * Fraction(x).denominator
    v = [Fraction(x) * scale for x in v]
    omega = ExactMatrix([[v[r * 4 + c] for c in range(4)] for r in range(4)])
    if omega.entries[0][3] < 0:
        omega = omega.scale(-1)
    return SymplecticRep(
        alg, omega, rho, [Summand("irreducible", 0, 4)], name="sl2-Sym3"
    )


def _sym_cube_action(X: ExactMatrix) -> ExactMatrix:
    # basis monomials x^(3-k) y^k, k = 0..3; X acts by derivation with
    # X.x = X00 x + X10 y and X.y = X01 x + X11 y
    a, b = X.entries[0][0], X.entries[0][1]
    c, d = X.entries[1][0], X.entries[1][1]
    cols = []
    for k in range(4):
        img = {}
        # (3-k) copies of x: replace one x by X.x
        if 3 - k > 0:
            img[k] = img.get(k, 0) + (3 - k) * a       # x -> a x
            img[k + 1] = img.get(k + 1, 0) + (3 - k) * c  # x -> c y
        if k > 0:
            img[k - 1] = img.get(k - 1, 0) + k * b     # y -> b x
            img[k] = img.get(k, 0) + k * d             # y -> d y
        cols.append([img.get(r, 0) for r in range(4)])
    return ExactMatrix([[cols[j][i] for j in range(4)] for i in range(4)])


def trivial_rep(algebra: MatrixLieAlgebra, n: int = 1) -> SymplecticRep:
    """rho = 0 on a standard symplectic space of half-dimension n."""
    z = ExactMatrix.zeros(2 * n, 2 * n)
    return SymplecticRep(
        algebra, standard_omega(n), [z] * algebra.dim,
        [Summand("irreducible", 0, 2 * n)], name="trivial",
    )


def direct_sum(r1: SymplecticRep, r2: SymplecticRep) -> SymplecticRep:
    """Direct sum of two representations of the same algebra."""
    if r1.algebra is not r2.algebra and r1.algebra.basis != r2.algebra.basis:
        raise ValueError("direct sum needs a common algebra")
    z12 = ExactMatrix.zeros(r1.dimV, r2.dimV)
    z21 = ExactMatrix.zeros(r2.dimV, r1.dimV)
    rho = [
        ExactMatrix.from_blocks([[A, z12], [z21, B]]) for A, B in zip(r1.rho, r2.rho)
    ]
    omega = ExactMatrix.from_blocks([[r1.omega, z12], [z21, r2.omega]])
    off = r1.dimV
    summands = list(r1.summands) + [
        Summand(s.kind, s.lo + off, s.hi + off, None if s.mid is None else s.mid + off)
        for s in r2.summands
    ]
    return SymplecticRep(r1.algebra, omega, rho, summands, name=f"{r1.name}+{r2.name}")


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
    idx = 2
    basis = []
    for _ in range(dim):
        basis.append(_parse_matrix(_fields(lines[idx], "X"), amb))
        idx += 1
    algebra = MatrixLieAlgebra(basis)
    (dimv,) = _counts(lines[idx], "dimV", 1)
    omega = _parse_matrix(_fields(lines[idx + 1], "omega"), dimv)
    idx += 2
    rho = []
    for _ in range(dim):
        rho.append(_parse_matrix(_fields(lines[idx], "rho"), dimv))
        idx += 1
    summands = []
    for tokens in lines[idx:]:
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
