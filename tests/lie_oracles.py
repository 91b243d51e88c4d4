"""Reference routes for building a matrix Lie algebra, kept only as test
oracles.

``spinorlab.lie`` writes the one or two nonzeros of each sp(2n) basis
matrix -Omega (E_ij + E_ji), and solves for coordinates sparsely in
integers: den times the inverse block of one fraction-free RREF of [F | I], looked up from the
nonzeros of y.  The routes below are the ones it replaced: the dense product
-Omega S, and a solve that walks every pivot of a Fraction-row Gauss-Jordan
reduction of [F | I] (``matrix_oracles._rref``) into a dense coordinate
list.  ``dense_combination`` is the route ``lie._combination`` replaced: one
dense ``scale`` and ``+`` per coordinate.  ``iterative_kernel`` is the route
the joint kernels of ``commutant`` and ``hom_space`` replaced: one kernel,
one dense product and one ``apply`` per map, where the package takes one
kernel of the stacked rows.  ``dense_sylvester`` is the dense matrix of the
map whose sparse rows ``lie._sylvester`` yields; the oracles above take
their inputs from it, not from the code they check.  ``dense_invariance_checks``
is the scan ``verify_symplectic_rep`` replaced: every entry of every rho in
a column of a constituent's span and a row outside it, where the package
reads only the nonzeros of each rho.  ``pairwise_brackets`` is the
per-pair loop that ``lie._brackets`` replaced: every pair i < j in turn,
each product X_i X_j and X_j X_i formed from the nonzeros, where the package
takes one sparse all-pairs product.  ``dense_sp_standard``,
``dense_sl2_algebra``, ``dense_sl2_standard``, ``dense_sl2_w_plus_wdual``,
``dense_sl2_sym_cube``, ``dense_trivial_rep`` and ``dense_direct_sum`` are
the dense bodies of the constructors that now write the nonzeros of rho
(and, for sp(2n) and sl2, of the basis) directly: each builds every matrix
in full and goes through the public constructors, which flatten them.
``dense_structure_constants`` is the all-pairs closure check and table
that ``MatrixLieAlgebra._constants`` builds on first read, on the dense
solver, and ``dense_constants`` its flat form.
``dense_sl2_sym_cube`` derives its images by ``sym_cube_action``, the
derivation on x^(3-k) y^k written out for a general 2 x 2 matrix, where
the package writes the nonzeros of e, h and f on Sym^k.
``two_loop_saturation`` is the witness search ``almost_saturated_check``
replaced: every dimension through the public ``hom_space``, a summand index
per constituent counted from ``Summand.constituents``, and a second loop
that searches for each dual pair's two halves, where the package walks the
constituents and their spans once.
"""

from fractions import Fraction

from matrix_oracles import _rref
from spinorlab.lie import (
    InvariantFormError,
    MatrixLieAlgebra,
    Summand,
    SymplecticRep,
    SaturationVerdict,
    _joint_kernel,
    _sylvester,
    hom_space,
    sl2_algebra,
    verify_symplectic_rep,
)
from spinorlab.matrix import ExactMatrix, mat_rank_kernel, standard_omega
from spinorlab.rings import _is_rat, is_zero


def dense_combination(coords, mats, d):
    """sum_j coords[j] * mats[j] as a d x d matrix, skipping rational zeros."""
    acc = ExactMatrix.zeros(d, d)
    for c, X in zip(coords, mats):
        if not (_is_rat(c) and c == 0):
            acc = acc + X.scale(c)
    return acc


def dense_sylvester(A, B):
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


def dense_invariance_checks(rep):
    """("invariance of <tag>", ok) for each constituent, in order: ok when
    rho maps the constituent's span into itself, read entry by entry."""
    checks = []
    for tag, (lo, hi) in rep.constituents():
        inv_ok = all(
            is_zero(R.entries[r][c])
            for R in rep.rho
            for c in range(lo, hi)
            for r in list(range(0, lo)) + list(range(hi, rep.dimV))
        )
        checks.append((f"invariance of {tag}", inv_ok))
    return checks


def iterative_kernel(maps):
    """Basis of the joint kernel of a list of linear maps (as ExactMatrix),
    refined one map at a time."""
    if not maps:
        return []
    basis = None  # None means the full space
    for M in maps:
        if basis is None:
            _, ker = mat_rank_kernel(M)
            basis = [list(v) for v in ker]
        else:
            if not basis:
                return []
            B = ExactMatrix(basis).transpose()
            _, ker = mat_rank_kernel(M * B)
            basis = [list(B.apply(v)) for v in ker]
    return [tuple(v) for v in (basis or [])]


def dense_sp_basis(n):
    """The basis -Omega S of sp(2n), S running over E_ii and E_ij + E_ji."""
    neg_omega = standard_omega(n).scale(-1)  # Omega^{-1} = -Omega in this frame
    dim = 2 * n
    basis = []
    for i in range(dim):
        for j in range(i, dim):
            S = [[0] * dim for _ in range(dim)]
            S[i][j] = 1
            S[j][i] = 1
            basis.append(neg_omega * ExactMatrix(S))
    return basis


def dense_sp_standard(n):
    """The standard representation of sp(2n), on the dense basis."""
    alg = MatrixLieAlgebra(dense_sp_basis(n), name=f"sp{2*n}")
    return SymplecticRep(
        alg, standard_omega(n), alg.basis, [Summand("irreducible", 0, 2 * n)], name=f"sp{2*n}-standard"
    )


def dense_sl2_standard():
    alg = sl2_algebra()
    return SymplecticRep(alg, standard_omega(1), alg.basis, [Summand("irreducible", 0, 2)], name="sl2-standard")


def dense_sl2_algebra():
    e = ExactMatrix([[0, 1], [0, 0]])
    h = ExactMatrix([[1, 0], [0, -1]])
    f = ExactMatrix([[0, 0], [1, 0]])
    return MatrixLieAlgebra([e, h, f], name="sl2")


def dense_sl2_w_plus_wdual():
    alg = dense_sl2_algebra()
    z, I2 = ExactMatrix.zeros(2, 2), ExactMatrix.identity(2)
    rho = [ExactMatrix.from_blocks([[X, z], [z, X.transpose().scale(-1)]]) for X in alg.basis]
    omega = ExactMatrix.from_blocks([[z, I2], [I2.scale(-1), z]])
    return SymplecticRep(alg, omega, rho, [Summand("dual-pair", 0, 4, mid=2)], name="sl2-W+W*")


def sym_cube_action(X):
    """X acting on Sym^3 by derivation, in the monomials x^(3-k) y^k, k = 0..3,
    with X.x = X00 x + X10 y and X.y = X01 x + X11 y."""
    a, b = X.entries[0][0], X.entries[0][1]
    c, d = X.entries[1][0], X.entries[1][1]
    cols = []
    for k in range(4):
        img = {}
        # (3-k) copies of x: replace one x by X.x
        if 3 - k > 0:
            img[k] = img.get(k, 0) + (3 - k) * a  # x -> a x
            img[k + 1] = img.get(k + 1, 0) + (3 - k) * c  # x -> c y
        if k > 0:
            img[k - 1] = img.get(k - 1, 0) + k * b  # y -> b x
            img[k] = img.get(k, 0) + k * d  # y -> d y
        cols.append([img.get(r, 0) for r in range(4)])
    return ExactMatrix([[cols[j][i] for j in range(4)] for i in range(4)])


def dense_sl2_sym_cube():
    """Sym^3 with its invariant form solved over the 16 entries of the
    flattened dense images."""
    alg = dense_sl2_algebra()
    rho = [sym_cube_action(X) for X in alg.basis]
    symmetric_part = [
        {r * 4 + c: 1, c * 4 + r: 1} if r != c else {r * 5: 2} for r in range(4) for c in range(4)
    ]
    entries = [[(*divmod(p, 4), x) for p, x in flattened(R).items()] for R in rho]
    maps = [_sylvester(a, [(c, r, x) for r, c, x in a], 4, 4).values() for a in entries]
    ker = _joint_kernel(maps + [symmetric_part], 16)
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
    return SymplecticRep(alg, omega, rho, [Summand("irreducible", 0, 4)], name="sl2-Sym3")


def dense_trivial_rep(algebra, n=1):
    z = ExactMatrix.zeros(2 * n, 2 * n)
    return SymplecticRep(
        algebra, standard_omega(n), [z] * algebra.dim, [Summand("irreducible", 0, 2 * n)], name="trivial"
    )


def dense_direct_sum(r1, r2):
    """The direct sum with block-diagonal rho images, assembled in full."""
    if r1.algebra is not r2.algebra and r1.algebra.basis != r2.algebra.basis:
        raise ValueError("direct sum needs a common algebra")
    z12 = ExactMatrix.zeros(r1.dimV, r2.dimV)
    z21 = ExactMatrix.zeros(r2.dimV, r1.dimV)
    rho = [ExactMatrix.from_blocks([[A, z12], [z21, B]]) for A, B in zip(r1.rho, r2.rho)]
    omega = ExactMatrix.from_blocks([[r1.omega, z12], [z21, r2.omega]])
    off = r1.dimV
    summands = list(r1.summands) + [
        Summand(s.kind, s.lo + off, s.hi + off, None if s.mid is None else s.mid + off) for s in r2.summands
    ]
    return SymplecticRep(r1.algebra, omega, rho, summands, name=f"{r1.name}+{r2.name}")


def flattened(M):
    """{r * cols + c: entry} over the nonzero entries of M."""
    return {r * M.cols + c: x for r, row in enumerate(M.entries) for c, x in enumerate(row) if x}


class DenseCoordinateSolver:
    """Coordinates in a linearly independent list of square matrices, from
    the Fraction rows of the reduced [F | I]."""

    def __init__(self, basis):
        self.columns = [flattened(X) for X in basis]
        size = basis[0].rows ** 2
        dim = len(basis)
        rows = []
        for j, col in enumerate(self.columns):
            row = [Fraction(0)] * (size + dim)
            for pos, x in col.items():
                row[pos] = Fraction(x)
            row[size + j] = Fraction(1)
            rows.append(row)
        self.sel = _rref(rows, size)
        if len(self.sel) != dim:
            raise ValueError("basis matrices are linearly dependent")
        self.inv_rows = [[(j, e) for j, e in enumerate(row[size:]) if e] for row in rows]

    def coords(self, y: dict):
        """Coordinates of the flattened matrix ``y``, or None off the span."""
        c = [0] * len(self.columns)
        for pos, inv_row in zip(self.sel, self.inv_rows):
            v = y.get(pos, 0)
            if v:
                for j, e in inv_row:
                    c[j] += e * v
        back = {}
        for cj, col in zip(c, self.columns):
            if cj:
                for pos, x in col.items():
                    back[pos] = back.get(pos, 0) + cj * x
        if {p: v for p, v in back.items() if v} != {p: v for p, v in y.items() if v}:
            return None
        return tuple(c)


def _bracket(X, Y, d):
    """[X, Y] = XY - YX of flattened d x d matrices, as a flattened map."""
    out = {}
    for A, B, sign in ((X, Y, 1), (Y, X, -1)):
        for p, x in A.items():
            r, m = divmod(p, d)
            for q, y in B.items():
                if q // d == m:
                    pos = r * d + q % d
                    out[pos] = out.get(pos, 0) + sign * x * y
    return out


def dense_structure_constants(basis):
    """{(i, j): {k: c^k_ij}} over the nonzero c, for i != j."""
    solver = DenseCoordinateSolver(basis)
    d = basis[0].rows
    table = {}
    for i, X in enumerate(solver.columns):
        for j in range(i + 1, len(basis)):
            coords = solver.coords(_bracket(X, solver.columns[j], d))
            if coords is None:
                raise ValueError("basis is not closed under the bracket")
            cs = {k: c for k, c in enumerate(coords) if c}
            if cs:
                table[(i, j)] = cs
                table[(j, i)] = {k: -c for k, c in cs.items()}
    return table


def dense_constants(basis, den):
    """The flat table ``MatrixLieAlgebra._constants`` holds, from the dense
    solver on every pair: (i, j, k, den c^k_ij) for i < j over the nonzero
    c, ascending.  The integer sums of the package give an int for a basis
    of int entries and a Fraction for a basis of Fraction entries; for a
    basis of both, whose types vary from constant to constant, every value
    here is a Fraction."""
    cast = int if all(type(x) is int for X in basis for row in X.entries for x in row) else Fraction
    table = dense_structure_constants(basis)
    return [(i, j, k, cast(c * den)) for (i, j), cs in sorted(table.items()) if i < j for k, c in sorted(cs.items())]


def pairwise_brackets(flats, d):
    """(i, j, [X_i, X_j]) for every pair i < j, in order, of d x d matrices
    given by their nonzero entries keyed by flattened position; a bracket
    may hold zeros, and is empty when no product has a term."""
    by_row = [{} for _ in flats]
    for rows, flat in zip(by_row, flats):
        for p, x in flat.items():
            rows.setdefault(p // d, []).append((p % d, x))
    out = []
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            br = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, rows in by_row[a].items():
                    for m, x in rows:
                        for c, y in by_row[b].get(m, ()):
                            br[r * d + c] = br.get(r * d + c, 0) + sign * x * y
            out.append((i, j, br))
    return out


def two_loop_saturation(rep):
    """The multiplicity-freeness verdict: witnesses over the constituent
    pairs in distinct summands in ascending (a, b), then over each dual
    pair's W and W*, in summand order."""
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
