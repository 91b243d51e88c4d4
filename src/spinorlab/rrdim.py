"""Euler-characteristic arithmetic for the dimension identities and the
degree-inequality bookkeeping of the stability case analysis.

Identities are checked two ways: numerically over integer ranges, and as
polynomial identities in (n, g) whose expanded coefficients must vanish.
First-cohomology dimensions are derived from chi under explicit vanishing
hypotheses, which are recorded in the returned records rather than assumed
silently.
"""

from __future__ import annotations

from ._record import Record
from .rings import MultiPoly

N = MultiPoly.var("n")
G = MultiPoly.var("g")


class InfeasibleCaseError(ValueError):
    """The declared degree constraints are not satisfiable."""


class BundleNumerics(Record):
    def __init__(self, rank: int, degree: int, genus: int):
        self._store(locals())
        if rank < 1:
            raise ValueError("rank must be positive")
        if genus < 2:
            raise ValueError("genus must be >= 2")


def chi(rank, degree, genus):
    """degree + rank*(1 - genus); arguments may be integers or polynomials."""
    return degree + rank * (1 - genus)


def rr_chi(b: BundleNumerics) -> int:
    return chi(b.rank, b.degree, b.genus)


def sp_dim(n):
    """dim of the rank-2n symplectic algebra: n(2n+1)."""
    return n * (2 * n + 1)


class EulerPairRecord(Record):
    def __init__(self, chi_adjoint: int, chi_twisted_sections: int, chi_pair: int, expected: int):
        self._store(locals())

    @property
    def ok(self) -> bool:
        return self.chi_pair == self.expected


def pair_euler_identity(n: int, g: int) -> EulerPairRecord:
    """chi of the two-term pair complex equals dim G * (1 - g) for the
    standard rank-2n symplectic group: the twisted-section term has chi 0."""
    if n < 1 or g < 2:
        raise ValueError("need n >= 1 and g >= 2")
    ad = rr_chi(BundleNumerics(sp_dim(n), 0, g))
    tw = rr_chi(BundleNumerics(2 * n, 2 * n * (g - 1), g))
    return EulerPairRecord(ad, tw, ad - tw, sp_dim(n) * (1 - g))


def pair_euler_identity_symbolic() -> MultiPoly:
    """chi(pair complex) - dim G (1-g) as a polynomial in (n, g); must be 0."""
    ad = chi(sp_dim(N), 0, G)
    tw = chi(2 * N, 2 * N * (G - 1), G)
    return (ad - tw) - sp_dim(N) * (1 - G)


class YDimensionRecord(Record):
    """The three-part dimension count for the reconstruction family."""

    def __init__(
        self,
        moduli_term: int,  # dim of the rank 2n-2 symplectic moduli input
        extension_term: int,  # h1 of (middle block) x (dual of the spinor line)
        torsor_term: int,  # h1 of the inverse canonical bundle
        hypotheses: tuple = (),
    ):
        self._store(locals())

    @property
    def total(self) -> int:
        return self.moduli_term + self.extension_term + self.torsor_term


def y_dimension_identity(n: int, g: int) -> tuple:
    """Compute the three ingredients independently and compare their sum with
    n(2n+1)(g-1).  Returns (record, expected, ok)."""
    if n < 2 or g < 2:
        raise ValueError("need n >= 2 and g >= 2")
    moduli = (n - 1) * (2 * n - 1) * (g - 1)
    # h1 = -chi under the recorded h0 = 0 hypotheses
    ext = -rr_chi(BundleNumerics(2 * n - 2, (2 * n - 2) * (1 - g), g))
    tor = -rr_chi(BundleNumerics(1, 2 - 2 * g, g))
    rec = YDimensionRecord(
        moduli,
        ext,
        tor,
        hypotheses=(
            "h0 of (middle block tensor dual half-canonical) vanishes",
            "h0 of the inverse canonical bundle vanishes",
        ),
    )
    expected = sp_dim(n) * (g - 1)
    return rec, expected, rec.total == expected


def y_dimension_symbolic() -> MultiPoly:
    """The same decomposition as a polynomial identity in (n, g); must be 0."""
    moduli = (N - 1) * (2 * N - 1) * (G - 1)
    ext = -chi(2 * N - 2, (2 * N - 2) * (1 - G), G)
    tor = -chi(1, 2 - 2 * G, G)
    return moduli + ext + tor - sp_dim(N) * (G - 1)


# -- stability case analysis ------------------------------------------------


class SubobjectCase(Record):
    """Degree data of an isotropic subbundle respecting the spinor line.

    ``F_in_L``: the subbundle sits inside the spinor line (deg <= 1-g).
    ``F_maps_to_U``: it maps to the middle block with image of negative
    degree, while the part meeting the line contributes at most zero.
    """

    def __init__(
        self,
        case_tag: str,
        genus: int,
        deg_f_prime: int,
        deg_s: int | None = None,
        deg_f_mod_f_prime: int | None = None,
    ):
        self._store(locals())
        if genus < 2:
            raise InfeasibleCaseError("genus must be >= 2")
        if case_tag == "F_in_L":
            if deg_f_prime > 1 - genus:
                raise InfeasibleCaseError(
                    "a nonzero subsheaf of the spinor line has degree <= 1-g"
                )
        elif case_tag == "F_maps_to_U":
            if deg_f_prime > 0:
                raise InfeasibleCaseError("the line part contributes degree <= 0")
            if deg_s is None or deg_s >= 0:
                raise InfeasibleCaseError(
                    "an isotropic subbundle of a stable degree-zero block has negative degree"
                )
            if deg_f_mod_f_prime is None or deg_f_mod_f_prime > deg_s:
                raise InfeasibleCaseError("saturation can only increase degree")
        else:
            raise InfeasibleCaseError(f"unknown case tag {case_tag!r}")


class CaseVerdict(Record):
    def __init__(self, deg_f: int, steps: tuple):
        self._store(locals())

    @property
    def negative(self) -> bool:
        return self.deg_f < 0


def _deg_f(case_tag: str, deg_f_prime: int, deg_f_mod_f_prime) -> int:
    """deg F of a subobject case: deg F' inside the spinor line, and
    deg F' + deg(F/F') when it maps to the middle block."""
    if case_tag == "F_in_L":
        return deg_f_prime
    return deg_f_prime + deg_f_mod_f_prime


def stability_case_verdict(case: SubobjectCase) -> CaseVerdict:
    """Total degree of the subbundle with the proof-step trace; every
    feasible case comes out strictly negative."""
    deg_f = _deg_f(case.case_tag, case.deg_f_prime, case.deg_f_mod_f_prime)
    if case.case_tag == "F_in_L":
        steps = (
            f"subbundle contained in the spinor line: deg F = deg F' = {case.deg_f_prime}",
            f"deg F <= 1 - g = {1 - case.genus} < 0",
        )
    else:
        steps = (
            f"line part: deg F' = {case.deg_f_prime} <= 0",
            f"image in the middle block is isotropic in a stable degree-zero bundle: deg S = {case.deg_s} < 0",
            f"saturation only increases degree: deg(F/F') = {case.deg_f_mod_f_prime} <= deg S",
            f"deg F = deg F' + deg(F/F') = {deg_f}",
        )
    return CaseVerdict(deg_f, steps)


def stability_scan(
    fprime_range=range(-10, 1),
    s_range=range(-10, 0),
    genus_range=range(2, 7),
    fmod_lo=-10,
):
    """Exhaustive integer scan of both cases; returns (cases checked,
    counterexamples with deg F >= 0).  The expected counterexample list is
    empty.

    Each case's degree comes from ``_deg_f``, the rule of
    ``stability_case_verdict``; the ``SubobjectCase`` and its verdict are
    built only for a counterexample, or for a case outside the declared
    constraints (genus below 2, deg F' > 0 or deg S >= 0 in the middle-block
    case), whose constructor raises ``InfeasibleCaseError`` as before.
    """
    checked = 0
    bad = []

    def flag(*fields):
        case = SubobjectCase(*fields)
        v = stability_case_verdict(case)
        if not v.negative:
            bad.append((case, v.deg_f))

    for g in genus_range:
        for df in fprime_range:
            if df <= 1 - g:
                checked += 1
                if g < 2 or _deg_f("F_in_L", df, None) >= 0:
                    flag("F_in_L", g, df)
            for ds in s_range:
                infeasible = g < 2 or df > 0 or ds >= 0
                for dm in range(fmod_lo, ds + 1):
                    checked += 1
                    if infeasible or _deg_f("F_maps_to_U", df, dm) >= 0:
                        flag("F_maps_to_U", g, df, ds, dm)
    return checked, bad
