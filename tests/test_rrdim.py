"""Dimension-identity tests: numeric ranges, symbolic zero polynomials, and
the exhaustive stability scan."""

import pytest

from spinorlab import rrdim
from spinorlab.lie import sl2_sym_cube, sp_standard
from spinorlab.rrdim import (
    BundleNumerics,
    InfeasibleCaseError,
    SubobjectCase,
    pair_euler_identity,
    pair_euler_identity_symbolic,
    rr_chi,
    stability_case_verdict,
    stability_scan,
    y_dimension_identity,
    y_dimension_symbolic,
)


class TestChi:
    def test_structure_sheaf(self):
        # rank 1, degree 0, g = 2: chi = 1 - g = -1
        assert rr_chi(BundleNumerics(1, 0, 2)) == -1

    def test_adjoint_sp4(self):
        # rank 10 = dim of the algebra, degree zero, g = 2
        assert rr_chi(BundleNumerics(10, 0, 2)) == -10

    def test_twisted_sections_vanishing_chi(self):
        for n in range(1, 6):
            for g in range(2, 7):
                assert rr_chi(BundleNumerics(2 * n, 2 * n * (g - 1), g)) == 0

    def test_additivity(self):
        for (r1, d1), (r2, d2) in [((2, 3), (5, -1)), ((1, 0), (4, 7))]:
            g = 3
            assert rr_chi(BundleNumerics(r1 + r2, d1 + d2, g)) == rr_chi(
                BundleNumerics(r1, d1, g)
            ) + rr_chi(BundleNumerics(r2, d2, g))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BundleNumerics(0, 0, 2)
        with pytest.raises(ValueError):
            BundleNumerics(1, 0, 1)


class TestPairEuler:
    def test_n2_g2(self):
        rec = pair_euler_identity(2, 2)
        assert rec.chi_adjoint == -10
        assert rec.chi_twisted_sections == 0
        assert rec.chi_pair == -10 == rec.expected
        assert rec.ok

    def test_n3_g5(self):
        rec = pair_euler_identity(3, 5)
        assert rec.chi_pair == 21 * (-4)
        assert rec.ok

    def test_range(self):
        for n in range(1, 21):
            for g in range(2, 21):
                assert pair_euler_identity(n, g).ok

    def test_symbolic_zero(self):
        assert pair_euler_identity_symbolic().is_zero

    def test_for_registered_reps_degree_zero(self):
        # the associated bundle always carries degree zero, so chi of the
        # twisted sections vanishes for every rep, not just the standard one
        for rep in (sp_standard(2), sl2_sym_cube()):
            for g in (2, 3, 5):
                ad = rr_chi(BundleNumerics(rep.algebra.dim, 0, g))
                tw = rr_chi(BundleNumerics(rep.dimV, rep.dimV * (g - 1), g))
                assert tw == 0
                assert ad - tw == rep.algebra.dim * (1 - g)


class TestYDimension:
    def test_n2_g2_decomposition(self):
        rec, expected, ok = y_dimension_identity(2, 2)
        assert (rec.moduli_term, rec.extension_term, rec.torsor_term) == (3, 4, 3)
        assert rec.total == 10 == expected
        assert ok

    def test_n3_g3(self):
        rec, expected, ok = y_dimension_identity(3, 3)
        assert (rec.moduli_term, rec.extension_term, rec.torsor_term) == (20, 16, 6)
        assert rec.total == 42 == expected
        assert ok

    def test_hypotheses_recorded(self):
        rec, _, _ = y_dimension_identity(2, 2)
        assert len(rec.hypotheses) == 2

    def test_range(self):
        for n in range(2, 21):
            for g in range(2, 21):
                assert y_dimension_identity(n, g)[2]

    def test_symbolic_zero(self):
        assert y_dimension_symbolic().is_zero


class TestStabilityCases:
    def test_f_in_l_example(self):
        v = stability_case_verdict(SubobjectCase("F_in_L", 2, -1))
        assert v.deg_f == -1 and v.negative
        assert any("1 - g" in s for s in v.steps)

    def test_f_maps_to_u_example(self):
        v = stability_case_verdict(SubobjectCase("F_maps_to_U", 2, 0, -1, -1))
        assert v.deg_f == -1 and v.negative
        assert len(v.steps) == 4

    def test_infeasible_cases(self):
        with pytest.raises(InfeasibleCaseError):
            SubobjectCase("F_in_L", 3, -1)  # -1 > 1 - 3
        with pytest.raises(InfeasibleCaseError):
            SubobjectCase("F_maps_to_U", 2, 1, -1, -1)
        with pytest.raises(InfeasibleCaseError):
            SubobjectCase("F_maps_to_U", 2, 0, 0, -1)
        with pytest.raises(InfeasibleCaseError):
            SubobjectCase("F_maps_to_U", 2, 0, -2, -1)
        with pytest.raises(InfeasibleCaseError):
            SubobjectCase("bogus", 2, 0)

    def test_exhaustive_scan_no_counterexamples(self):
        checked, bad = stability_scan()
        assert checked > 3000
        assert bad == []


def case_by_case_scan(
    fprime_range=range(-10, 1), s_range=range(-10, 0), genus_range=range(2, 7), fmod_lo=-10
):
    """The scan with a SubobjectCase and a verdict for every case: the oracle
    of ``stability_scan``, which builds them only for a counterexample."""
    checked = 0
    bad = []
    for g in genus_range:
        for df in fprime_range:
            if df <= 1 - g:
                case = SubobjectCase("F_in_L", g, df)
                v = stability_case_verdict(case)
                checked += 1
                if not v.negative:
                    bad.append((case, v.deg_f))
            for ds in s_range:
                for dm in range(fmod_lo, ds + 1):
                    case = SubobjectCase("F_maps_to_U", g, df, ds, dm)
                    v = stability_case_verdict(case)
                    checked += 1
                    if not v.negative:
                        bad.append((case, v.deg_f))
    return checked, bad


class TestScanAgainstCaseByCase:
    @pytest.mark.parametrize("genus_range", [range(2, 7), range(2, 9), range(5, 6), range(0)])
    def test_same_result_at_the_suite_ranges(self, genus_range):
        assert stability_scan(genus_range=genus_range) == case_by_case_scan(genus_range=genus_range)
        assert stability_scan()[0] == 3065

    def test_same_counterexamples_under_another_degree_rule(self, monkeypatch):
        def lenient(case_tag, deg_f_prime, deg_f_mod_f_prime):
            if case_tag == "F_in_L":
                return deg_f_prime + 3
            return deg_f_prime + deg_f_mod_f_prime + 12

        monkeypatch.setattr(rrdim, "_deg_f", lenient)
        checked, bad = stability_scan()
        assert len(bad) > 10
        assert {case.case_tag for case, _ in bad} == {"F_in_L", "F_maps_to_U"}
        assert (checked, bad) == case_by_case_scan()
        assert all(d == stability_case_verdict(case).deg_f >= 0 for case, d in bad)

    def test_the_verdict_reads_the_same_rule(self, monkeypatch):
        monkeypatch.setattr(rrdim, "_deg_f", lambda *fields: 7)
        assert stability_case_verdict(SubobjectCase("F_in_L", 2, -1)).deg_f == 7

    @pytest.mark.parametrize(
        "ranges, raises",
        [
            (dict(genus_range=range(1, 4)), True),
            (dict(fprime_range=range(-2, 3)), True),
            (dict(s_range=range(-2, 2)), True),
            (dict(fprime_range=range(-5, -1), s_range=range(-2, 2)), True),  # deg F < 0 throughout
            (dict(fprime_range=range(-3, 2), s_range=range(0)), False),  # F_in_L only
        ],
    )
    def test_ranges_outside_the_constraints_behave_as_case_by_case(self, ranges, raises):
        def outcome(scan):
            try:
                return scan(**ranges)
            except InfeasibleCaseError as exc:
                return "raises", str(exc)

        got = outcome(stability_scan)
        assert got == outcome(case_by_case_scan)
        assert (got[0] == "raises") == raises
