"""Formal-disc tests: exact symplectic identities for the modification
family, the literal image of the vanishing spinor, gluing consistency, and
truncated symplectic completion (postconditions are the oracle)."""

import random

import pytest

import spinorlab.hecke as hecke
from spinorlab.hecke import (
    GlueReport,
    HeckeFamily,
    HeckeIdentityError,
    PrimitivityError,
    TruncatedSeriesVector,
    glue_check,
    hecke_family,
    modified_spinor,
    poly_mod,
    series_inverse,
    smoothing_nilpotent,
    symplectic_complete,
    verify_completion,
    verify_symplectic_family,
)
from spinorlab.matrix import ExactMatrix, in_sp, random_symplectic_laurent, standard_omega
from spinorlab.moment import gaiotto_field
from spinorlab.rings import LaurentPoly, MultiPoly


class TestSeriesHelpers:
    def test_series_inverse(self):
        z = MultiPoly.var("z")
        p = 1 + 2 * z + z ** 2
        inv = series_inverse(p, 6)
        assert poly_mod(p * inv, 6) == 1

    def test_series_inverse_needs_unit(self):
        z = MultiPoly.var("z")
        with pytest.raises(ValueError):
            series_inverse(z, 4)


class TestSymplecticComplete:
    def test_e1_completes_to_valid_basis(self):
        v = TruncatedSeriesVector((1, 0), precision=5)
        S = symplectic_complete(v)
        assert S.col(0) == tuple(v.entries)
        assert verify_completion(S, 5)

    def test_unit_plus_z_column(self):
        z = MultiPoly.var("z")
        v = TruncatedSeriesVector((MultiPoly.const(1), z), precision=5)
        S = symplectic_complete(v)
        assert verify_completion(S, 5)
        assert S.col(0) == tuple(v.entries)

    def test_zero_constant_term_rejected(self):
        z = MultiPoly.var("z")
        v = TruncatedSeriesVector((z, z ** 2), precision=4)
        with pytest.raises(PrimitivityError):
            symplectic_complete(v)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeriesVector((1, 0), precision=0)

    def test_random_vectors_all_precisions(self):
        rng = random.Random(51)
        z = MultiPoly.var("z")
        for n in (1, 2, 3):
            for _ in range(5):
                prec = rng.randint(2, 5)
                entries = []
                for i in range(2 * n):
                    p = MultiPoly.const(rng.randint(-3, 3))
                    for k in range(1, prec):
                        p = p + rng.randint(-2, 2) * z ** k
                    entries.append(p)
                if all(e.coeff({"z": 0}) == 0 for e in entries):
                    entries[0] = entries[0] + 1
                v = TruncatedSeriesVector(tuple(entries), precision=prec)
                S = symplectic_complete(v)
                # graceful degradation at every lower precision
                for p2 in range(1, prec + 1):
                    assert verify_completion(S, p2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_every_unit_coordinate(self, n):
        # v has a unit only at coordinate p (both signs of omega(e_p, e_q)
        # occur) plus random z-terms, some at z^prec that must be truncated
        rng = random.Random(1400 + n)
        z = MultiPoly.var("z")
        dim = 2 * n
        omega = standard_omega(n)
        for p in range(dim):
            for prec in range(1, 6):
                entries = []
                for i in range(dim):
                    e = MultiPoly.const(rng.choice([1, -1, 2, -3]) if i == p else 0)
                    for k in range(1, prec + 1):
                        e = e + rng.randint(-2, 2) * z ** k
                    entries.append(e)
                S = symplectic_complete(TruncatedSeriesVector(tuple(entries), precision=prec))
                assert S.col(0) == tuple(poly_mod(e, prec) for e in entries)
                for i in range(dim):
                    for j in range(dim):
                        pair = sum(
                            (
                                omega.entries[a][b] * S.entries[a][i] * S.entries[b][j]
                                for a in range(dim)
                                for b in range(dim)
                                if omega.entries[a][b]
                            ),
                            MultiPoly.const(0),
                        )
                        for p2 in range(1, prec + 1):
                            assert poly_mod(pair, p2) == omega.entries[i][j], (p, prec, i, j, p2)

    def test_verify_completion_rejects_a_doubled_column(self):
        z = MultiPoly.var("z")
        v = TruncatedSeriesVector((z, 1 + z, 2 * z ** 2, 3 - z), precision=3)
        S = symplectic_complete(v)
        assert verify_completion(S, 3)
        doubled = ExactMatrix([[2 * x if c == 1 else x for c, x in enumerate(row)] for row in S.entries])
        assert not verify_completion(doubled, 3)


class TestIdentityErrors:
    def test_completion_postcondition(self, monkeypatch):
        monkeypatch.setattr(hecke, "verify_completion", lambda S, prec: False)
        z = MultiPoly.var("z")
        v = TruncatedSeriesVector((MultiPoly.const(1), z), precision=2)
        with pytest.raises(HeckeIdentityError):
            hecke.symplectic_complete(v)

    def test_nilpotent_outside_sp(self, monkeypatch):
        monkeypatch.setattr(hecke, "in_sp", lambda N: False)
        with pytest.raises(HeckeIdentityError):
            hecke.smoothing_nilpotent(1)

    def test_family_inverse(self, monkeypatch):
        # use h_t in place of its inverse: h_t * h_t = I + 2 t z^-m N
        good = hecke._family_matrix
        monkeypatch.setattr(hecke, "_family_matrix", lambda N, m, sign: good(N, m, 1))
        with pytest.raises(HeckeIdentityError):
            hecke.hecke_family(1, 1)


class TestHeckeFamily:
    def test_caller_nilpotent_must_square_to_zero(self):
        # n = 1: the identity does not square to zero, [[1, 1], [-1, -1]] does
        with pytest.raises(ValueError, match="modification matrix must square to zero"):
            hecke_family(1, 1, ExactMatrix.identity(2))
        nilpotent = ExactMatrix([[1, 1], [-1, -1]])
        assert hecke_family(1, 1, nilpotent).N == nilpotent

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_caller_nilpotent_must_be_2n_square(self, shape):
        # n = 1 needs a 2x2 N; the shape is named before any product
        bad = ExactMatrix.zeros(*shape)
        for build in (hecke_family, glue_check):
            with pytest.raises(ValueError, match=rf"must be 2x2, not {shape[0]}x{shape[1]}"):
                build(1, 1, nilpotent=bad)

    def test_nilpotent_structure(self):
        N = smoothing_nilpotent(2)
        assert (N * N).is_zero and in_sp(N)
        # e1 -> f1 and everything else killed
        assert N.apply((1, 0, 0, 0)) == (0, 1, 0, 0)
        assert N.apply((0, 1, 0, 0)) == (0, 0, 0, 0)

    def test_symplectic_exactly(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                fam = hecke_family(n, m)
                assert verify_symplectic_family(fam)

    def test_inverse_formula(self):
        fam = hecke_family(2, 3)
        ident = ExactMatrix.identity(4).map_entries(lambda x: LaurentPoly.const("z", x))
        assert fam.h_t * fam.h_inv == ident
        assert fam.h_inv * fam.h_t == ident

    def test_t_zero_recovers_identity(self):
        fam = hecke_family(2, 2)
        ident = ExactMatrix.identity(4).map_entries(lambda x: LaurentPoly.const("z", x))
        assert fam.at_t_zero() == ident

    def test_single_t_linear_block_no_t_squared(self):
        fam = hecke_family(3, 2)
        t_entries = 0
        for row in fam.h_t.entries:
            for p in row:
                for k, c in p.coeffs.items():
                    assert c.degree_in("t") <= 1
                    if c.degree_in("t") == 1:
                        t_entries += 1
                        assert k == -2
        assert t_entries == 1

    def test_spinor_image_literal(self):
        # h_t(z^m e1) = z^m e1 + t f1, here with m = 1
        fam = hecke_family(1, 1)
        _, psi_d = modified_spinor(fam)
        t = MultiPoly.var("t")
        assert psi_d[0] == LaurentPoly("z", {1: MultiPoly.const(1)})
        assert psi_d[1] == LaurentPoly("z", {0: t})

    def test_spinor_image_general_m(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                fam = hecke_family(n, m)
                _, psi_d = modified_spinor(fam)
                t = MultiPoly.var("t")
                assert psi_d[0] == LaurentPoly("z", {m: MultiPoly.const(1)})
                assert psi_d[1] == LaurentPoly("z", {0: t})
                assert all(p.is_zero for p in psi_d[2:])


class TestGlue:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 1), (3, 2)])
    def test_all_assertions_pass(self, n, m):
        report = glue_check(n, m)
        assert isinstance(report, GlueReport)
        assert report.spinor_regular
        assert report.spinor_nonzero_at_origin
        assert report.higgs_glues
        assert report.higgs_regular
        assert report.passed

    def test_non_sp_nilpotent_breaks_gluing(self):
        # n = 2: send e1 to e2; squares to zero but is not in sp(4)
        rows = [[0] * 4 for _ in range(4)]
        rows[2][0] = 1
        bad = ExactMatrix(rows)
        assert (bad * bad).is_zero and not in_sp(bad)
        report = glue_check(2, 1, nilpotent=bad)
        assert not report.higgs_glues
        assert not report.passed

    def test_conjugation_equivariance_random_laurent(self):
        # g Phi_psi = Phi_{g psi} g for symplectic g over the Laurent ring
        for seed in range(8):
            n = 2
            g = random_symplectic_laurent(n, seed)
            omega = standard_omega(n).map_entries(lambda x: LaurentPoly.const("z", x))
            rng = random.Random(seed + 100)
            psi = [
                LaurentPoly("z", {rng.randint(-1, 2): MultiPoly.const(rng.randint(-2, 2))})
                for _ in range(2 * n)
            ]
            lhs = g * gaiotto_field(omega, psi)
            rhs = gaiotto_field(omega, g.apply(psi)) * g
            assert lhs == rhs


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2)])
def test_family_checks_fail_for_a_scaled_family(monkeypatch, n, m):
    """h_t scaled by 2 takes Omega to 4 Omega and is 2 I at t = 0: the
    symplectic check on the rational form and the suite check both fail."""
    from spinorlab.suites import check_hecke_family

    fam = hecke_family(n, m)
    bad = HeckeFamily(fam.n, fam.m, fam.N, fam.h_t.scale(2), fam.h_inv)
    assert verify_symplectic_family(fam) and not verify_symplectic_family(bad)
    assert check_hecke_family(n, m) == (True, "")
    monkeypatch.setattr(hecke, "hecke_family", lambda n, m: bad)
    assert check_hecke_family(n, m) == (False, "family identity failed")
