"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them).

All tolerances are zero: the arithmetic is exact, so identities either hold
with empty residual or the criterion fails.
"""

import random
import time
from fractions import Fraction

import pytest

from spinorlab import bbflow, petri, rrdim
from spinorlab.cli import report_body
from spinorlab.lie import sl2_sym_cube, sl2_w_plus_wdual, sp_standard
from spinorlab.moment import MomentContext
from spinorlab.suites import (
    SuiteConfig,
    check_cech_model,
    check_chase,
    check_cocycle,
    check_dims_range,
    check_dims_symbolic,
    check_dual_pair,
    check_equivariance,
    check_gaiotto,
    check_glue,
    check_hecke_family,
    check_literal_image,
    check_standard_injective,
    run_suite,
    trial_seed,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    if not ok:
        pytest.fail(line)


def _failures(check, seed_base, indices, *args):
    """Run a suite check once per index, each on its own trial seed."""
    return sum(
        not check(random.Random(trial_seed(seed_base, i)), *args)[0] for i in indices
    )


def test_criterion_01_moment_equivariance():
    start = time.monotonic()
    reps = [sp_standard(n) for n in (1, 2, 3, 4)] + [sl2_w_plus_wdual(), sl2_sym_cube()]
    bad = 0
    for pos, rep in enumerate(reps):
        trials = range(pos * 500, pos * 500 + 500)
        bad += _failures(check_equivariance, 1001, trials, MomentContext(rep))
    elapsed = time.monotonic() - start
    _report(
        1,
        "moment equivariance, 500 trials x 6 reps, zero residual",
        bad == 0 and elapsed < 30.0,
        f"failures={bad}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_gaiotto_nilpotency():
    bad = sum(
        not check_gaiotto(random.Random(trial_seed(1002, i)), 1 + (i % 4))[0] for i in range(1000)
    )
    _report(2, "rank-one field nilpotency, 1000 spinors across n <= 4", bad == 0,
            f"failures={bad}")


def test_criterion_03_petri_dichotomy():
    bad = 0
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            space = petri.SectionSpace(sp_standard(n), s)
            base = n * 100 + s * 10
            bad += _failures(check_standard_injective, 1003, range(base, base + 20), space)
    bad += _failures(check_dual_pair, 1013, range(50), petri.SectionSpace(sl2_w_plus_wdual(), 2))
    _report(3, "section-map dichotomy: standard injective, dual pair kernel",
            bad == 0, f"failures={bad}")


def test_criterion_04_diagram_chase():
    bad = _failures(check_chase, 1004, range(500)) + _failures(check_cech_model, 1014, range(500))
    _report(4, "diagram chase H=>C on 500 morphisms; Euler + exactness on 500 models",
            bad == 0, f"failures={bad}")


def test_criterion_05_cocycle_reconstruction():
    start = time.monotonic()
    bad = sum(_failures(check_cocycle, 1005, range(n * 1000, n * 1000 + 100), n) for n in (2, 3))
    elapsed = time.monotonic() - start
    _report(5, "cocycle residual identically zero iff gamma is the dual block",
            bad == 0 and elapsed < 60.0, f"failures={bad}, {elapsed:.1f}s < 60s")


def test_criterion_06_hecke_suite():
    checks = (check_hecke_family, check_literal_image, check_glue)
    bad = sum(
        not check(n, m)[0] for n in (1, 2, 3) for m in (1, 2, 3) for check in checks
    )
    _report(6, "pole modification: symplectic, literal spinor image, gluing regular",
            bad == 0, f"failures={bad}")


def test_criterion_07_bb_limits():
    bad = 0
    for n in (1, 2, 3):
        model = bbflow.graded_model(n, bbflow.strictly_filtered_phi(n, scale=Fraction(5, 3)))
        lim = bbflow.bb_limit(model)
        if lim is None:
            bad += 1
        else:
            nonzero = [
                (i, j)
                for i in range(2 * n)
                for j in range(2 * n)
                if lim.entries[i][j] != 0
            ]
            bad += nonzero != [(0, 2 * n - 1)]
        rng = random.Random(trial_seed(1007, n))
        for _ in range(20):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            bad += not bbflow.fixed_point_scale_check(model, a)
    _report(7, "scaling limit exists with only the weight-2 block; a^2 identity x20",
            bad == 0, f"failures={bad}")


def test_criterion_08_dimension_identities():
    bad = 0
    rec = rrdim.pair_euler_identity(2, 2)
    bad += not (rec.ok and rec.chi_pair == -10)
    ydim, expected, ok = rrdim.y_dimension_identity(2, 2)
    bad += not (ok and (ydim.moduli_term, ydim.extension_term, ydim.torsor_term) == (3, 4, 3)
                and expected == 10)
    bad += not check_dims_range()[0]
    bad += not check_dims_symbolic()[0]
    _report(8, "dimension identities numeric (n,g <= 20) and as zero polynomials",
            bad == 0, f"failures={bad}")


def test_criterion_09_stability_scan():
    start = time.monotonic()
    checked, bad = rrdim.stability_scan()
    elapsed = time.monotonic() - start
    _report(9, f"stability scan: {checked} integer cases, no nonnegative degree",
            not bad and elapsed < 10.0, f"counterexamples={len(bad)}, {elapsed:.2f}s < 10s")


def test_criterion_10_determinism():
    ok = True
    for suite in ("hecke", "bbflow", "dims", "cocycle"):
        cfg = SuiteConfig(suite=suite, n=2, trials=5, seed=424242)
        body1 = report_body(run_suite(cfg))
        body2 = report_body(run_suite(cfg))
        ok = ok and body1 == body2
    _report(10, "byte-identical report bodies for identical config and seed", ok)
