"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them).

All tolerances are zero: the arithmetic is exact, so identities either hold
with empty residual or the criterion fails.
"""

import random
import time
from fractions import Fraction

from spinorlab import bbflow, cech, cocycle, hecke, petri, rrdim
from spinorlab.cli import report_body
from spinorlab.lie import sl2_sym_cube, sl2_w_plus_wdual, sp_standard
from spinorlab.matrix import random_symplectic, standard_omega
from spinorlab.moment import (
    MomentContext,
    equivariance_check,
    gaiotto_field,
    hitchin_invariants,
)
from spinorlab.rings import FracElem, LaurentPoly, MultiPoly
from spinorlab.suites import SuiteConfig, run_suite, trial_seed


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _rand_rational(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3]))


def test_criterion_01_moment_equivariance():
    start = time.monotonic()
    reps = [sp_standard(n) for n in (1, 2, 3, 4)] + [sl2_w_plus_wdual(), sl2_sym_cube()]
    bad = 0
    for pos, rep in enumerate(reps):
        ctx = MomentContext(rep)
        for i in range(500):
            rng = random.Random(trial_seed(1001, pos * 500 + i))
            psi = [_rand_rational(rng) for _ in range(rep.dimV)]
            xi = [rng.randint(-3, 3) for _ in range(rep.algebra.dim)]
            ok, _ = equivariance_check(ctx, psi, xi)
            bad += not ok
    elapsed = time.monotonic() - start
    _report(
        1,
        "moment equivariance, 500 trials x 6 reps, zero residual",
        bad == 0 and elapsed < 30.0,
        f"failures={bad}, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_gaiotto_nilpotency():
    bad = 0
    for i in range(1000):
        rng = random.Random(trial_seed(1002, i))
        n = 1 + (i % 4)
        omega = standard_omega(n)
        psi = [_rand_rational(rng) for _ in range(2 * n)]
        Phi = gaiotto_field(omega, psi)
        coeffs = hitchin_invariants(Phi)
        square_zero = (Phi * Phi).is_zero
        below_top_vanish = all(c == 0 for c in coeffs[:-1]) and coeffs[-1] == 1
        bad += not (square_zero and below_top_vanish)
    _report(2, "rank-one field nilpotency, 1000 spinors across n <= 4", bad == 0,
            f"failures={bad}")


def test_criterion_03_petri_dichotomy():
    bad = 0
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            space = petri.SectionSpace(sp_standard(n), s)
            for i in range(20):
                rng = random.Random(trial_seed(1003, n * 100 + s * 10 + i))
                coords = [_rand_rational(rng, 4) for _ in range(space.dim)]
                if not any(coords):
                    coords[0] = Fraction(1)
                bad += petri.petri_kernel(space, coords) != []
    rep = sl2_w_plus_wdual()
    space = petri.SectionSpace(rep, 2)
    m = rep.dimV
    for i in range(50):
        rng = random.Random(trial_seed(1013, i))
        while True:
            coords = [_rand_rational(rng, 4) for _ in range(space.dim)]
            u_part = [coords[k * m + j] for k in range(2) for j in (0, 1)]
            d_part = [coords[k * m + j] for k in range(2) for j in (2, 3)]
            if any(u_part) and any(d_part):
                break
        direction = petri.dual_pair_kernel_direction(rep, space, coords)
        pm = petri.petri_matrix(space, coords)
        bad += not all(x == 0 for x in pm.matrix.apply(direction))
    _report(3, "section-map dichotomy: standard injective, dual pair kernel",
            bad == 0, f"failures={bad}")


def test_criterion_04_diagram_chase():
    bad = 0
    for i in range(500):
        rng = random.Random(trial_seed(1004, i))
        morphism = cech.random_morphism(rng, ensure_hypothesis=True)
        v = cech.j_injectivity_experiment(morphism)
        bad += not (v.hypothesis and v.conclusion)
    for i in range(500):
        rng = random.Random(trial_seed(1014, i))
        model = cech.random_model(rng)
        try:
            cech.euler_char(model)
        except AssertionError:
            bad += 1
        bad += not cech.les_segment(model).all_exact
    _report(4, "diagram chase H=>C on 500 morphisms; Euler + exactness on 500 models",
            bad == 0, f"failures={bad}")


def test_criterion_05_cocycle_reconstruction():
    start = time.monotonic()
    bad = 0
    for n in (2, 3):
        for i in range(100):
            rng = random.Random(trial_seed(1005, n * 1000 + i))
            seed = rng.randint(0, 2 ** 32 - 1)
            c = cocycle.fresh_symbol_cocycle(n, seed=seed)
            if not cocycle.verify_form_preservation(c).is_zero:
                bad += 1
            perturbed = cocycle.perturb_gamma(c, slot=rng.randrange(2 * n - 2))
            if cocycle.verify_form_preservation(perturbed).is_zero:
                bad += 1
            u = random_symplectic(n - 1, seed)
            l = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            d = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2 * n - 2))
            res = cocycle.necessity_solve(n, l, u, d, Fraction(rng.randint(-4, 4)))
            want = cocycle.theta_dual(d, u, FracElem(l), cocycle.middle_theta(n))
            if not (res.unique and [FracElem(x) for x in res.gamma] == [FracElem(0) + w for w in want]):
                bad += 1
    elapsed = time.monotonic() - start
    _report(5, "cocycle residual identically zero iff gamma is the dual block",
            bad == 0 and elapsed < 60.0, f"failures={bad}, {elapsed:.1f}s < 60s")


def test_criterion_06_hecke_suite():
    bad = 0
    t = MultiPoly.var("t")
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            fam = hecke.hecke_family(n, m)
            if not hecke.verify_symplectic_family(fam):
                bad += 1
            _, psi_d = hecke.modified_spinor(fam)
            image_ok = (
                psi_d[0] == LaurentPoly("z", {m: MultiPoly.const(1)})
                and psi_d[1] == LaurentPoly("z", {0: t})
                and all(p.is_zero for p in psi_d[2:])
            )
            bad += not image_ok
            bad += not hecke.glue_check(n, m).passed
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
    for n in range(2, 21):
        for g in range(2, 21):
            bad += not rrdim.pair_euler_identity(n, g).ok
            bad += not rrdim.y_dimension_identity(n, g)[2]
    bad += not rrdim.pair_euler_identity_symbolic().is_zero
    bad += not rrdim.y_dimension_symbolic().is_zero
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
