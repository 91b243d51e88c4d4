"""Seeded verification suites over every module, with deterministic,
machine-readable reports.

Each suite is a generator of ``(case_id, ok, detail)`` that runs module-level
check functions in order.  A check takes a ``random.Random`` (when it draws)
plus its explicit inputs and returns ``(ok, detail)``; the acceptance tests call
the same checks with their own seeds.  Per-trial randomness is derived from the
master seed through a splittable counter mix (trial i uses seed XOR
splitmix64(i)), so each trial is independently reproducible and the report body
is a pure function of (config, seed).  A trial draws from a ``TrialRandom``,
which gives the stream ``random.Random`` gives from the same seed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from functools import cache

from . import bbflow, cech, cocycle, hecke, petri, rrdim
from ._record import Record
from .lie import MAX_N, sl2_sym_cube, sl2_w_plus_wdual, sp_standard
from .matrix import ExactMatrix, TrialRandom, in_sp, standard_omega
from .moment import MomentContext, equivariance_check, gaiotto_field, hitchin_invariants
from .rings import LaurentPoly, MultiPoly

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Unknown suite, or a parameter that is not an int or is out of range."""


# Each int field of SuiteConfig, its inclusive bounds, and the message when
# it is out of them; the fields are checked in this order.
_INT_FIELDS = (
    ("n", 1, MAX_N, f"n must be in 1..{MAX_N}"),
    ("g", 2, 1000, "g must be in 2..1000"),
    ("m", 1, 64, "m must be in 1..64"),
    ("s", 1, 4, "s must be in 1..4"),
    ("prec", 1, 64, "prec must be in 1..64"),
    ("trials", 1, 10_000, "trials must be in 1..10000"),
    ("seed", 0, 2 ** 64 - 1, "seed must fit in 64 bits"),
)


class SuiteConfig(Record):
    """Validated run parameters: a known suite name and ints in range (a
    ``bool`` is not an int here); anything else raises ConfigError."""

    def __init__(
        self,
        suite: str,
        n: int = 2,
        g: int = 2,
        m: int = 1,
        s: int = 2,
        prec: int = 4,
        trials: int = 100,
        seed: int = 0,
    ):
        self._store(locals())
        if suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
        for name, lo, hi, message in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an int, not {type(value).__name__}")
            if not lo <= value <= hi:
                raise ConfigError(message)


class SuiteReport(Record):
    def __init__(self, suite: str, config: dict, passed: int, failed: int, failures: list, wall_time: float):
        self._store(locals())

    def to_json_dict(self) -> dict:
        """Determinism contract: wall_time and timestamps stay out of the body."""
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [{"case": c, "residual": r} for c, r in self.failures],
        }


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_seed(master: int, i: int) -> int:
    return (master ^ splitmix64(i)) & 0xFFFFFFFFFFFFFFFF


def _rng(cfg: SuiteConfig, i: int) -> TrialRandom:
    return TrialRandom(trial_seed(cfg.seed, i))


@cache
def _rationals(bound: int) -> tuple:
    """Row n + bound holds Fraction(n, d) for d in (1, 1, 2, 3)."""
    return tuple(tuple(Fraction(n, d) for d in (1, 1, 2, 3)) for n in range(-bound, bound + 1))


def _rand_rational(rng, bound=6):
    """Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3))): the
    same two draws, read off a table of the reduced values."""
    return rng.choice(_rationals(bound)[rng.randint(-bound, bound) + bound])


# -- checks: each returns (ok, detail) --------------------------------------


def check_equivariance(rng, ctx: MomentContext):
    psi = [_rand_rational(rng) for _ in range(ctx.rep.dimV)]
    xi = [rng.randint(-3, 3) for _ in range(ctx.rep.algebra.dim)]
    ok, _ = equivariance_check(ctx, psi, xi)
    return ok, "" if ok else "nonzero equivariance residual"


def check_gaiotto(rng, n: int):
    """The rank-one field squares to zero, lies in sp(2n) and has the
    characteristic polynomial lambda^2n (monic, every lower coefficient 0)."""
    omega = standard_omega(n)
    psi = [_rand_rational(rng) for _ in range(2 * n)]
    Phi = gaiotto_field(omega, psi)
    sq = (Phi * Phi).is_zero
    sp_mem = in_sp(Phi, omega)
    coeffs = hitchin_invariants(Phi)
    nilp = all(c == 0 for c in coeffs[:-1]) and coeffs[-1] == 1
    ok = sq and sp_mem and nilp
    return ok, "" if ok else f"square_zero={sq} sp={sp_mem} nilpotent_cone={nilp}"


def check_standard_injective(rng, space: petri.SectionSpace):
    coords = [_rand_rational(rng, 4) for _ in range(space.dim)]
    if not any(coords):
        coords[0] = Fraction(1)
    kernel = petri.petri_kernel(space, coords)
    ok = kernel == []
    return ok, "" if ok else f"kernel dimension {len(kernel)}"


def check_dual_pair(rng, space: petri.SectionSpace):
    """On a W + W* space: the predicted direction lies in the Petri kernel and
    the moment map is invariant under the scalar action."""
    rep = space.rep
    m = rep.dimV
    while True:
        coords = [_rand_rational(rng, 4) for _ in range(space.dim)]
        u_part = [coords[k * m + j] for k in range(space.degree_bound) for j in (0, 1)]
        d_part = [coords[k * m + j] for k in range(space.degree_bound) for j in (2, 3)]
        if any(u_part) and any(d_part):
            break
    direction = petri.dual_pair_kernel_direction(rep, space, coords)
    in_kernel = petri.in_petri_kernel(space, coords, direction)
    t = _rand_rational(rng, 4)
    while t == 0:
        t = _rand_rational(rng, 4)
    point = [_rand_rational(rng) for _ in range(m)]
    inv = petri.scalar_action_invariance(rep, point, t)
    ok = in_kernel and inv
    return ok, "" if ok else f"direction_in_kernel={in_kernel} scaling_invariant={inv}"


_EULER_DISAGREEMENT = "formula disagreement"


def check_cech_model(rng):
    model = cech.random_model(rng)
    try:
        cech.euler_char(model)
    except cech.EulerCharError:
        return False, _EULER_DISAGREEMENT
    report = cech.les_segment(model)
    ok = report.all_exact
    return ok, "" if ok else f"inexact nodes {[n[0] for n in report.nodes if not n[-1]]}"


def check_chase(rng):
    v = cech.j_injectivity_experiment(cech.random_morphism(rng, ensure_hypothesis=True))
    ok = v.implication_holds and v.hypothesis
    return ok, "" if ok else f"H={v.hypothesis} C={v.conclusion}"


def check_literal_image(n: int, m: int):
    """The modified spinor of the (n, m) family is (z^m, t, 0, ..., 0)."""
    _, psi_d = hecke.modified_spinor(hecke.hecke_family(n, m))
    ok = (
        psi_d[0] == LaurentPoly("z", {m: MultiPoly.const(1)})
        and psi_d[1] == LaurentPoly("z", {0: MultiPoly.var("t")})
        and all(p.is_zero for p in psi_d[2:])
    )
    return ok, "" if ok else "image mismatch"


def check_hecke_family(n: int, m: int):
    """h_t is symplectic and is the identity at t = 0; ``hecke_family``
    itself raises HeckeIdentityError unless h_inv inverts h_t."""
    fam = hecke.hecke_family(n, m)
    ident = ExactMatrix.identity(2 * n)
    ok = hecke.verify_symplectic_family(fam) and fam.at_t_zero() == ident
    return ok, "" if ok else "family identity failed"


def check_glue(n: int, m: int):
    report = hecke.glue_check(n, m)
    ok = report.passed
    return ok, "" if ok else (
        f"regular={report.spinor_regular} nonzero={report.spinor_nonzero_at_origin} "
        f"glues={report.higgs_glues} higgs_regular={report.higgs_regular}"
    )


def check_completion(rng, n: int, prec: int):
    z = MultiPoly.var("z")
    entries = []
    for _ in range(2 * n):
        p = MultiPoly.const(rng.randint(-3, 3))
        for k in range(1, prec):
            p = p + rng.randint(-2, 2) * z ** k
        entries.append(p)
    if all(e.coeff({"z": 0}) == 0 for e in entries):
        entries[0] = entries[0] + 1
    v = hecke.TruncatedSeriesVector(tuple(entries), precision=prec)
    ok = hecke.verify_completion(hecke.symplectic_complete(v), prec)
    return ok, "" if ok else "postcondition failed"


def check_cocycle(rng, n: int):
    """The residual of a fresh cocycle vanishes, a perturbed one does not, and
    the necessity solve recovers exactly the theta-dual block."""
    c = cocycle.fresh_symbol_cocycle(n, seed=rng.randint(0, 2 ** 32 - 1))
    zero = cocycle.verify_form_preservation(c).is_zero
    perturbed = cocycle.perturb_gamma(c, slot=rng.randrange(2 * n - 2))
    nonzero = not cocycle.verify_form_preservation(perturbed).is_zero
    l = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    d = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2 * n - 2))
    a = Fraction(rng.randint(-4, 4))
    res = cocycle.necessity_solve(n, l, c.u, d, a)
    want = cocycle.theta_dual(d, c.u, l, cocycle.middle_theta(n))
    necessity_ok = res.unique and list(res.gamma) == [Fraction(w) for w in want]
    ok = zero and nonzero and necessity_ok
    return ok, "" if ok else (
        f"residual_zero={zero} perturbation_detected={nonzero} necessity={necessity_ok}"
    )


def check_bbflow(rng, n: int):
    scale = _rand_rational(rng, 5)
    if scale == 0:
        scale = Fraction(1)
    model = bbflow.graded_model(n, bbflow.strictly_filtered_phi(n, scale))
    lim = bbflow.bb_limit(model)
    limit_ok = lim is not None and lim == bbflow.strictly_filtered_phi(n, scale)
    a = _rand_rational(rng, 9)
    while a == 0:
        a = _rand_rational(rng, 9)
    weight_ok = bbflow.fixed_point_scale_check(model, a)
    torus_ok = bbflow.torus_preserves_form(model)
    conv_ok = bbflow.lambda_s_conversion_check(model)
    generic = ExactMatrix([[rng.randint(1, 3) for _ in range(2 * n)] for _ in range(2 * n)])
    no_limit_ok = bbflow.bb_limit(bbflow.graded_model(n, generic)) is None
    ok = limit_ok and weight_ok and torus_ok and conv_ok and no_limit_ok
    return ok, "" if ok else (
        f"limit={limit_ok} weight2={weight_ok} torus={torus_ok} "
        f"conversion={conv_ok} generic_absent={no_limit_ok}"
    )


def check_pair_euler(n: int, g: int):
    """The pair-complex Euler identity at (n, g); the label carries the values."""
    rec = rrdim.pair_euler_identity(n, g)
    label = f": chi={rec.chi_pair} expected={rec.expected}"
    return label, rec.ok, "" if rec.ok else f"chi_pair={rec.chi_pair} expected={rec.expected}"


def check_y_dimension(n: int, g: int):
    """The y-dimension identity at (n, g); the label carries the decomposition."""
    rec, expected, ok = rrdim.y_dimension_identity(n, g)
    label = (
        f": {rec.moduli_term}+{rec.extension_term}+{rec.torsor_term}"
        f"={rec.total} expected={expected}"
    )
    return label, ok, "" if ok else f"total={rec.total} expected={expected}"


def check_stability_scan(g: int):
    """Every stability case up to genus g + 4; the label carries the case count."""
    checked, bad = rrdim.stability_scan(genus_range=range(2, g + 5))
    return f"/{checked}-cases", not bad, "" if not bad else f"counterexamples {bad[:3]}"


def check_dims_range():
    """Both dimension identities at every n, g <= 20 (y-dim from n = 2)."""
    bad = [(n, g) for n in range(1, 21) for g in range(2, 21)
           if not rrdim.pair_euler_identity(n, g).ok]
    bad += [(n, g) for n in range(2, 21) for g in range(2, 21)
            if not rrdim.y_dimension_identity(n, g)[2]]
    return not bad, "" if not bad else f"failures at {bad[:5]}"


def check_dims_symbolic():
    ok = rrdim.pair_euler_identity_symbolic().is_zero and rrdim.y_dimension_symbolic().is_zero
    return ok, "" if ok else "nonzero polynomial"


# -- suites: generators of (case_id, ok, detail) ------------------------------


def _error_detail(exc: Exception) -> str:
    """Print the traceback being handled to stderr and return the failure
    detail ``"<ExceptionType>: <message>"``."""
    import traceback  # only on this error path: a clean run never pays its import

    traceback.print_exc()
    return f"{type(exc).__name__}: {exc}"


def _guard(check, *args):
    """Run one check; an exception fails only this case (see ``_error_detail``)."""
    try:
        return check(*args)
    except Exception as exc:
        return False, _error_detail(exc)


def _guard_labelled(prefix: str, check, *args):
    """Run a check that returns ``(label, ok, detail)``, whose label carries
    computed values and completes the case id ``prefix + label``; an exception
    fails the case under ``prefix`` alone (see ``_error_detail``)."""
    try:
        label, ok, detail = check(*args)
    except Exception as exc:
        return prefix, False, _error_detail(exc)
    return prefix + label, ok, detail


def _moment_equivariance_cases(cfg: SuiteConfig):
    reps = [sp_standard(cfg.n), sl2_w_plus_wdual(), sl2_sym_cube()]
    for pos, rep in enumerate(reps):
        ctx = MomentContext(rep)
        for i in range(cfg.trials):
            trial = pos * cfg.trials + i
            ok, detail = _guard(check_equivariance, _rng(cfg, trial), ctx)
            yield (f"{rep.name}/t{i:04d}", ok, detail if ok else f"{detail} (trial index {trial})")


def _gaiotto_cases(cfg: SuiteConfig):
    for i in range(cfg.trials):
        n = 1 + (i % cfg.n)
        yield (f"gaiotto/n{n}/t{i:04d}", *_guard(check_gaiotto, _rng(cfg, i), n))


def _petri_cases(cfg: SuiteConfig):
    std_space = petri.SectionSpace(sp_standard(cfg.n), cfg.s)
    dual_space = petri.SectionSpace(sl2_w_plus_wdual(), cfg.s)
    for i in range(cfg.trials):
        rng = _rng(cfg, i)
        if i % 2 == 0:
            yield (f"standard-injective/t{i:04d}", *_guard(check_standard_injective, rng, std_space))
        else:
            yield (f"dual-pair-kernel/t{i:04d}", *_guard(check_dual_pair, rng, dual_space))


def _cech_cases(cfg: SuiteConfig):
    for i in range(cfg.trials):
        ok, detail = _guard(check_cech_model, _rng(cfg, 2 * i))
        kind = "euler" if detail == _EULER_DISAGREEMENT else "model"
        yield (f"{kind}/t{i:04d}", ok, detail)
        yield (f"chase/t{i:04d}", *_guard(check_chase, _rng(cfg, 2 * i + 1)))


_GLUE_GRID = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]


def _hecke_cases(cfg: SuiteConfig):
    yield ("modified-spinor/literal-image-n1-m1", *_guard(check_literal_image, 1, 1))
    for n, m in _GLUE_GRID:
        yield (f"family/n{n}/m{m}", *_guard(check_hecke_family, n, m))
        yield (f"glue/n{n}/m{m}", *_guard(check_glue, n, m))
    if (cfg.n, cfg.m) not in _GLUE_GRID:
        yield (f"glue/n{cfg.n}/m{cfg.m}", *_guard(check_glue, cfg.n, cfg.m))
    yield (f"completion/n{cfg.n}/prec{cfg.prec}", *_guard(check_completion, _rng(cfg, 0), cfg.n, cfg.prec))


def _cocycle_cases(cfg: SuiteConfig):
    n = max(2, cfg.n)
    for i in range(cfg.trials):
        yield (f"cocycle/n{n}/t{i:04d}", *_guard(check_cocycle, _rng(cfg, i), n))


def _bbflow_cases(cfg: SuiteConfig):
    for i in range(cfg.trials):
        yield (f"bbflow/n{cfg.n}/t{i:04d}", *_guard(check_bbflow, _rng(cfg, i), cfg.n))


def _dims_cases(cfg: SuiteConfig):
    yield _guard_labelled(f"pair-euler/n{cfg.n}/g{cfg.g}", check_pair_euler, cfg.n, cfg.g)
    if cfg.n >= 2:
        yield _guard_labelled(f"y-dim/n{cfg.n}/g{cfg.g}", check_y_dimension, cfg.n, cfg.g)
    yield ("numeric-range/n<=20/g<=20", *_guard(check_dims_range))
    yield ("symbolic-zero-polynomials", *_guard(check_dims_symbolic))


def _stability_cases(cfg: SuiteConfig):
    yield _guard_labelled("stability-scan", check_stability_scan, cfg.g)


_SUITE_CASES = {
    "moment-equivariance": _moment_equivariance_cases,
    "gaiotto": _gaiotto_cases,
    "petri": _petri_cases,
    "cech": _cech_cases,
    "hecke": _hecke_cases,
    "cocycle": _cocycle_cases,
    "bbflow": _bbflow_cases,
    "dims": _dims_cases,
    "stability-scan": _stability_cases,
}

SUITE_NAMES = (*_SUITE_CASES, "all")


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the named suite, case by case in order; deterministic in
    (config, seed).

    An exception raised by a check fails only its own case (``_guard``); one
    raised while a suite sets up ends that suite as one failed case ``error``
    with the same detail, and the run goes on with the next suite.

    The cyclic garbage collector is off for the length of the run, as in
    ``timeit``, and is switched back on afterwards only if it was on before,
    whatever way the run ends.  A run makes no reference cycles, so the
    collector would only walk live objects and free nothing;
    ``tests/test_collector.py::test_runs_leave_nothing_to_collect`` pins that
    premise.  ``gc.freeze`` is not used, as it would move the caller's own
    young objects into the oldest generation for good.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        names = list(_SUITE_CASES) if config.suite == "all" else [config.suite]
        passed = 0
        failures = []
        for name in names:
            prefix = f"{name}/" if config.suite == "all" else ""
            try:
                for case_id, ok, detail in _SUITE_CASES[name](config):
                    if ok:
                        passed += 1
                    else:
                        failures.append((prefix + case_id, detail))
            except Exception as exc:
                failures.append((prefix + "error", _error_detail(exc)))
        return SuiteReport(
            suite=config.suite,
            config={f: getattr(config, f) for f in SuiteConfig._fields},
            passed=passed,
            failed=len(failures),
            failures=failures,
            wall_time=time.monotonic() - start,
        )
    finally:
        if was_enabled:
            gc.enable()
