"""Workload definitions shared by run.py and its child runs.

A workload pins a suite, its size parameters and its trial count; the only
thing a benchmark run varies is the seed, which reaches the program solely
through ``SuiteConfig.seed``.  README.md in this directory says why each
workload exists and which layer each one drives.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed used while a change is written, and one kept back so that a claim
# can be re-checked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Each run cycles through this many suite seeds derived from --seed.  Case
# cost varies from seed to seed (random dimensions, coefficient sizes), so
# timing several seeds per run keeps that variation out of the run-to-run
# spread; every derived seed still runs several times, so report bodies can
# be compared between repeats.
SUBSEEDS = 2
MAX_SEED = (2 ** 64) // SUBSEEDS - 1


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    n: int
    s: int
    trials: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moment-dense", "moment-equivariance", n=4, s=2, trials=100,
            why="dense ExactMatrix products over Fraction plus the sp(8) set-up; "
            "bypasses the rings layer",
        ),
        Workload(
            "petri-large", "petri", n=4, s=4, trials=6,
            why="few large symbolic cases: Dual-over-MultiPoly differentials and "
            "rank of a big Q matrix",
        ),
        Workload(
            "mix-small", "all", n=2, s=2, trials=60,
            why="many small cases over every module with a cheap set-up; "
            "per-call cost on small objects",
        ),
    )
}


def subseeds(seed: int) -> list[int]:
    """The suite seeds one benchmark run cycles through."""
    return [seed * SUBSEEDS + j for j in range(SUBSEEDS)]


_GLUE_GRID = {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}


def expected_cases(suite: str, n: int, trials: int, m: int = 1) -> int:
    """Number of cases a suite must report for this config, counted from the
    suite definitions independently of the code under test."""
    per_suite = {
        "moment-equivariance": 3 * trials,
        "gaiotto": trials,
        "petri": trials,
        "cech": 2 * trials,
        # literal image, 3x3 family and glue cases, the configured glue point
        # when it lies off that grid, and the completion case
        "hecke": 1 + 2 * len(_GLUE_GRID) + ((n, m) not in _GLUE_GRID) + 1,
        "cocycle": trials,
        "bbflow": trials,
        "dims": 1 + (n >= 2) + 2,
        "stability-scan": 1,
    }
    if suite == "all":
        return sum(per_suite.values())
    return per_suite[suite]


def build_setup(w: Workload) -> None:
    """Call the public constructors the workload's suite calls before its
    first case."""
    from spinorlab import MomentContext, SectionSpace, sl2_sym_cube, sl2_w_plus_wdual, sp_standard

    if w.suite in ("moment-equivariance", "all"):
        for rep in (sp_standard(w.n), sl2_w_plus_wdual(), sl2_sym_cube()):
            MomentContext(rep)
    if w.suite in ("petri", "all"):
        SectionSpace(sp_standard(w.n), w.s)
        SectionSpace(sl2_w_plus_wdual(), w.s)
