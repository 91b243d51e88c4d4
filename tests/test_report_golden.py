"""The report bodies of 24 pinned config/seed pairs against their committed
sha256 digests in tests/report_golden.json.  A report body holds the
config and the verdicts of every case, so a digest pins which cases pass.
Three of the cheapest pairs are also digested in fresh interpreters under
two fixed hash seeds and under ``python -O``, so that a body is a function
of its config and seed alone.

To rewrite the digests after a deliberate change of a verdict:
``PYTHONPATH=src python tests/test_report_golden.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorlab
from spinorlab.cli import report_body
from spinorlab.suites import SuiteConfig, run_suite

GOLDEN = Path(__file__).resolve().parent / "report_golden.json"

PINNED = [SuiteConfig("all", n=2, s=2, trials=60, seed=seed) for seed in (2, 3, 15838, 15839)] + [
    SuiteConfig(seed=seed, **kw)
    for kw in (
        dict(suite="hecke", n=3, trials=5),
        dict(suite="hecke", n=4, m=5, prec=6, trials=5),
        dict(suite="all", n=3, s=3, trials=10),
        dict(suite="all", n=4, trials=5),
        dict(suite="cech", trials=200),
        dict(suite="cocycle", n=3, trials=20),
        dict(suite="cocycle", n=4, trials=10),
        dict(suite="moment-equivariance", n=4, trials=100),
        dict(suite="petri", n=4, s=4, trials=6),
        dict(suite="bbflow", n=4, trials=30),
    )
    for seed in (2, 15839)
]


def label(cfg):
    return (f"{cfg.suite} n={cfg.n} g={cfg.g} m={cfg.m} s={cfg.s} prec={cfg.prec} "
            f"trials={cfg.trials} seed={cfg.seed}")


def digest(cfg):
    return hashlib.sha256(report_body(run_suite(cfg)).encode()).hexdigest()


def test_every_pinned_pair_has_a_digest():
    assert len(PINNED) == 24
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(label, PINNED))


@pytest.mark.parametrize("cfg", PINNED, ids=label)
def test_report_body_matches_its_digest(cfg):
    assert digest(cfg) == json.loads(GOLDEN.read_text())[label(cfg)]


FRESH = [
    SuiteConfig("petri", n=4, s=4, trials=6, seed=2),
    SuiteConfig("hecke", n=3, trials=5, seed=2),
    SuiteConfig("cocycle", n=4, trials=10, seed=2),
]

# digests the pairs named on the command line, one JSON object on stdout
CHILD = """
import json, sys
from test_report_golden import PINNED, digest, label
print(json.dumps({label(c): digest(c) for c in PINNED if label(c) in sys.argv[1:]}))
"""


@pytest.mark.parametrize("flags, hash_seed", [([], "0"), ([], "1"), (["-O"], None)],
                         ids=["hash-seed-0", "hash-seed-1", "optimized"])
def test_fresh_interpreter_digests_match(flags, hash_seed):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    paths = [str(Path(spinorlab.__file__).resolve().parents[1]), str(GOLDEN.parent)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    labels = [label(c) for c in FRESH]
    out = subprocess.run([sys.executable, *flags, "-c", CHILD, *labels], env=env,
                         capture_output=True, text=True, check=True).stdout
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(out) == {name: golden[name] for name in labels}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label(c): digest(c) for c in PINNED}, indent=2, sort_keys=True) + "\n")
