"""``run_suite`` pauses the cyclic garbage collector for the length of a run.

- The caller gets its setting back on every way out of a run: entering on or
  off, with a check or a suite set-up that raises, with a
  ``KeyboardInterrupt`` from a suite, and through ``cli.main``.
- No collection starts inside a run, seen through ``gc.callbacks``.
- The premise of the pause: a run makes no reference cycles, so a
  ``gc.collect()`` right after a run with the collector off finds nothing.
  This runs in a fresh isolated interpreter, so no object of this test
  session is counted.
- Only ``suites`` imports ``gc``: no other module changes the collector.
"""

import ast
import gc
import subprocess
import sys
from pathlib import Path

import pytest

import spinorlab
from spinorlab import cli, petri, suites
from spinorlab.suites import SUITE_NAMES, SuiteConfig, run_suite

from test_import_lock import MODULES, absolute_imports

SRC = Path(spinorlab.__file__).resolve().parent.parent


@pytest.fixture(params=[True, False], ids=["entering-on", "entering-off"])
def collector(request):
    """Sets the collector on or off for one test; gives the session's setting
    back afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_a_run_gives_the_setting_back(collector):
    report = run_suite(SuiteConfig("gaiotto", trials=4, seed=3))
    assert report.failed == 0
    assert gc.isenabled() is collector


def test_a_check_that_raises_gives_the_setting_back(collector, monkeypatch):
    def boom(*args):
        raise ValueError("check failed loudly")

    monkeypatch.setattr(suites, "check_gaiotto", boom)
    report = run_suite(SuiteConfig("gaiotto", trials=2, seed=3))
    assert report.failed == 2
    assert gc.isenabled() is collector


def test_a_set_up_that_raises_gives_the_setting_back(collector, monkeypatch):
    def boom(*args):
        raise ValueError("set-up failed loudly")

    monkeypatch.setattr(petri, "SectionSpace", boom)
    report = run_suite(SuiteConfig("petri", trials=2, seed=3))
    assert [case for case, _ in report.failures] == ["error"]
    assert gc.isenabled() is collector


def test_an_interrupt_gives_the_setting_back(collector, monkeypatch):
    def interrupted(cfg):
        yield ("first", True, "")
        raise KeyboardInterrupt

    monkeypatch.setitem(suites._SUITE_CASES, "dims", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite(SuiteConfig("all", trials=1, seed=3))
    assert gc.isenabled() is collector


def test_the_cli_gives_the_setting_back(collector, capsys):
    assert cli.main(["--suite", "dims", "--trials", "1"]) == 0
    assert "passed" in capsys.readouterr().out
    assert gc.isenabled() is collector


def test_no_collection_starts_inside_a_run():
    events = []

    def record(phase, info):
        events.append((phase, info["generation"]))

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        report = run_suite(SuiteConfig("petri", n=4, s=4, trials=6, seed=1))
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()
    assert report.failed == 0
    assert events == []


NOTHING_TO_COLLECT = """
import gc, sys
sys.path.insert(0, {src!r})
from spinorlab.suites import SuiteConfig, run_suite
configs = [SuiteConfig(name, n=2, s=2, trials=60, seed=2) for name in {names!r}] + [
    SuiteConfig("moment-equivariance", n=4, s=2, trials=100, seed=1),
    SuiteConfig("petri", n=4, s=4, trials=6, seed=1),
]
found = []
for cfg in configs:
    gc.collect()
    gc.disable()
    report = run_suite(cfg)
    if report.failures:
        sys.exit(f"{{cfg.suite}} failed: {{report.failures}}")
    found.append((cfg.suite, cfg.n, gc.collect()))
    gc.enable()
print(found)
"""


def test_runs_leave_nothing_to_collect():
    """Every suite at n=2 s=2 and the two pinned n=4 configs (moment-dense
    and petri-large of the benchmark) leave no cyclic garbage."""
    probe = NOTHING_TO_COLLECT.format(src=str(SRC), names=SUITE_NAMES)
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    found = ast.literal_eval(out.stdout)
    assert len(found) == len(SUITE_NAMES) + 2
    assert [(suite, n, 0) for suite, n, _ in found] == found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_suites_imports_gc(path):
    assert ("gc" in absolute_imports(path.read_text())) == (path.name == "suites.py")
