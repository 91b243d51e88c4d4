"""The tier-1 suite reaches every line of ``src/spinorlab`` but those listed
in ``linecov/unreached.json``.

Kept outside tier-1 (``testpaths`` names ``tests`` only), like
``perfbench/``: run it with ``python3 -m pytest linecov``.
``test_no_line_off_the_list_goes_unreached`` runs the traced tier-1 suite
in a child interpreter, which takes several minutes.  When a change reaches
a listed line or deletes it, rerun ``python3 linecov/run.py`` so that the
list shrinks with it.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

LISTED = json.loads((HERE / "unreached.json").read_text())

SAMPLE = """\
def f(x):
    if x:
        return 1
    return [y for y in ()]


def g():
    return 3
"""


def test_tracer_keys_each_unreached_line_by_function_and_text(tmp_path):
    (tmp_path / "mod.py").write_text(SAMPLE)
    got = run.unreached(lambda: runpy.run_path(str(tmp_path / "mod.py"))["f"](1), tmp_path)
    assert got == {
        "mod.py::f.<locals>.<listcomp>::return [y for y in ()]": 1,
        "mod.py::f::return [y for y in ()]": 1,
        "mod.py::g::return 3": 1,
    }


def test_every_listed_line_is_in_the_package():
    """A listed line that was deleted or edited is dropped from the list."""
    missing = {}
    for key, count in LISTED.items():
        name, _, text = key.split("::", 2)
        path = run.SRC / name
        lines = [s.strip() for s in path.read_text().splitlines()] if path.exists() else []
        if lines.count(text) < count:
            missing[key] = count
    assert missing == {}


def test_no_line_off_the_list_goes_unreached(tmp_path):
    out = tmp_path / "unreached.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), str(out)], capture_output=True, text=True, timeout=3600
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    now = json.loads(out.read_text())
    new = {key: n - LISTED.get(key, 0) for key, n in now.items() if n > LISTED.get(key, 0)}
    assert new == {}
