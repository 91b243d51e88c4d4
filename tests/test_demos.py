"""Every narrative script under demos/ must run clean end to end and print
exactly its committed output in tests/demo_golden/ (the output depends on no
hash seed, so a byte-for-byte comparison locks every printed value and
term order)."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(script), run_name="__main__")
    assert buf.getvalue().strip()
    assert buf.getvalue() == (HERE / "demo_golden" / f"{script.stem}.txt").read_text()


def test_every_golden_file_has_its_demo():
    assert sorted(p.stem for p in (HERE / "demo_golden").glob("*.txt")) == [p.stem for p in DEMOS]
