"""The benchmark's span tracer (``perfbench/tracer.py``) can wrap its targets.

``tracer.install`` finds each of its ``TARGETS`` with ``vars(owner)[name]``
and then rebinds every binding of that function object in the package.  So
each target must be a callable in its own module's or class's dict (a name
a class only inherits raises ``KeyError`` there), and no function object may
be wrapped under two metrics, or one wrapper would count for both.  This
file only reads the tracer module; it runs nothing of the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

import spinorlab.suites  # noqa: F401  (loads every module of the package)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


def _owner_dict(module: str, attr: str):
    owner = sys.modules[f"spinorlab.{module}"]
    *cls, name = attr.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    return vars(owner), name


def test_every_target_is_in_its_own_dict(tracer):
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        namespace, name = _owner_dict(module, attr)
        assert name in namespace, f"{module}.{attr} is not in its own dict"
        assert callable(namespace[name]), f"{module}.{attr} is not callable"


def test_no_function_is_wrapped_under_two_metrics(tracer):
    metrics = {}
    for module, attr, metric in tracer.TARGETS:
        namespace, name = _owner_dict(module, attr)
        metrics.setdefault(id(namespace[name]), set()).add(metric)
    shared = {i: m for i, m in metrics.items() if len(m) > 1}
    assert not shared
