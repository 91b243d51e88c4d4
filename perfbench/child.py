"""One measurement in a fresh interpreter.

run.py starts ``python3 -I perfbench/child.py REQUEST`` for every timed,
set-up or traced run, with REQUEST a JSON object holding ``mode``
("setup", "suite" or "traced"), ``workload``, ``seed`` and, for traced runs,
``spans_path`` and ``run_id``.  The child prints one JSON line and exits 0
when every case passed and 1 when one failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, build_setup  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is their largest peak
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _verdict(report) -> dict:
    from spinorlab.cli import report_body

    return {
        "passed": report.passed,
        "failed": report.failed,
        "failures": report.failures[:5],
        "body_sha256": hashlib.sha256(report_body(report).encode()).hexdigest(),
    }


def main(argv) -> int:
    req = json.loads(argv[1])
    w = WORKLOADS[req["workload"]]

    if req["mode"] == "setup":
        start = time.perf_counter()
        import spinorlab  # noqa: F401

        build_setup(w)
        setup_s = time.perf_counter() - start
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from spinorlab import suites

    config = suites.SuiteConfig(suite=w.suite, n=w.n, s=w.s, trials=w.trials, seed=req["seed"])
    if req["mode"] == "suite":
        cpu = _cpu_s()
        start = time.perf_counter()
        report = suites.run_suite(config)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu
        out = {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        report = suites.run_suite(config)  # the wrapped binding: the root span
        tracer.write_spans(req["spans_path"], req["run_id"])
        out = {
            "wall_s": tracer.wall_s(),
            "metrics": tracer.metrics(),
            "layers": tracer.layers(),
            "max_shape": tracer.max_shape,
            "spans": len(tracer.spans),
        }
    out.update(_verdict(report))
    print(json.dumps(out))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
