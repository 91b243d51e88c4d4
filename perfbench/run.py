"""Benchmark of spinorlab's seeded verification suites.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs installing.  Load comes
from this one process as a closed loop: it starts one fresh interpreter at a
time (perfbench/child.py, SPINORLAB_WORKERS=1) and waits for it.

--trace 0 measures the end-to-end metrics from untraced runs: cases_per_s
(cases divided by the wall time of one run_suite call, set-up included),
setup_s (import plus the suite's public constructors, in a process of its
own, SETUP_RUNS times) and peak_rss_mb, with both times scaled to a
reference machine speed (CAL_REF_S) by a calibration job this process times
before and after every child.  It keeps going until --seconds have
passed and every derived seed has run at least MIN_REPEATS times.

--trace 1 alternates untraced and traced runs of one seed and reports the
per-layer counts and self times, with the traced-minus-untraced wall time as
the tracing overhead.  Spans go to perfbench/out/ as JSON lines.

Every run passes a verdict gate: exit status 0, no failed case, the case
count the config implies, and a report body that is byte-identical across
repeats of one (config, seed) and between traced and untraced runs.  A run
that fails the gate is printed and counted, never dropped.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, MAX_SEED, WORKLOADS, expected_cases, subseeds  # noqa: E402

# No new run starts after SOFT_LIMIT_S; a child still running at HARD_LIMIT_S
# is killed, so the benchmark ends well inside 180 seconds.
SOFT_LIMIT_S = 120
HARD_LIMIT_S = 170
# Timed runs per suite seed: an odd count, so one slow outlier never sets the median.
MIN_REPEATS = 3
# Set-up runs, interleaved with the first timed runs.
SETUP_RUNS = 5
# cases_per_s and setup_s are scaled to a machine on which calibrate() takes
# CAL_REF_S, its time on the quiet 2-core x86-64 machine this benchmark was
# defined on.  The shared host drifts by tens of percent within minutes; a
# calibration job timed next to every run takes that drift out of the
# comparison between two sets of runs.  Unscaled values are printed too.
CAL_REF_S = 0.12


def calibrate() -> float:
    """Seconds a fixed stdlib-only job takes: small Fraction arithmetic and
    dict updates, the kind of work the suites do.  It runs in this process,
    which never imports spinorlab in an untraced benchmark, so it measures how
    fast the shared machine runs right now and nothing of spinorlab's code."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 40_000):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + acc.denominator.bit_length()
        if i % 64 == 0:
            acc = Fraction(acc.numerator % 10007, acc.denominator % 10009 + 1)
    return time.perf_counter() - start


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Verdict checks over every run of one benchmark invocation."""

    def __init__(self, expected: int):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._bodies: dict[int, str] = {}

    def check(self, label: str, seed: int, code, out) -> bool:
        self.attempted += self.expected
        if out is None or code not in (0, 1):
            self.failed += self.expected
            self.problems.append(f"{label} seed={seed}: crashed with exit status {code}")
            return False
        self.failed += max(out["failed"], self.expected - out["passed"])
        bad = []
        if code != 0 or out["failed"]:
            bad.append(f"exit status {code}, {out['failed']} failed: {out['failures']}")
        if out["passed"] != self.expected:
            bad.append(f"{out['passed']} passed, config implies {self.expected}")
        body = self._bodies.setdefault(seed, out["body_sha256"])
        if out["body_sha256"] != body:
            bad.append("report body differs from an earlier run of the same seed")
        self.problems += [f"{label} seed={seed}: {b}" for b in bad]
        return not bad


class Runner:
    def __init__(self, workload: str, start: float):
        self.workload = workload
        self.start = start
        self.env = dict(os.environ, SPINORLAB_WORKERS="1")
        self._calibration = None  # the latest calibrate() time

    def timed_child(self, mode: str, seed: int = 0):
        """Run a child between two calibrations, and record their mean in its
        result as ``calibration_s``.  Adjacent children share the calibration
        that lies between them."""
        before = self._calibration if self._calibration is not None else calibrate()
        code, out = self.child(mode, seed)
        self._calibration = calibrate()
        if out is not None:
            out["calibration_s"] = (before + self._calibration) / 2
        return code, out

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str, seed: int = 0, **extra):
        """Run one child interpreter; returns (exit status, parsed result or None)."""
        request = json.dumps({"mode": mode, "workload": self.workload, "seed": seed, **extra})
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(CHILD), request],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return "timeout", None
        try:
            return proc.returncode, json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr[-2000:])
            return proc.returncode, None


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _scaled(out: dict, key: str) -> float:
    return out[key] * CAL_REF_S / out["calibration_s"]


def measure_end_to_end(w, seed: int, seconds: int, runner: Runner, gate: Gate):
    seeds = subseeds(seed)
    runs: dict[int, list] = {s: [] for s in seeds}
    setups = []
    k = 0
    while True:
        s = seeds[k % len(seeds)]
        code, out = runner.timed_child("suite", s)
        ok = gate.check(f"run {k}", s, code, out)
        if out is not None:
            runs[s].append(out)
            print(f"  run {k:2d} seed={s} wall={out['wall_s']:.3f}s calibration={out['calibration_s']:.4f}s "
                  f"passed={out['passed']} exit={code} rss={out['peak_rss_mb']:.1f}MB"
                  f"{'' if ok else '  GATE FAILED'}", flush=True)
        if k < SETUP_RUNS:
            code, out = runner.timed_child("setup")
            if code == 0 and out is not None:
                setups.append(out)
                print(f"  setup {k:2d} {out['setup_s']:.4f}s calibration={out['calibration_s']:.4f}s", flush=True)
            else:
                gate.problems.append(f"setup {k}: exit status {code}")
        k += 1
        done = k % len(seeds) == 0 and k >= MIN_REPEATS * len(seeds) and runner.elapsed() >= seconds
        if done or runner.elapsed() >= SOFT_LIMIT_S:
            break

    def cases_per_s(wall) -> float:
        timed = [statistics.median(map(wall, outs)) for outs in runs.values() if outs]
        return gate.expected * len(timed) / sum(timed) if timed else 0.0

    values = {
        "cases_per_s": cases_per_s(lambda o: _scaled(o, "wall_s")),
        "setup_s": _median([_scaled(o, "setup_s") for o in setups]),
        "peak_rss_mb": _median([o["peak_rss_mb"] for outs in runs.values() for o in outs]),
    }
    unscaled = {
        "cases_per_s": cases_per_s(lambda o: o["wall_s"]),
        "setup_s": _median([o["setup_s"] for o in setups]),
    }
    print(f"unscaled: cases_per_s {unscaled['cases_per_s']:.6g} 1/s, setup_s {unscaled['setup_s']:.6g} s; "
          f"median calibration {_median([o['calibration_s'] for outs in runs.values() for o in outs]):.4f}s "
          f"(reference {CAL_REF_S}s)")
    return values, {"unscaled": unscaled, "runs": runs, "setups": setups}


def layer_table(out: dict) -> list[str]:
    """Self time per layer of one traced run; the rows add up to its wall time."""
    layers, wall = out["layers"], out["wall_s"]
    rows = [f"  {'layer':18s} {'self_s':>9s} {'share':>7s}"]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        rows.append(f"  {layer:18s} {self_s:9.4f} {self_s / wall:7.1%}")
    rows.append(f"  {'sum':18s} {sum(layers.values()):9.4f}   traced wall {wall:.4f}s")
    return rows


def measure_traced(w, seed: int, seconds: int, runner: Runner, gate: Gate):
    s = subseeds(seed)[0]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{w.name}-seed{seed}.spans.jsonl"
    untraced, traced, overheads = [], [], []
    k = 0
    while True:
        code, plain = runner.child("suite", s)
        gate.check(f"untraced {k}", s, code, plain)
        if plain is not None:
            untraced.append(plain)
            print(f"  untraced {k} wall={plain['wall_s']:.3f}s", flush=True)
        run_id = uuid.uuid4().hex
        code, out = runner.child("traced", s, spans_path=str(spans_path), run_id=run_id)
        gate.check(f"traced {k}", s, code, out)
        if out is not None:
            traced.append(out)
            print(f"  traced   {k} wall={out['wall_s']:.3f}s spans={out['spans']} run_id={run_id}", flush=True)
            if plain is not None:
                # adjacent runs, so a slow spell of the machine cancels out
                overheads.append(out["wall_s"] - plain["wall_s"])
        k += 1
        if (k >= 2 and runner.elapsed() >= seconds) or runner.elapsed() >= SOFT_LIMIT_S:
            break

    untraced_wall = _median([u["wall_s"] for u in untraced])
    names = traced[0]["metrics"] if traced else {}
    metrics = {name: _median([t["metrics"][name] for t in traced]) for name in names}
    metrics["suites.cpu_s"] = _median([u["cpu_s"] for u in untraced])
    metrics["suites.trace_overhead_s"] = _median(overheads)
    if traced:
        last = traced[-1]
        rows, cols = last["max_shape"]
        print(f"layer table, last traced run (spans in {spans_path.relative_to(ROOT)}):")
        print("\n".join(layer_table(last)))
        print(f"  largest rank_kernel input {rows}x{cols}; untraced wall {untraced_wall:.4f}s")
    return metrics, {"untraced": untraced, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, 0..{MAX_SEED} (default {DEFAULT_SEED}; "
                        f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time, 1..120")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be in 0..{MAX_SEED}")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")
    if not (ROOT / "src" / "spinorlab" / "__init__.py").is_file():
        print(f"perfbench: no spinorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    w = WORKLOADS[args.workload]
    runner = Runner(w.name, time.monotonic())
    gate = Gate(expected_cases(w.suite, w.n, w.trials))
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "SPINORLAB_WORKERS": runner.env["SPINORLAB_WORKERS"],
        "commit": git_commit(ROOT),
    }
    print(f"perfbench workload={w.name} suite={w.suite} n={w.n} s={w.s} trials={w.trials} "
          f"cases/run={gate.expected} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))

    measure = measure_traced if args.trace else measure_end_to_end
    values, samples = measure(w, args.seed, args.seconds, runner, gate)
    if args.trace:
        from tracer import per_layer_metrics

        units = dict(per_layer_metrics())
    else:
        units = {"cases_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    fail_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{'fail_ratio':34s} {fail_ratio:14.6g} ({gate.failed}/{gate.attempted} cases)")
    for problem in gate.problems:
        print(f"GATE {problem}")

    result = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        **result, "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "env": env, "fail_ratio": fail_ratio, "problems": gate.problems, "samples": samples,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
