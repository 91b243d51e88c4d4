"""The benchmark's own checks: every per-layer counter fires on the workload
that drives it, tracing changes no verdict, the definition in BENCHMARK.json
matches what the runs print, and the verdict gate rejects bad runs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import Gate, Runner  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, expected_cases, subseeds  # noqa: E402

# The suite seed a traced benchmark run on the default seed uses.
SEED = subseeds(DEFAULT_SEED)[0]

# The per-layer metrics each workload must drive (README.md, layer-to-metric map).
DRIVEN = {
    "moment-dense": [
        "matrix.mul.count", "matrix.apply.count", "matrix.add_scale.count",
        "lie.build.self_s", "lie.coords.count", "moment.context.self_s",
        "moment.equivariance.count", "moment.differential.count",
    ],
    "petri-large": [
        "rings.multipoly_new.count", "rings.multipoly_mul.count",
        "rings.multipoly_add.count", "rings.dual_mul.count",
        "matrix.rank_kernel.count", "matrix.rank_kernel.max_shape",
        "matrix.entry_bits.max", "lie.build.self_s", "moment.context.self_s",
        "moment.differential.count", "petri.matrix.count", "petri.kernel.count",
    ],
    "mix-small": [
        "rings.multipoly_new.count", "rings.multipoly_mul.count",
        "rings.multipoly_add.count", "rings.fracelem_ops.count",
        "rings.laurent_mul.count", "matrix.rank_kernel.count", "matrix.rank.count",
        "matrix.solve.count", "matrix.inverse.count", "matrix.char_poly.count",
        "matrix.entry_bits.max", "moment.gaiotto.count", "cech.random_model.count",
        "cech.random_morphism.count", "cech.chase.count", "cech.les.count",
        "cech.extend_accept_ratio", "cocycle.fresh.count", "cocycle.form_check.count",
        "cocycle.necessity.count", "hecke.family.count", "hecke.glue.count",
        "hecke.completion.count", "bbflow.checks.count", "rrdim.count",
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_drives_its_layers(workload, tmp_path):
    runner = Runner(workload, time.monotonic())
    code, plain = runner.child("suite", SEED)
    code_t, traced = runner.child("traced", SEED, spans_path=str(tmp_path / "spans.jsonl"), run_id="t")
    assert code == code_t == 0
    w = WORKLOADS[workload]
    assert plain["passed"] == traced["passed"] == expected_cases(w.suite, w.n, w.trials)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["body_sha256"] == traced["body_sha256"]

    assert [m for m in DRIVEN[workload] if not traced["metrics"][m] > 0] == []
    assert sum(traced["layers"].values()) == pytest.approx(traced["wall_s"], rel=1e-9)

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    recorded = [s for s in spans if "span_id" in s]
    assert {s["run_id"] for s in spans} == {"t"}
    assert len(recorded) == traced["spans"]
    ids = {s["span_id"] for s in recorded}
    assert all(s["parent_id"] in ids or s["parent_id"] == 0 for s in recorded)
    assert all(s["start"] <= s["end"] for s in recorded)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {"cases_per_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix-small", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_counts_crashes_short_runs_and_changed_reports():
    gate = Gate(expected=10)
    good = {"passed": 10, "failed": 0, "failures": [], "body_sha256": "a"}
    assert gate.check("ok", 1, 0, good)
    assert not gate.check("crash", 1, -9, None)
    assert not gate.check("short", 1, 0, {**good, "passed": 9})
    assert not gate.check("changed", 1, 0, {**good, "body_sha256": "b"})
    assert not gate.check("failing", 2, 1, {**good, "passed": 8, "failed": 2})
    assert gate.check("other seed", 3, 0, {**good, "body_sha256": "b"})
    assert (gate.attempted, gate.failed) == (60, 10 + 1 + 2)
    assert {p.split()[0] for p in gate.problems} == {"crash", "short", "changed", "failing"}
