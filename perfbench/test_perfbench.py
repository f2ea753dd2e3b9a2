"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench

Runs every workload's smoke subset once untraced and the session subset once
traced, and checks the output contract against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result_of(run_bench("--workload", workload, "--trace", "0"))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["ok_ratio"]["value"] == 1.0
    assert metrics["accuracy_margin"]["value"] <= 1.0


def test_per_layer_metrics_add_up():
    proc = run_bench("--workload", "session", "--trace", "1")
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "missing layer metrics" not in proc.stdout
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["cli.main_s"] > 0 and value["spectrum.cache_save_s"] > 0 and value["analysis.check_s"] > 0
    # layer self times plus the benchmark's own time account for the traced pass
    assert abs(value["trace.unattributed_s"]) < 0.01 * value["trace.pass_s"]


def test_missing_wrap_target_is_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import steklov.analysis
    import steklov.cli  # imported before the removal, as in a run
    import tracing

    before = {name: getattr(steklov.analysis, name) for name in ("boundary_sup", "interior_l2")}
    monkeypatch.delattr(steklov.analysis, "invariant_suite")
    tracer = tracing.Tracer()
    tracer.install()
    assert steklov.analysis.boundary_sup is not before["boundary_sup"]
    tracer.uninstall()
    assert {name: getattr(steklov.analysis, name) for name in before} == before
    assert tracer.missing == ["steklov.analysis.invariant_suite"]
    _, missing = tracer.metrics(1, 1.0, 1.0)
    assert missing == ["analysis.check_s"]


def test_wrapper_cost_is_taken_off(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    tracer = tracing.Tracer()
    tracer.cost = {"span": (1.0, 2.0), "leaf": (0.5, 0.25)}  # (inside the call, in the caller)
    op = tracer.root.children["bench.op"] = tracing.Node("bench.op", tracer.root)
    coeff = op.children["boundary.coeff"] = tracing.Node("boundary.coeff", op)
    data = coeff.children["boundary.data"] = tracing.Node("boundary.data", coeff, leaf=True)
    op.count, op.total, op.child = 1, 100.0, 50.0
    coeff.count, coeff.total, coeff.child = 1, 50.0, 20.0
    data.count, data.total, data.items = 10, 20.0, 10
    # the op's own wrapper cost in its caller lies inside the measured pass
    values, _ = tracer.metrics(1, 102.0, 90.0)
    assert values["boundary.data_s"] == 20.0 - 10 * 0.5
    assert values["boundary.coeff_s"] == 50.0 - 1.0 - 10 * 0.75
    assert values["boundary.self_s"] == (30.0 - 1.0 - 10 * 0.25) + 15.0
    assert values["bench.self_s"] == 50.0 - 1.0 - 2.0
    assert values["trace.wrapper_s"] == 3.0 + 3.0 + 7.5
    assert values["boundary.data_points"] == 10
    assert values["trace.unattributed_s"] == 0.0


def test_speed_scales_by_the_probe(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import hostspeed

    speed = hostspeed.Speed()
    speed.start()
    time.sleep(0.3)  # the timer takes probes meanwhile
    factor = speed.stop()
    assert not speed.disturbed
    assert len(speed.samples) > 2 * hostspeed.BRACKET
    assert factor == hostspeed.REF_PROBE_S / statistics.median(speed.samples)
    assert speed.spent > 0


def test_speed_is_not_scaled_while_own_threads_run(monkeypatch):
    """Work the program leaves running slows the probe; it must not be scaled away."""
    monkeypatch.syspath_prepend(str(HERE))
    import hostspeed

    done = threading.Event()

    def spin():
        while not done.is_set():
            pass

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        speed = hostspeed.Speed()
        speed.start()
        time.sleep(0.3)
        factor = speed.stop()
    finally:
        done.set()
        worker.join()
    assert speed.disturbed and factor == 1.0


def test_table_check_grades_numpy_flags(monkeypatch):
    """Graders that return numpy scalars are graded by truth, not identity."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    import workloads

    header = ("data", "M", "computed", "printed", "rel_diff", "within", "note")
    good = ("f1", 3, np.float64(1.01), 1.0, np.float64(0.01), np.True_, "")
    bad = good[:5] + (np.False_, "")
    rows = workloads.TABLE_ROWS[12]
    check = workloads._check_table(12, SimpleNamespace(header=header, rows=[good] * rows))
    assert check.margin == pytest.approx(0.01 / workloads.RERR_TOL)
    with pytest.raises(workloads.Incorrect):
        workloads._check_table(12, SimpleNamespace(header=header, rows=[bad] + [good] * (rows - 1)))


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "tables", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
