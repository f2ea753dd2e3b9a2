#!/usr/bin/env python3
"""Benchmark of the steklov package.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/` of the
checkout this file sits in, never from an installed copy. With `--trace 0`
the run reports the end-to-end metrics; with `--trace 1` it runs untraced
passes, then traced passes, and reports the per-layer metrics plus the
tracing overhead. Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Human-readable detail
goes to the lines before it, tracebacks to standard error.

Passes repeat the workload's fixed op list until another pass would end
after `--seconds`; at least one pass always runs. `--smoke` runs a small
subset of every workload for the benchmark's own test. Workloads, metrics
and what each should move are described in NOTES.md.

Judged times are scaled to the host's reference speed, sampled while each
op or setup process runs (hostspeed.py); the readable lines also give them
as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc


def import_package() -> None:
    package = ROOT / "src" / "steklov"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no steklov package at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import steklov

    if Path(steklov.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported steklov from {steklov.__file__}, not {package}")


@dataclass
class Pass:
    names: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # as measured
    scaled: list = field(default_factory=list)  # at the reference speed
    disturbed: int = 0  # ops left unscaled: the process's own threads were busy
    failed: int = 0
    margins: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def run_pass(workload, tracer=None, speed=None) -> Pass:
    """One pass over the op list: each op timed, then checked untimed.

    With `speed`, each op's latency is also scaled to the reference speed.
    """
    from workloads import Incorrect

    result = Pass()

    def timed(op):
        if speed is None:
            t0 = perf_counter()
            try:
                return tracer.op(op.name, op.run) if tracer else op.run()
            finally:
                result.latencies.append(perf_counter() - t0)
        speed.start()
        spent = speed.spent
        t0 = perf_counter()
        try:
            return op.run()
        finally:
            elapsed = perf_counter() - t0
            factor = speed.stop()
            latency = elapsed - (speed.spent - spent)  # less the probes run inside the op
            result.latencies.append(latency)
            result.scaled.append(latency * factor)
            result.disturbed += speed.disturbed

    for op in workload.ops():
        result.names.append(op.name)
        try:
            out = timed(op)
        except Exception:  # an op that raises is a failed op; the run goes on
            result.failed += 1
            print(f"op {op.name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        try:
            check = op.check(out)
        except Incorrect as exc:
            result.failed += 1
            print(f"op {op.name} incorrect: {exc}", file=sys.stderr)
            continue
        except Exception:
            result.failed += 1
            print(f"op {op.name} output could not be checked:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        del out
        if check.margin > 1.0:
            result.failed += 1
            print(f"op {op.name} error exceeds tolerance: margin {check.margin:.3g}", file=sys.stderr)
        result.margins.append(check.margin)
        for key, value in check.counters.items():
            result.counters[key] = result.counters.get(key, 0) + value
    return result


def measure(workload, seconds: float, tracer=None, speed=None) -> list[Pass]:
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, tracer, speed))
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def measure_setup(args) -> list[tuple[float, float]]:
    """Wall times, as measured and scaled, of fresh processes that import
    steklov and build the inputs.

    Each process probes the host speed itself, at its start and at its end:
    probes taken here would run on whichever CPU the child does not, and
    measure that CPU instead. The child's probe time is taken off its wall
    time.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        probed = json.loads(child.stdout.splitlines()[-1])
        elapsed = perf_counter() - t0 - probed["probe_s"]
        times.append((elapsed, elapsed * probed["factor"]))
    return times


def end_to_end(args, workload) -> tuple[list[Pass], dict]:
    speed = Speed()
    setup_runs = measure_setup(args)
    setup_s = statistics.median(scaled for _, scaled in setup_runs)
    passes = measure(workload, args.seconds, speed=speed)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.scaled_wall for p in passes), "s"),
        "op_p50_s": (statistics.median(t for p in passes for t in p.scaled), "s"),
        "op_tail_s": (statistics.median(max(p.scaled) for p in passes), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "accuracy_margin": (max((m for p in passes for m in p.margins), default=0.0), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # A pass holds 3 to 16 ops, too few for a percentile with ten samples
    # beyond it, so op_tail_s is the slowest op of a pass (p100, 0 beyond).
    # fail_ratio is printed but judged as ok_ratio; NOTES.md says why.
    print(f"{args.workload}: {len(passes)} passes of {len(passes[0].latencies)} ops; "
          f"op_tail_s is p100 of a pass (0 ops beyond); times at the reference speed")
    print(f"  {'fail_ratio':<16} {failed / attempted:.6g} ratio")
    for name, (value, unit) in values.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  {'wall_s measured':<16} {statistics.median(p.wall for p in passes):.6g} s "
          f"(ops left unscaled: {sum(p.disturbed for p in passes)})")
    for i, name in enumerate(passes[0].names):
        print(f"  op {name:<32} {statistics.median(p.scaled[i] for p in passes):.6g} s")
    print("  setup runs (measured/scaled): "
          + " ".join(f"{t:.4f}/{s:.4f}" for t, s in setup_runs))
    for k, p in enumerate(passes):
        print(f"  pass {k} (measured/scaled): "
              + " ".join(f"{t:.4f}/{s:.4f}" for t, s in zip(p.latencies, p.scaled)))
    return passes, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(args, workload) -> tuple[list[Pass], dict]:
    from tracing import METRICS, Tracer

    half = args.seconds / 2.0
    untraced = measure(workload, half)
    tracer = Tracer()
    tracer.calibrate()
    workload.instrument(tracer)
    tracer.install()
    try:
        traced = measure(workload, half, tracer)
    finally:
        tracer.uninstall()
    for p in traced:
        for key, value in p.counters.items():
            tracer.add(key, value)
    values, missing = tracer.metrics(
        len(traced),
        statistics.fmean(p.wall for p in traced),
        statistics.fmean(p.wall for p in untraced),
    )
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed,
                             "traced_passes": len(traced), "metrics": values,
                             "missing_metrics": missing})
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes; "
          f"spans in {trace_file.relative_to(ROOT)}")
    if missing:
        print(f"  missing layer metrics (wrap targets gone: {', '.join(tracer.missing)}): "
              f"{', '.join(missing)}")
    for name in METRICS:
        print(f"  {name:<32} {values[name]:.6g} {METRICS[name][0]}")
    return untraced + traced, {k: {"value": values[k], "unit": METRICS[k][0]} for k in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "solve", "field", "session"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small subset of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_threads()
    if args.setup_only:  # probe before the package and inputs load, and after
        speed = Speed()
        speed.start(timer=False)
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.make(args.workload, args.seed, workdir, args.smoke)
        if args.setup_only:
            factor = speed.stop()
            print(json.dumps({"probe_s": sum(speed.samples), "factor": factor}))
            return 0
        passes, metrics = (per_layer if args.trace else end_to_end)(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
