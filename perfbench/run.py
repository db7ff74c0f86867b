#!/usr/bin/env python3
"""polex benchmark: run one workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload toys-b3 --seed 1 --seconds 30 --trace 0

One job runs at a time, in this process, on one thread.  Jobs run back to
back until `--seconds` have passed (at least one).  Before each job the
program's inputs are loaded (set-up) several times.  Every job's output is
checked.  Times are wall times scaled by the machine's speed at the moment
(see `speed.py`): `job_s` is the mean scaled job time of the run and
`setup_s` the median scaled load time.  With `--trace 1` one more job runs
with the layer wrappers of `tracing.py` installed, and the per-layer
metrics of that job are reported instead, in unscaled wall seconds.

Output: one "name value unit" line per metric, then, as the last line, a
JSON object with the keys correct, attempted, failed and metrics.  Exit
code 0 when every check passed, 1 when one failed, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
# Set-up takes milliseconds, so before each job it is repeated at least
# this many times and for at least this long, and the median of all those
# loads is reported.  Spreading the loads over the run, instead of timing
# them all at its start, lets them see the same machine as the jobs.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.25


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_up(load, inputs: dict, probe, setup_times: list[float]):
    """Load the inputs repeatedly, a reference slice before each load;
    appends each load's wall time and returns the last load."""
    gc.collect()  # so that no collection of the last job's objects lands in a load
    t_end = time.perf_counter() + SETUP_SECONDS
    loads = 0
    while loads < SETUP_REPEATS or time.perf_counter() < t_end:
        probe.sample()
        t0 = time.perf_counter()
        ld = load(**inputs)
        setup_times.append(time.perf_counter() - t0)
        loads += 1
    return ld


def _run_job(wl, ld, ops, problems, ctx=None) -> float:
    """Run and check one job inside `ctx`; returns the job's wall time."""
    t0 = time.perf_counter()
    try:
        with ctx or contextlib.nullcontext():
            out = wl.job(ld, ops)
    except Exception:  # a raised operation is a failed one; report and stop
        ops.count(False)
        problems.append(traceback.format_exc().rstrip())
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    problems.extend(wl.check(ld, out))
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polex" / "__init__.py").is_file():
        print(f"error: polex sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    rss_before = _max_rss_mb()
    import speed  # builds the reference loop's data, which peak_rss_mb leaves out
    speed_mb = _max_rss_mb() - rss_before
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    inputs = wl.inputs(ROOT, args.seed, WORKDIR)

    ops = workloads.Ops()
    problems: list[str] = []
    setup_times: list[float] = []  # scaled
    job_times: list[float] = []  # scaled
    wall_times: list[float] = []
    scales: list[float] = []
    with workloads.counting_verdicts(ops):
        start = time.perf_counter()
        while not problems and (not job_times or time.perf_counter() - start < args.seconds):
            set_up_probe, job_probe = speed.Probe(), speed.Probe()
            loads: list[float] = []
            ld = _set_up(workloads.load, inputs, set_up_probe, loads)
            setup_times.extend(t * set_up_probe.scale() for t in loads)
            job_probe.sample()
            wall = _run_job(wl, ld, ops, problems, job_probe.sampling()) - job_probe.paused
            scale = job_probe.scale()
            scales.append(scale)
            wall_times.append(wall)
            job_times.append(wall * scale)
        if args.trace and not problems:
            tracer = tracing.Tracer()
            traced_s = _run_job(wl, ld, ops, problems, tracer)
    peak_rss_mb = _max_rss_mb() - speed_mb

    job_s = statistics.fmean(job_times)
    print(f"job_s {job_s:.4f} s  (mean of {len(job_times)} scaled job(s); median "
          f"{statistics.median(job_times):.4f}, min {min(job_times):.4f}, max {max(job_times):.4f})")
    print(f"job_wall_s {statistics.fmean(wall_times):.4f} s  (unscaled mean; median "
          f"{statistics.median(wall_times):.4f}; speed scale {min(scales):.3f} to {max(scales):.3f})")
    print(f"setup_s {statistics.median(setup_times):.6f} s  (median of {len(setup_times)} scaled loads)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_share {ops.failed / max(ops.attempted, 1):.4f} ratio  "
          f"({ops.failed} of {ops.attempted} operations)")
    if args.trace and not problems:
        metrics = tracing.layer_metrics(tracer)
        metrics["bench.traced_job_s"] = traced_s
        metrics["bench.trace_overhead_s"] = traced_s - statistics.fmean(wall_times)
        (WORKDIR / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.spans), encoding="utf-8")
    else:
        metrics = {
            "job_s": job_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {_unit(name)}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems and ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
