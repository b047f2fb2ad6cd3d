"""Benchmark of the dhjac J_dh pipeline on the reference config.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 20 --trace 0

Runs one workload (sweep, units, validate or pose; see workloads.py)
in-process through the CLI entry point or the public API for ``--seconds``
of request time, and checks every output outside the timed region.

``--trace 0`` reports the end-to-end figures: throughput, per-pose latency
and the set-up time of fresh interpreters in wall time and "at reference
speed" (scaled by a reference kernel timed around each request and each
set-up, which cancels the drift of a shared host; BENCHMARK.json bounds
these), and the peak RSS.  ``--trace 1`` reports per-function
calls, self time and failures from traced requests (spans.py); each
request also runs untraced, which gives the tracing overhead.

The last line of stdout is one JSON object with the metrics BENCHMARK.json
declares.  The full result and its provenance go to perfbench/runs/, and
in traced runs the spans too, as JSON lines.
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
import threading
import time
from array import array
from pathlib import Path

from spans import Tracer, format_table

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "runs"
REQUIRED = ("src/dhjac/__init__.py", "configs/reference_4dof.json", "BENCHMARK.json")

#: BLAS reads these when numpy loads, so they are set before the import
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

#: fresh interpreters timed for setup_s; the first one (cold caches) is dropped
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60

#: units of the end-to-end figures
UNITS = {
    "poses_per_s_at_ref": "1/s", "pose_p50_ms_at_ref": "ms", "pose_p99_ms_at_ref": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "poses_per_s": "1/s", "pose_p50_ms": "ms",
    "pose_p99_ms": "ms", "setup_wall_s": "s", "reference_kernel_ms": "ms",
}

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import dhjac
cfg = dhjac.load_config(sys.argv[2])
dhjac.dexterity_at(cfg, 0.0, 150.0, 0.0, 0.0)
"""


def measure_setup(config: Path, clock) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import, load the config and run one
    pose, and for each the mean of the reference kernel times just around it."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), str(config)]
    times, refs = [], []
    before = clock.kernel()
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait returns when the child exits; wait(timeout=...) polls
        # in steps of up to 50 ms, which would quantise the measurement
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited with {rc}")
        after = clock.kernel()
        refs.append(0.5 * (before + after))
        before = after
    return times[1:], refs[1:]


def percentile(values, p: int) -> float:
    """Linearly interpolated p-th percentile (numpy's default method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(samples, setup, nominal_s: float) -> dict:
    """Wall-time figures, and the same at reference speed (see ReferenceClock)."""
    per_request = samples.poses / len(samples.seconds)
    per_pose_ms = [1e3 * t / per_request for t in samples.seconds]
    at_ref = [t * nominal_s / r for t, r in zip(samples.seconds, samples.ref)]
    per_pose_ms_at_ref = [1e3 * t / per_request for t in at_ref]
    setup_times, setup_refs = setup
    return {
        "poses_per_s_at_ref": samples.poses / sum(at_ref),
        "pose_p50_ms_at_ref": percentile(per_pose_ms_at_ref, 50),
        "pose_p99_ms_at_ref": percentile(per_pose_ms_at_ref, 99),
        "setup_s": statistics.median(t * nominal_s / r for t, r in zip(*setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "poses_per_s": samples.poses / samples.busy,
        "pose_p50_ms": percentile(per_pose_ms, 50),
        "pose_p99_ms": percentile(per_pose_ms, 99),
        "setup_wall_s": statistics.median(setup_times),
        "reference_kernel_ms": 1e3 * statistics.median(samples.ref + array("d", setup_refs)),
    }


def per_layer(untraced, traced, tracer) -> tuple[dict, dict]:
    summary = tracer.summary(traced.poses)
    metrics = {}
    for fn, row in summary["functions"].items():
        for key, value in row.items():
            metrics[f"{fn}.{key}"] = value
    ms_untraced = 1e3 * untraced.busy / untraced.poses
    ms_traced = 1e3 * traced.busy / traced.poses
    metrics["cli.output_bytes"] = traced.output_bytes / traced.poses
    metrics["trace.overhead_pct"] = 100.0 * (ms_traced / ms_untraced - 1.0)
    metrics["trace.unattributed_pct"] = summary["unattributed_pct"]
    print(format_table(summary))
    print(f"cli output: {metrics['cli.output_bytes']:.1f} B/pose")
    print(f"tracing overhead: {ms_traced:.4f} ms/pose traced vs {ms_untraced:.4f} untraced "
          f"({metrics['trace.overhead_pct']:+.2f} %)")
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a dhjac checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and dhjac, after the thread variables are set
    import provenance

    if not Path(workloads.dhjac.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dhjac imported from {workloads.dhjac.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        workloads.dhjac.dexterity_at(wl.cfg, 0.0, 150.0, 0.0, 0.0)  # warm lazy imports
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = {}
        if args.trace:
            tracer = Tracer()
            untraced, traced = workloads.measure_traced(wl, args.seconds, tracer)
            runs = [untraced, traced]
            metrics, extra["trace_summary"] = per_layer(untraced, traced, tracer)
            tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
        else:
            clock = workloads.ReferenceClock()
            setup = measure_setup(wl.config_path, clock)
            runs = [workloads.measure(wl, args.seconds, clock)]
            metrics = end_to_end(runs[0], setup, clock.NOMINAL_S)
            extra["setup_samples_s"], extra["setup_reference_kernel_s"] = setup
        extra_attempted, extra_failed = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.poses for r in runs) + extra_attempted
    failed = sum(r.failed for r in runs) + extra_failed
    requests = sum(len(r.seconds) for r in runs)

    prov = provenance.collect(ROOT, wl.config_path, args.seed, BLAS_THREADS)
    print("provenance:", json.dumps(prov, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} requests={requests} "
          f"poses={attempted} error_rate={failed}/{attempted}")
    if not args.trace:  # traced runs printed their table above
        for name, value in metrics.items():
            print(f"{name:20s} {value:14.6g} {UNITS[name]}")
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "all_metrics": metrics, "provenance": prov,
         "requests": requests, **extra}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
