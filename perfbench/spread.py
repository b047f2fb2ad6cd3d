"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep pose --seeds 1 2 3 4 5

For every workload and every figure of the result files this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
inter-quartile range as a share of the median, next to the bound of the
metrics BENCHMARK.json declares.  ``--out``
also writes every run's metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # the result file also holds the figures BENCHMARK.json does not declare
    stem = f"{workload}-seed{seed}-trace{trace}"
    full = json.loads((ROOT / "perfbench" / "runs" / f"{stem}.json").read_text())
    result["all_metrics"] = full["all_metrics"]
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    runs = {}
    for wl in args.workloads:
        runs[wl] = [dict(run_once(wl, s, args.seconds, args.trace), seed=s) for s in args.seeds]
        bad = [r["seed"] for r in runs[wl] if not r["correct"]]
        print(f"{wl}: {len(runs[wl])} runs, incorrect at seeds {bad}" if bad
              else f"{wl}: {len(runs[wl])} runs, all correct")
        for name in runs[wl][0]["all_metrics"]:
            values = [r["all_metrics"][name] for r in runs[wl]]
            if len(values) < 2 or not statistics.median(values):
                print(f"  {name:40s} {values}")
                continue
            med, q1, q3, iqr = spread(values)
            bound = bounds.get(name)
            tail = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:40s} median {med:12.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"iqr/median {iqr:.4f}{tail}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
