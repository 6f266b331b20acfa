"""Run every workload and print all metrics, with their spread over seeds.

    python3 perfbench/report.py [--seeds 1 2 3] [--batches 1]

For each seed and each workload of BENCHMARK.json this runs ``run.py``
untraced for ``run_seconds``.  It prints each end-to-end metric by name and
unit with its median over the seeds and its quartile spread (Q3 - Q1 as a
share of the median) against the bound in BENCHMARK.json; with
``--batches 2`` the batches are interleaved seed by seed, and the shift of
each batch's median from the first batch's is printed too.  It then makes
one traced run per workload on the first seed and prints its per-layer
metrics.  The exit code is 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--batches", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    ok = True
    # values[workload][batch][metric] -> list over seeds
    values = {w: [{} for _ in range(args.batches)] for w in workloads}
    for seed in args.seeds:
        for batch in range(args.batches):
            for workload in workloads:
                result = run(workload, seed, seconds, 0)
                ok &= result["correct"]
                for name, m in result["metrics"].items():
                    values[workload][batch].setdefault(name, []).append(m["value"])
                print(f"# seed {seed} batch {batch} {workload}: "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    for workload in workloads:
        print(f"{workload} ({len(args.seeds)} seeds x {args.batches} batches)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            meds = [statistics.median(b[name]) for b in values[workload] if b.get(name)]
            if not meds:
                continue
            spreads = [spread(b[name]) for b in values[workload]]
            shift = max(m / meds[0] - 1 for m in meds)
            print(f"  {name:<14} {meds[0]:>10.4g} {metric['unit']:<5} spread "
                  + "/".join(f"{s:.3f}" for s in spreads)
                  + f" (bound {metric['bound']}), batch shift {shift:+.3f}")
        result = run(workload, args.seeds[0], seconds, 1)
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
