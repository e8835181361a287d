"""Run each workload with seeds 1..10 and report the spread of every metric.

    python3 bench/steadiness.py [--out bench/steadiness.json]

Runs every workload of BENCHMARK.json, one process at a time.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next
to the metric's bound, and flags a spread above a third of the bound.  Exits
non-zero when any spread is above a third of its bound.  ``--out`` also
writes the values of every run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed, started = [], time.time()
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: the output gate found wrong outputs", file=sys.stderr)
                return 1
            failed.append(f"{result['failed']}/{result['attempted']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(SEEDS)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, "
              f"{time.time() - started:.0f} s, failed/attempted {' '.join(failed)}")
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            held = spread <= bounds[name] / 3
            steady &= held
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            print(f"  {name:12} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:5.2f}{'' if held else '  ABOVE BOUND/3'}")
        noisiest = max(summary, key=lambda n: summary[n]["spread"])
        print(f"  noisiest: {noisiest}")
        record["workloads"][workload] = {"seeds": list(SEEDS), "failed": failed, "noisiest": noisiest,
                                         "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
