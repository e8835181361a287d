"""Alternating A/B runs of the benchmark between two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload cycle_ladder --seed 1 --pairs 10

PARENT and CHANGE are checkout directories, each with its own
``bench/run.py`` and ``src/``.  Each pair runs ``bench/run.py --trace 0``
once in each checkout, one process at a time; even pairs run the parent
first and odd pairs the change first, so a slow phase of the host does
not always fall on one side.  Every result line is printed as it arrives.

Then, for each end-to-end metric of ``BENCHMARK.json``, it prints each
side's median and quartiles (``statistics.quantiles(n=4)``, as
``bench/steadiness.py`` reads them), how many pairs the change wins by the
metric's ``better`` (ties count for neither), how much worse the change's
median is than the parent's next to the metric's bound, and whether a gain
may be claimed: there are at least ten pairs, the change wins at least
nine tenths of them, its median is better than the parent's by more than
the parent's interquartile range, no larger share of its operations
fails, and the output gate of ``bench/run.py`` passed on every run of
both sides.  Every run lasts
``BENCHMARK.json``'s ``run_seconds``.  The exit status is 1 if any run's
outputs were wrong.  A run that exits nonzero or times out stops the
comparison: its pair, side, checkout, exit status and the last 20 lines
of its stderr go to stderr, and the exit status is 4.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_RUN_FAILED = 4


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its JSON result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=seconds + 300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def failure_report(index: int, side: str, checkout: Path, exc: subprocess.SubprocessError) -> str:
    """The pair, side, checkout, exit status and last 20 stderr lines of a failed run."""
    stderr = exc.stderr or ""
    if isinstance(stderr, bytes):  # a timeout keeps its partial output undecoded
        stderr = stderr.decode(errors="replace")
    if isinstance(exc, subprocess.TimeoutExpired):
        status = f"timed out after {exc.timeout:g} s"
    else:
        status = f"exit {exc.returncode}"
    tail = stderr.splitlines()[-20:]
    head = f"pair {index} {side}: bench/run.py in {checkout} failed ({status}); last {len(tail)} lines of stderr:"
    return "\n".join([head, *tail])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from (parent, change) result pairs.

    ``worse_by`` is the change's median against the parent's, as a share
    of the parent's, signed so that a positive value is worse.  No row
    claims a gain unless every run of both sides is ``correct``.
    """
    correct = all(side["correct"] for sides in pairs for side in sides)
    failed = [sum(side["failed"] for side in sides) / sum(side["attempted"] for side in sides)
              for sides in zip(*pairs)]
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = [[side["metrics"][name]["value"] for side in sides] for sides in zip(*pairs)]
        parent, change = quartiles(values[0]), quartiles(values[1])
        wins = sum(1 for a, b in zip(*values) if sign * (b - a) > 0)
        gap = sign * (change[1] - parent[1])
        rows.append({
            "metric": name,
            "parent": parent,
            "change": change,
            "wins": wins,
            "pairs": len(pairs),
            "worse_by": -gap / abs(parent[1]) if parent[1] else 0.0,
            "bound": spec["bound"],
            "gain": (correct and len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gap > parent[2] - parent[0]
                     and failed[1] <= failed[0]),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':12} {'parent q1 / median / q3':>32} {'change q1 / median / q3':>32} "
             f"{'wins':>6} {'worse by':>9} {'bound':>6}  gain"]
    for row in rows:
        sides = ["{:10.5g} {:10.5g} {:10.5g}".format(*row[side]) for side in ("parent", "change")]
        lines.append(f"{row['metric']:12} {sides[0]:>32} {sides[1]:>32} {row['wins']:>3}/{row['pairs']:<2} "
                     f"{100 * row['worse_by']:8.1f}% {100 * row['bound']:5.0f}%  {'yes' if row['gain'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    pairs = []
    for index in range(args.pairs):
        sides = {"parent": args.parent, "change": args.change}
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            try:
                results[side] = run_bench(sides[side], args.workload, args.seed, spec["run_seconds"])
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                print(failure_report(index, side, sides[side], exc), file=sys.stderr)
                return EXIT_RUN_FAILED
            print(f"pair {index} {side} {json.dumps(results[side])}", flush=True)
        pairs.append((results["parent"], results["change"]))
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs of {spec['run_seconds']:g} s runs")
    print(render(summarize(pairs, spec["end_to_end"])))
    wrong = [f"pair {index} {side}" for index, sides in enumerate(pairs)
             for side, result in zip(("parent", "change"), sides) if not result["correct"]]
    if wrong:
        print(f"the output gate found wrong outputs in: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
