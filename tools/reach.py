"""Reach record of the weight-1 ladders: how far ``verify_formula`` gets in 10 s.

    python3 tools/reach.py [CHECKOUT]

Two ladders, OrientedCycle and UnicyclicAttached, of ``random_instance``
graphs at weights 1..3 and seed 1, from START = 12 edges up in steps of
2.  A UnicyclicAttached rung of m edges has a cycle of max(3, m // 4)
vertices and the rest attached.  Weights of 1 break the paper's
hypothesis, so most of these ideals are not Taylor-minimal and the engine
reads their tables off recursive Betti splittings.

Each rung runs in its own subprocess: CHECKOUT's ``src`` on PYTHONPATH,
``EIL_GUARD_GENS`` raised past any rung, and the address space capped at
4,000,000 KiB as ``ulimit -v 4000000`` does.  The rung times one
``verify_formula`` call and reports its peak RSS.  A ladder stops after
its first rung over 10 s, at TOP = 256 edges, or at a rung that fails
(killed after 60 s, out of memory, or any other error).  CHECKOUT
defaults to the checkout holding this script.

The record {commit, rungs: [{instance, m, seconds, peak_rss_mb, reg, pd}]}
is appended to the JSON list in OUT, ``BENCH_reach.json`` at the root of
this script's checkout; a failed rung has ``seconds`` null and an
``error``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDERS = ("OrientedCycle", "UnicyclicAttached")
START, TOP = 12, 256  # edges of the first and the last rung
LIMIT_S = 10.0
KILL_S = 60.0
ADDRESS_SPACE = 4_000_000 * 1024  # bytes: ulimit -v 4000000
OUT = ROOT / "BENCH_reach.json"

RUNG = """
import json, resource, sys, time
from edgeideals.digraphs import random_instance
from edgeideals.formulas import verify_formula
tag, cycle, extra = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
D = random_instance(tag, cycle_len=cycle, extra_vertices=extra, weight_range=(1, 3), seed=1)
start = time.perf_counter()
report = verify_formula(D)
seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"seconds": round(seconds, 4), "peak_rss_mb": round(peak_kb / 1024, 1),
                  "reg": report.computed.reg, "pd": report.computed.pd}))
"""


def shape(tag: str, m: int) -> tuple[int, int]:
    """(cycle_len, extra_vertices) of the m-edge rung."""
    if tag == "OrientedCycle":
        return m, 0
    cycle = max(3, m // 4)
    return cycle, m - cycle


def cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_rung(checkout: Path, tag: str, m: int) -> dict:
    cycle, extra = shape(tag, m)
    rung = {"instance": f"{tag} {cycle}+{extra}, weights 1..3, seed 1", "m": m}
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "EIL_GUARD_GENS": "100000"}
    cmd = [sys.executable, "-c", RUNG, tag, str(cycle), str(extra)]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=KILL_S,
                              preexec_fn=cap_address_space)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the rung
        return {**rung, "seconds": None, "error": f"killed after {KILL_S:.0f} s"}
    if done.returncode:
        lines = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        return {**rung, "seconds": None, "error": lines[-1]}
    return {**rung, **json.loads(done.stdout)}


def commit_of(checkout: Path) -> str:
    """The checkout's short commit, marked ``-dirty`` when tracked files differ from it."""
    cmd = ["git", "describe", "--always", "--dirty", "--abbrev=7"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    rungs = []
    for tag in LADDERS:
        for m in range(START, TOP + 1, 2):
            rung = run_rung(checkout, tag, m)
            print(json.dumps(rung), flush=True)
            rungs.append(rung)
            if rung["seconds"] is None or rung["seconds"] > LIMIT_S:
                break
    records = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else []
    records.append({"commit": commit_of(checkout), "rungs": rungs})
    OUT.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
