"""Benchmark of the exact Betti engine, end to end and layer by layer.

    python3 bench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md): ``campaign``, ``cycle_ladder`` and
``cli_mix``.  One process runs one workload, single-threaded and closed
loop: each run of an operation starts when the previous one has
finished, under a budget of 10 s per run.  With ``--trace 0`` the run
makes as many whole passes over the workload's operations as fit in
``--seconds``, takes each operation's fastest run as its latency and
the fastest whole pass for throughput, times the set-up 21 times, and
reports the end-to-end metrics scaled by the host's speed on a fixed
reference loop.  With ``--trace 1`` it makes one untraced warm-up pass, then
alternates untraced passes and passes with every layer's entry points
wrapped, and reports the per-layer metrics of the first traced pass and
the tracing overhead.  Every output is checked afterwards by the gate in
``gate.py``.  The last stdout line is the JSON result; the lines before
it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"  # graph files for the CLI; removed at exit
WORKLOADS = ("campaign", "cycle_ladder", "cli_mix")
BUDGET_S = 10.0
SETUP_REPEATS = 21
HARD_STOP_S = 120.0  # stop issuing operations here, whatever --seconds says
HASH_SEED = "0"
# The host goes through phases of minutes in which all code runs up to 60 %
# slower, and the fastest run of an operation moves with them: a 40 s run
# cannot outlast a phase.  So a run also times ``reference_loop`` before every
# set-up and every operation run (at least REFERENCE_PER_PASS times a pass), and
# divides its times by the host's slowness: the run's fastest reference run
# over REFERENCE_NOMINAL_S (the fastest reference run on this 2-vCPU VM,
# Python 3.11.7, in a quiet phase).  One factor per run: a factor per pass
# let the choice of the fastest pass pick the passes whose factor was off.
REFERENCE_NOMINAL_S = 0.0018
REFERENCE_PER_PASS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "max_m_10s": "edges",
}


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget


@dataclass
class Outcome:
    op: object
    # The host adds bursty contention that only ever lengthens a run: over 5 s
    # windows of a fixed loop the median moved by +-20 % and the fastest run by
    # +-7 %.  So an operation's latency is its fastest run of the whole run.
    seconds: float = math.inf
    last: float = 0.0  # the latest run
    values: list = field(default_factory=list)  # one output per run
    error: str | None = None
    over_budget: bool = False
    problem: str | None = None  # set by the gate
    stop: bool = False  # the cycle_ladder rung that ended the walk


def reference_loop() -> int:
    """Fixed pure-Python work like the engine's: integer row updates on
    lists, dict stores and bit operations.  It never changes, so its time
    measures the host, not the engine."""
    n = 40
    rows = [[(3 * i + 7 * j) % 11 - 5 for j in range(n)] for i in range(n)]
    seen = {}
    for k in range(1, n):
        pivot, prow = rows[k - 1][k - 1] or 1, rows[k - 1]
        for row in rows[k:]:
            x = row[k - 1]
            for c in range(k, n):
                row[c] = (pivot * row[c] - x * prow[c]) % 1009
        for mask in range(k * 64, k * 64 + 64):
            seen[mask & 0x3FF] = seen.get(mask & 0x3FF, 0) + (mask ^ (mask >> 1)).bit_count()
    return sum(seen.values())


class HostProbe:
    """Times the reference loop ``per_run`` times before each operation run."""

    def __init__(self, per_run: int):
        self.per_run = per_run
        self.samples: list[float] = []

    def before_run(self) -> None:
        for _ in range(self.per_run):
            start = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - start)

    def slowness(self) -> float:
        """How much slower than nominal the host ran the reference loop (> 1: slower)."""
        return min(self.samples) / REFERENCE_NOMINAL_S


def run_once(out: Outcome, tracer=None, probe: HostProbe | None = None) -> Outcome:
    """Run the operation once more under the budget.

    An exception marks the outcome failed instead of ending the benchmark.
    A ``probe`` times the reference loop first, outside the operation's time.
    """
    if probe is not None:
        probe.before_run()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = time.perf_counter()
    try:
        out.values.append(tracer.run_op(out.op.kind, out.op.call) if tracer else out.op.call())
    except OverBudget:
        out.over_budget = True
    except Exception as exc:  # a failed operation is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        out.last = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    out.seconds = min(out.seconds, out.last)
    return out


def one_pass(plan, start: float, tracer=None, probe: HostProbe | None = None) -> list[Outcome]:
    outcomes = []
    for op in plan.ops:
        outcomes.append(run_once(Outcome(op), tracer, probe))
        if plan.walk and outcomes[-1].over_budget:
            outcomes[-1].stop = True
            break
        if time.perf_counter() - start > HARD_STOP_S:
            break
    return outcomes


def measure(plan, seconds: float, probe: HostProbe) -> tuple[list[Outcome], list[float]]:
    """One pass, then more whole passes while the next is expected to end
    within ``seconds``; whole passes keep every operation's run count equal.
    For cycle_ladder the first pass is the walk, and each further pass runs
    its rungs up to m=10 (at least one such pass).  Returns the outcomes
    and the duration of every whole pass over the latency samples, less the
    reference loop runs made during it."""
    start = time.perf_counter()
    outcomes = one_pass(plan, start, probe=probe)
    if plan.walk:
        again, passes = [o for o in outcomes if o.op.m <= plan.sample_m and not o.stop], []
    else:
        again, passes = outcomes, [time.perf_counter() - start - sum(probe.samples)]
    last = passes[-1] if passes else sum(o.last for o in again)
    while not passes or time.perf_counter() - start + last <= min(seconds, HARD_STOP_S):
        again = [o for o in again if o.error is None and not o.over_budget]
        if not again:
            break
        begun, done = time.perf_counter(), len(probe.samples)
        for o in again:
            run_once(o, probe=probe)
        last = time.perf_counter() - begun
        passes.append(last - sum(probe.samples[done:]))
    return outcomes, passes


def run_gate(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if o.error is None and not o.over_budget:
            o.problem = o.op.check(o.values[0])
            if o.problem is None and any(v != o.values[0] for v in o.values):
                o.problem = "output changed between repeated runs"


def succeeded(o: Outcome) -> bool:
    return o.error is None and not o.over_budget and o.problem is None


def tally(outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    """(failed, wrong, messages): failures include refusals and wrong outputs."""
    messages = []
    failed = wrong = 0
    for o in outcomes:
        if o.stop or succeeded(o):
            continue
        failed += 1
        if o.problem is not None and not isinstance(o.problem, gate.Refused):
            wrong += 1
        why = o.error or o.problem or f"over the {BUDGET_S:g} s budget"
        messages.append(f"{o.op.kind} m={o.op.m}: {why}")
    return failed, wrong, messages


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def set_up(workload: str, seed: int):
    """A fresh import of the engine and the workload's inputs."""
    engine = workloads.load_engine(SRC)
    return engine, workloads.build(engine, workload, seed, WORK)


def end_to_end(workload: str, seed: int, seconds: float) -> str:
    # The first set-up runs cold (byte-compiling, page faults at process start)
    # and is not a sample; the timed ones follow the timed region, in a warm
    # process, each after a garbage collection and a reference loop run.  Like
    # an operation's latency, set-up time is the fastest repeat: hiccups of the
    # host only lengthen repeats, and the fastest repeat spread less than the
    # median in four five-run trials of six.
    t0 = time.perf_counter()
    engine, plan = set_up(workload, seed)
    cold_setup_s = time.perf_counter() - t0
    sampled = [op for op in plan.ops if plan.sample_m is None or op.m <= plan.sample_m]
    probe = HostProbe(math.ceil(REFERENCE_PER_PASS / len(sampled)))
    outcomes, passes = measure(plan, seconds, probe)
    # Read before the gate: its Taylor oracle must not set the engine's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        probe.before_run()
        t0 = time.perf_counter()
        set_up(workload, seed)
        setup.append(time.perf_counter() - t0)
    run_gate(outcomes)
    failed, wrong, messages = tally(outcomes)
    samples = [o for o in outcomes if not o.stop and (plan.sample_m is None or o.op.m <= plan.sample_m)]
    runs = sum(len(o.values) for o in samples)
    ok = [o.seconds for o in samples if succeeded(o)]
    if not ok:
        raise RuntimeError("no operation succeeded; nothing to report")
    raw = {
        "setup_s": min(setup),
        "ops_per_s": len(ok) / min(passes),
        "op_s.p50": statistics.median(ok),
        "op_s.p90": nearest_rank(ok, 0.9),
    }
    slow = probe.slowness()
    metrics = {
        "setup_s": raw["setup_s"] / slow,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": raw["ops_per_s"] * slow,
        "op_s.p50": raw["op_s.p50"] / slow,
        "op_s.p90": raw["op_s.p90"] / slow,
        "max_m_10s": max(o.op.m for o in outcomes if succeeded(o)),
    }
    print(f"workload {workload}  seed {seed}  attempted {len(outcomes)} operations, "
          f"latency samples {len(samples)} from {runs} runs  "
          f"fail_ratio {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}  wrong outputs {wrong}")
    for line in messages:
        print(f"  failed: {line}")
    print(f"  host slowness {slow:.4f}: fastest of {len(probe.samples)} reference runs "
          f"{1e3 * min(probe.samples):.4f} ms / nominal {1e3 * REFERENCE_NOMINAL_S:g} ms; "
          f"{len(passes)} whole passes; times below are divided by it")
    print("  unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  setup_s {metrics['setup_s']:.4f} s (fastest of {SETUP_REPEATS}; unscaled median "
          f"{statistics.median(setup):.4f} s, slowest {max(setup):.4f} s, cold first set-up {cold_setup_s:.4f} s)  "
          f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    n = len(ok)
    if workload == "campaign":
        print(f"  instances_per_s {metrics['ops_per_s']:.3f} 1/s  instance_s.p50 {metrics['op_s.p50']:.4f} s "
              f"and instance_s.p90 {metrics['op_s.p90']:.4f} s (n={n})")
    elif workload == "cycle_ladder":
        walk = [o for o in outcomes if o.op.kind == "rung"]
        rungs = ", ".join(f"m={o.op.m} {'>' if o.stop else ''}{o.seconds:.2f}s" for o in walk)
        m10 = next(o for o in samples if o.op.m == plan.sample_m)
        print(f"  max_m_10s {metrics['max_m_10s']} edges  walk (unscaled, against the budget): {rungs}")
        print(f"  cycle_m10_s {metrics['op_s.p90']:.4f} s = op_s.p90 "
              f"(fastest of {len(m10.values)} runs of the m=10 rung)")
    else:
        by_kind = {}
        for o in outcomes:
            if succeeded(o):
                by_kind.setdefault(o.op.kind, []).append(o.seconds / slow)
        print(f"  commands_per_s {metrics['ops_per_s']:.3f} 1/s  command p50 {metrics['op_s.p50']:.4f} s "
              f"p90 {metrics['op_s.p90']:.4f} s (n={n})")
        for kind in sorted(by_kind):
            times = by_kind[kind]
            print(f"  {kind}_s.p50 {statistics.median(times):.4f} s (n={len(times)})")
    return result_line(wrong == 0, len(outcomes), failed, metrics, END_TO_END_UNITS)


def traced(workload: str, seed: int, seconds: float) -> str:
    """Per-layer metrics of one traced pass, and the tracing overhead.

    A first untraced pass warms up (for cycle_ladder it is also the walk).
    Then rounds of one untraced and one traced pass over the operations that
    finished within budget alternate while time remains; the overhead is the
    sum over operations of the fastest traced run minus the fastest untraced
    one.  The layer metrics come from the first traced pass, which also
    replays the input generation.
    """
    engine = workloads.load_engine(SRC)
    plan = workloads.build(engine, workload, seed, WORK)
    start = time.perf_counter()
    first = one_pass(plan, start)
    keep = [plan.ops[i] for i, o in enumerate(first) if not o.over_budget]
    plain, marked = [Outcome(op) for op in keep], [Outcome(op) for op in keep]
    layers, rounds, last = None, 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last <= min(seconds, HARD_STOP_S):
        begun = time.perf_counter()
        for o in plain:
            run_once(o)
        tracer = tracing.Tracer(engine)
        try:
            if layers is None:
                workloads.build(engine, workload, seed, WORK)  # traced input generation
            for o in marked:
                run_once(o, tracer)
        finally:
            tracer.close()
        if layers is None:
            layers = tracer
        rounds += 1
        last = time.perf_counter() - begun
    outcomes = first + plain + marked
    run_gate(outcomes)
    failed, wrong, messages = tally(outcomes)

    metrics = tracing.layer_metrics(layers)
    graphs = [op.graph for op in plan.ops if op.graph is not None]
    disconnected = sum(1 for D in graphs if workloads.edge_components(engine, D) > 1)
    metrics["digraphs.disconnected_share"] = disconnected / len(graphs)
    metrics["cli.stdout_bytes"] = sum(
        len(o.values[0][1].encode("utf-8")) for o in marked if isinstance(o.values[0], tuple))
    both = [(u, t) for u, t in zip(plain, marked) if succeeded(u) and succeeded(t)]
    untraced_s = sum(u.seconds for u, _ in both)
    metrics["trace.overhead_s"] = sum(t.seconds for _, t in both) - untraced_s
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced_s

    print(f"workload {workload}  seed {seed}  {rounds} rounds of an untraced and a traced pass "
          f"over {len(keep)} operations  "
          f"fail_ratio {failed}/{len(outcomes)}  wrong outputs {wrong}")
    for line in messages:
        print(f"  failed: {line}")
    if plan.walk:
        reached = max((o.op.m for o in first if succeeded(o)), default=0)
        print(f"  max_m_10s {reached} edges (untraced walk)")
    print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s over {untraced_s:.4f} s untraced "
          f"({100 * metrics['trace.overhead_ratio']:.1f}%; fastest of {rounds} runs on each side, {len(both)} operations)")
    for kind, (ops, tables) in sorted(tracing.tables_per_op_kind(layers).items()):
        print(f"  betti.tables_per_command[{kind}] = {tables / ops:.2f} ({tables} tables / {ops} ops)")
    print(f"  {'span':34} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    for name, row in sorted(tracing.layer_table(layers).items()):
        print(f"  {name:34} {row['calls']:9d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value}")
    return result_line(wrong == 0, len(outcomes), failed, metrics, tracing.LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgeideals" / "__init__.py").is_file():
        print(f"bench: no engine sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.trace:
            line = traced(args.workload, args.seed, args.seconds)
        else:
            line = end_to_end(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order feeds the engine's loops; fix it for every run.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
