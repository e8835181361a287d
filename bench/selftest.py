"""Self-test of the benchmark: tiny workloads, a non-vacuous gate, tracing.

    python3 bench/selftest.py

1. Every workload runs at a tiny size and the gate passes every output.
2. With one Betti entry perturbed in every table the engine returns,
   the gate reports wrong outputs on every workload, and a changed byte
   of canonical stdout fails its golden digest.
3. A traced pass restores every rebound name and records the layers.
4. The metric names and units in the code match BENCHMARK.json.
Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time

import gate
import run
import tracing
import workloads

SEED = 7


def tiny_pass(engine, workload: str, tracer=None) -> list:
    plan = workloads.build(engine, workload, SEED, run.WORK, tiny=True)
    outcomes = run.one_pass(plan, time.perf_counter(), tracer)
    run.run_gate(outcomes)
    return outcomes


def perturbed(betti_table):
    """betti_table with one extra entry one degree past a regularity-attaining one."""

    def table(I, **kwargs):
        t = betti_table(I, **kwargs)
        i, j = max(t.entries, key=lambda key: (key[1] - key[0], key))
        entries = dict(t.entries)
        entries[(i, j + 1)] = entries.get((i, j + 1), 0) + 1
        return type(t)(t.convention, entries)

    return table


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main() -> None:
    signal.signal(signal.SIGALRM, run._alarm)
    engine = workloads.load_engine(run.SRC)
    try:
        for workload in run.WORKLOADS:
            outcomes = tiny_pass(engine, workload)
            failed, wrong, messages = run.tally(outcomes)
            check(failed == 0 and not any(o.stop for o in outcomes),
                  f"tiny {workload}: {len(outcomes)} operations, all outputs pass the gate {messages}")

        original = engine.betti.betti_table
        for module in (engine.betti, engine.formulas, engine.cli):
            module.betti_table = perturbed(original)
        try:
            for workload in run.WORKLOADS:
                outcomes = tiny_pass(engine, workload)
                _, wrong, _ = run.tally(outcomes)
                check(wrong > 0, f"perturbed {workload}: the gate reports {wrong} wrong outputs")
        finally:
            for module in (engine.betti, engine.formulas, engine.cli):
                module.betti_table = original

        argv = ["repro", "3.4"]
        code, out, err = workloads._cli_call(engine, argv)()
        check(gate.check_golden(argv, (code, out, err)) is None, "repro 3.4 matches its golden digest")
        changed = out.replace("8", "9", 1)
        check(gate.check_golden(argv, (code, changed, err)) is not None,
              "one changed byte of repro 3.4 stdout fails the golden digest")

        bound = [(m, a, getattr(m, a)) for m, a in
                 ((getattr(engine, mod), attr) for mod, attr, _ in tracing.LAYER_BINDINGS)]
        tracer = tracing.Tracer(engine)
        try:
            outcomes = tiny_pass(engine, "cli_mix", tracer)
        finally:
            tracer.close()
        check(all(getattr(m, a) is f for m, a, f in bound), "the tracer restores every rebound name")
        layers = tracing.layer_metrics(tracer)
        kinds = tracing.tables_per_op_kind(tracer)
        check(run.tally(outcomes)[0] == 0 and layers["cli.main.calls"] == len(outcomes)
              and layers["simplicial.exact_rank.calls"] > 0 and kinds["compute_input"][1] > 0,
              f"traced tiny cli_mix records every layer (tables per op kind {kinds})")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "end-to-end metric names and units match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS,
          "per-layer metric names and units match BENCHMARK.json")


if __name__ == "__main__":
    main()
