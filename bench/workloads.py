"""Seeded inputs and operations of the three benchmark workloads.

Every operation calls the engine through a module attribute
(``engine.formulas.verify_formula``, ``engine.cli.main``), so the
tracer's rebinding reaches it.  Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import gate

MODULES = ("monomials", "digraphs", "simplicial", "taylor", "betti", "formulas", "fixtures", "cli")

# campaign: instances per (class, edge count) in every pass, 100 in all.  Time
# grows about 3x per edge, so the counts fall with size to keep one pass near
# 4 s at the seed commit (about nine passes fit a run; a 9-edge instance
# costs as much as three 8-edge ones, so there are none).  The counts put the
# median in the middle of the m=6 stratum and the 90th percentile in the
# middle of the m=8 one, so neither jumps between strata from run to run.
CAMPAIGN_CLASSES = ("RootedForest", "UnicyclicGeneral", "UnicyclicAttached", "OrientedCycle")
CAMPAIGN_COUNTS = {4: 5, 5: 5, 6: 6, 7: 5, 8: 4}
CAMPAIGN_WEIGHTS = (2, 4)

# cycle_ladder: rungs m = 8 .. LADDER_TOP.  The top is the engine's default
# generator guard; beyond it every rung would be refused, not computed.
LADDER_FIRST, LADDER_TOP, LADDER_WEIGHTS, LADDER_SAMPLE_M = 8, 20, (2, 3), 10

README_IDEAL = "(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)"
# Refused at the seed commit with exit 3 ("strand ground set has 25
# variables"); kept so the defect stays visible as a failed operation.
KNOWN_DEFECT = dict(cycle_len=5, extra_vertices=4, weight_range=(2, 4), seed=3)


@dataclass
class Op:
    kind: str
    m: int  # generators of the largest ideal the operation resolves
    call: Callable[[], object]
    check: Callable[[object], str | None]  # output gate; None when correct
    graph: object = None


@dataclass
class Plan:
    ops: list[Op]  # one pass; for cycle_ladder the rungs of the walk
    walk: bool  # stop the pass at the first operation over budget
    sample_m: int | None = None  # latency samples: ops with m up to this, or all ops


def load_engine(src: Path) -> SimpleNamespace:
    """Import the package afresh (drops any earlier import first)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "edgeideals" or n.startswith("edgeideals.")]:
        del sys.modules[name]
    importlib.import_module("edgeideals")
    return SimpleNamespace(**{m: importlib.import_module(f"edgeideals.{m}") for m in MODULES})


def build(engine, workload: str, seed: int, work: Path, tiny: bool = False) -> Plan:
    """Generate the workload's inputs; ``tiny`` shrinks them for the self-test."""
    return {"campaign": _campaign, "cycle_ladder": _cycle_ladder, "cli_mix": _cli_mix}[workload](
        engine, seed, work, tiny
    )


def _verify_op(engine, kind: str, D) -> Op:
    return Op(
        kind,
        len(D.edges),
        lambda: engine.formulas.verify_formula(D),
        lambda report: gate.check_report(engine, D, report),
        D,
    )


def _campaign_instance(engine, tag: str, m: int, rng: random.Random):
    """A seeded instance of class ``tag`` with exactly m edges."""
    rand = engine.digraphs.random_instance
    for _ in range(10_000):
        s = rng.randrange(2**32)
        if tag == "OrientedCycle":
            return rand(tag, cycle_len=m, weight_range=CAMPAIGN_WEIGHTS, seed=s)
        if tag == "UnicyclicAttached":
            c = rng.randint(3, m - 1)
            return rand(tag, cycle_len=c, extra_vertices=m - c, weight_range=CAMPAIGN_WEIGHTS, seed=s)
        if tag == "RootedForest":
            D = rand(tag, extra_vertices=m + rng.choice((2, 3)), weight_range=CAMPAIGN_WEIGHTS, seed=s)
        else:
            D = rand(tag, cycle_len=rng.choice((3, 4)), extra_vertices=rng.randrange(m),
                     weight_range=CAMPAIGN_WEIGHTS, seed=s)
        if len(D.edges) == m and edge_components(engine, D) > 1:
            return D
    raise RuntimeError(f"no disconnected {tag} instance with {m} edges")


def edge_components(engine, D) -> int:
    """Connected components that carry an edge (isolated roots do not count)."""
    return sum(1 for c in engine.digraphs.components(D) if c.edges)


def _campaign(engine, seed, work, tiny):
    rng = random.Random(f"campaign:{seed}")
    counts = {4: 1, 5: 1} if tiny else CAMPAIGN_COUNTS
    graphs = [
        _campaign_instance(engine, tag, m, rng)
        for tag in CAMPAIGN_CLASSES
        for m, count in counts.items()
        for _ in range(count)
    ]
    rng.shuffle(graphs)
    return Plan([_verify_op(engine, "instance", D) for D in graphs], walk=False)


def _cycle_ladder(engine, seed, work, tiny):
    rng = random.Random(f"cycle_ladder:{seed}")
    rand = engine.digraphs.random_instance
    first, top, sample_m = (3, 6, 5) if tiny else (LADDER_FIRST, LADDER_TOP, LADDER_SAMPLE_M)
    rungs = [
        _verify_op(engine, "rung", rand("OrientedCycle", cycle_len=m, weight_range=LADDER_WEIGHTS,
                                        seed=rng.randrange(2**32)))
        for m in range(first, top + 1)
    ]
    return Plan(rungs, walk=True, sample_m=sample_m)


def _cli_call(engine, argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = engine.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _random_ideal(rng: random.Random) -> str:
    """Four generators on four variables, one on three variables (not an edge ideal).

    Kept this small so every such command stays well below the fixtures'
    repro time: the median command of the mix then does not move between
    seeds.
    """
    names = [f"x{i}" for i in range(1, 5)]
    gens = []
    for k in range(4):
        support = rng.sample(names, 3 if k == 0 else 2)
        gens.append("*".join(f"{v}^{rng.randint(1, 2)}" for v in sorted(support)))
    return "(" + ", ".join(gens) + ")"


def _cli_mix(engine, seed, work, tiny):
    rng = random.Random(f"cli_mix:{seed}")
    rand = engine.digraphs.random_instance
    work.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def graph_file(D) -> str:
        path = work / f"graph{len(ops)}.json"
        path.write_text(json.dumps(D.to_json_dict()), encoding="utf-8")
        return str(path)

    # The seed orders the commands and draws the random ideals; the graphs are
    # random_instance's seed-0 instances.  Drawing them from the seed too made
    # the command that lands on a percentile change size from seed to seed
    # (p90 moved by 0.44 of its median over ten seeds).  The graphs are also
    # smaller than first planned (compute on OrientedCycle m=9 and
    # UnicyclicAttached 5+4, splitting on m=6..9): with those one pass took
    # 7.5 s, only five fit a run, and the seconds-long commands moved by up
    # to 35 % between runs.
    oc_compute, ua_compute, split_ms = (5, (3, 2), (5,)) if tiny else (7, (4, 3), (5, 6, 7))
    for D in (rand("OrientedCycle", cycle_len=oc_compute, weight_range=(2, 3)),
              rand("UnicyclicAttached", cycle_len=ua_compute[0], extra_vertices=ua_compute[1],
                   weight_range=(2, 3))):
        argv = ["compute", "--input", graph_file(D)]
        ops.append(Op("compute_input", len(D.edges), _cli_call(engine, argv),
                      lambda out, D=D: gate.check_compute_input(engine, D, out), D))
    for text in [README_IDEAL] + [_random_ideal(rng) for _ in range(3)]:
        argv = ["compute", "--ideal", text]
        m = len(engine.monomials.parse_ideal(text).generators)
        ops.append(Op("compute_ideal", m, _cli_call(engine, argv),
                      lambda out, argv=argv, golden=text == README_IDEAL:
                      gate.check_compute_ideal(engine, argv, out, golden)))
    split_graphs = [rand("OrientedCycle", cycle_len=m, weight_range=(2, 3)) for m in split_ms]
    if not tiny:
        split_graphs += [rand("UnicyclicAttached", cycle_len=5, extra_vertices=4, weight_range=(2, 3)),
                         rand("UnicyclicAttached", **KNOWN_DEFECT)]
    for D in split_graphs:
        argv = ["splitting", "--input", graph_file(D)]
        ops.append(Op("splitting", len(D.edges), _cli_call(engine, argv),
                      lambda out, D=D: gate.check_splitting(engine, D, out), D))
    for example in sorted(engine.fixtures.FIXTURES):
        argv = ["repro", example]
        D = engine.fixtures.FIXTURES[example].graph
        ops.append(Op("repro", len(D.edges), _cli_call(engine, argv),
                      lambda out, argv=argv: gate.check_golden(argv, out), D))
    rng.shuffle(ops)
    return Plan(ops, walk=False)
