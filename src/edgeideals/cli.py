"""Command-line surface: ``eil compute | repro | verify | splitting``.

Every stdout format is rendered here, from the plain records of
:mod:`edgeideals.formulas`, through one output tail per command.

Exit codes: 0 = ran, asserted checks passed; 1 = assertion failure
(theorem-applicable mismatch, fixture mismatch, or splitting identity
failure); 2 = usage or parse error, including a malformed
``EIL_GUARD_GENS``, which ``main`` checks before any subcommand runs;
3 = sizing guard.  A tripped guard propagates out of the engine to
``main``, which alone turns it into one ``sizing guard:`` line on
stderr and exit 3 for every subcommand, with nothing on stdout.  JSON
output is canonical (sorted keys), and the stdout of a seeded command is
byte-identical across runs; ``verify`` writes its elapsed time to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass

from .betti import GuardError, InvariantSummary, betti_table, generator_guard, invariants
from .digraphs import (
    GraphClassTag,
    WeightedDigraph,
    edge_ideal,
    random_instance,
)
from .fixtures import FIXTURES, run_repro
from .formulas import (
    VERDICT_FAIL,
    VERDICT_PASS,
    InvariantReport,
    split_and_check,
    verify_formula,
)
from .monomials import parse_ideal

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one seeded verification campaign; an unrunnable one raises ``ValueError``."""

    class_tag: GraphClassTag
    instance_count: int
    cycle_range: tuple[int, int]
    extra_range: tuple[int, int]
    weight_range: tuple[int, int]
    seed: int

    def __post_init__(self):
        if self.class_tag is GraphClassTag.OTHER:
            raise ValueError(f"cannot generate instances of class {self.class_tag.value}")
        ranges = {"--cycle": self.cycle_range, "--extra": self.extra_range, "--weights": self.weight_range}
        for flag, (lo, hi) in ranges.items():
            if lo > hi:
                raise ValueError(f"{flag} range '{lo}..{hi}' is empty")
        if self.instance_count < 1:
            raise ValueError("--count must be >= 1")
        if self.class_tag is not GraphClassTag.ROOTED_FOREST and self.cycle_range[0] < 3:
            raise ValueError("--cycle must start at 3 for cyclic classes")
        if self.weight_range[0] < 1:
            raise ValueError("--weights must start at 1 or above")
        if self.extra_range[0] < 0:
            raise ValueError("--extra must start at 0 or above")

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_tag.value,
            "count": self.instance_count,
            "cycle": list(self.cycle_range),
            "extra": list(self.extra_range),
            "weights": list(self.weight_range),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    reports: tuple[InvariantReport, ...]
    pass_count: int
    fail_count: int
    inapplicable_count: int

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "instances": [report_json_dict(r) for r in self.reports],
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "inapplicable_count": self.inapplicable_count,
        }


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Generate seeded instances and verify each; deterministic under the seed."""
    rng = random.Random(f"campaign:{config.seed}")
    reports = []
    for index in range(config.instance_count):
        if config.class_tag is GraphClassTag.ROOTED_FOREST:
            cycle_len = 0
            extra = max(2, rng.randint(*config.extra_range))
        else:
            cycle_len = rng.randint(*config.cycle_range)
            extra = rng.randint(*config.extra_range)
            if config.class_tag is GraphClassTag.ORIENTED_CYCLE:
                extra = 0
            elif config.class_tag is GraphClassTag.UNICYCLIC_ATTACHED:
                # zero attached vertices degenerates to a bare cycle, which
                # is its own class; keep at least one attachment
                extra = max(1, extra)
        D = random_instance(
            config.class_tag,
            cycle_len=cycle_len,
            extra_vertices=extra,
            weight_range=config.weight_range,
            seed=rng.randrange(2**32),
        )
        reports.append(verify_formula(D))
    passes = sum(1 for r in reports if r.verdict == VERDICT_PASS)
    fails = sum(1 for r in reports if r.verdict == VERDICT_FAIL)
    other = len(reports) - passes - fails
    return CampaignReport(
        config=config,
        reports=tuple(reports),
        pass_count=passes,
        fail_count=fails,
        inapplicable_count=other,
    )


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _invariants_json(summary: InvariantSummary) -> dict:
    return {"reg": summary.reg, "pd": summary.pd, "depth": summary.depth_of_quotient}


def _invariants_text(summary: InvariantSummary) -> str:
    return f"reg = {summary.reg}, pd = {summary.pd}, depth(S/I) = {summary.depth_of_quotient}"


def report_json_dict(report: InvariantReport) -> dict:
    """The JSON form of one instance report, as ``compute --input`` and ``verify`` print it."""
    p = report.prediction
    return {
        "graph": report.graph.to_json_dict(),
        "class": p.class_used.tag.value,
        "hypotheses": {"satisfied": not p.violations, "violations": list(p.violations)},
        "computed": _invariants_json(report.computed),
        "predicted": {"reg": p.reg_pred, "pd": p.pd_pred, "depth": p.depth_pred, "applicable": p.applicable},
        "verdict": report.verdict,
    }


def report_markdown(report: InvariantReport) -> str:
    """The markdown form of one instance report, without a trailing newline."""
    p = report.prediction
    lines = [
        f"## Invariant report — class {p.class_used.tag.value}",
        "",
        f"- hypotheses satisfied: {not p.violations}"
        + (f" (violations: {', '.join(p.violations)})" if p.violations else ""),
        f"- predicted: reg = {p.reg_pred}, pd = {p.pd_pred}"
        + (f", depth = {p.depth_pred} (component count; caveated)" if p.depth_pred is not None else ""),
        f"- computed: {_invariants_text(report.computed)}",
        f"- verdict: **{report.verdict}**",
    ]
    return "\n".join(lines)


def _campaign_markdown(report: CampaignReport) -> str:
    lines = [
        f"# Verification campaign — {report.config.class_tag.value}",
        "",
        f"- config: {json.dumps(report.config.to_json_dict(), sort_keys=True)}",
        f"- pass {report.pass_count} / fail {report.fail_count} / inapplicable {report.inapplicable_count}",
        "",
        "| # | class | reg comp | reg pred | pd comp | pd pred | verdict |",
        "|---|-------|----------|----------|---------|---------|---------|",
    ]
    for idx, r in enumerate(report.reports):
        lines.append(
            f"| {idx} | {r.prediction.class_used.tag.value} | {r.computed.reg} | {r.prediction.reg_pred} "
            f"| {r.computed.pd} | {r.prediction.pd_pred} | {r.verdict} |"
        )
    return "\n".join(lines) + "\n"


def _campaign_csv(report: CampaignReport) -> str:
    rows = ["index,class,vertices,edges,reg_computed,reg_predicted,pd_computed,pd_predicted,verdict"]
    for idx, r in enumerate(report.reports):
        rows.append(
            f"{idx},{r.prediction.class_used.tag.value},{len(r.graph.vertices)},{len(r.graph.edges)},"
            f"{r.computed.reg},{r.prediction.reg_pred},{r.computed.pd},{r.prediction.pd_pred},{r.verdict}"
        )
    return "\n".join(rows) + "\n"


def _parse_range(text: str, what: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like lo..hi, got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_graph(path: str) -> WeightedDigraph | None:
    """The graph in a JSON file, or None after a ``graph input error:`` line on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return WeightedDigraph.from_json_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"graph input error: {exc}", file=sys.stderr)
        return None


def _cmd_compute(args) -> int:
    if bool(args.input) == bool(args.ideal):
        print("compute needs exactly one of --input or --ideal", file=sys.stderr)
        return EXIT_USAGE
    if args.ideal:
        try:
            ideal = parse_ideal(args.ideal)
        except ValueError as exc:
            print(f"ideal parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if ideal.is_zero():
            print("the zero ideal has no invariants", file=sys.stderr)
            return EXIT_USAGE
        table = betti_table(ideal)
        summary = invariants(ideal, table)
        payload = {"input": args.ideal, "ideal": str(ideal), "invariants": _invariants_json(summary)}
        markdown = f"## Invariants of {ideal}\n\n- {_invariants_text(summary)}"
    else:
        D = _load_graph(args.input)
        if D is None:
            return EXIT_USAGE
        if not D.edges:
            print("graph input error: the edge set is empty", file=sys.stderr)
            return EXIT_USAGE
        table = betti_table(edge_ideal(D))
        report = verify_formula(D, table)
        payload, markdown = report_json_dict(report), report_markdown(report)
    grid = table.render_grid()
    if args.format == "md":
        print(markdown + "\n\n```\n" + grid + "\n```")
    else:
        print(grid, file=sys.stderr)
        payload["betti_table"] = table.to_json_map()
        print(_canonical_json(payload), end="")
    return EXIT_OK


def _cmd_repro(args) -> int:
    ok, lines = run_repro(args.example)
    for line in lines:
        print(f"[{args.example}] {line}")
    print(f"[{args.example}] {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ASSERTION


def _cmd_verify(args) -> int:
    try:
        config = CampaignConfig(
            class_tag=GraphClassTag(args.class_tag),
            instance_count=args.count,
            cycle_range=_parse_range(args.cycle, "--cycle"),
            extra_range=_parse_range(args.extra, "--extra"),
            weight_range=_parse_range(args.weights, "--weights"),
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"invalid campaign config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    report = run_campaign(config)
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    render = {"json": lambda r: _canonical_json(r.to_json_dict()), "md": _campaign_markdown, "csv": _campaign_csv}
    print(render[args.format](report), end="")
    return EXIT_ASSERTION if report.fail_count else EXIT_OK


def _cmd_splitting(args) -> int:
    D = _load_graph(args.input)
    if D is None:
        return EXIT_USAGE
    edge = None
    if args.edge:
        parts = args.edge.split(",")
        if len(parts) != 2:
            print("--edge must look like tail,head", file=sys.stderr)
            return EXIT_USAGE
        edge = (parts[0].strip(), parts[1].strip())
    try:
        pair, verdict, prediction = split_and_check(D, edge)
    except ValueError as exc:
        print(f"splitting error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # linear: every nonzero entry of K's table lies in the one row j - i = deg K
    k_linear = len({j - i for i, j in verdict.table_K.entries}) == 1
    jk = {
        "reg": verdict.table_JK.reg(),
        "pd": verdict.table_JK.pd(),
        "reg_closed_form": prediction.reg_pred + 1,
        "pd_closed_form": prediction.pd_pred - 1,
        "hypotheses_satisfied": prediction.applicable,
    }
    if args.format == "md":
        lines = [
            f"## Betti splitting along {pair.split_edge[0]} -> {pair.split_edge[1]}",
            "",
            f"- K = {pair.K} (linear resolution: {k_linear})",
            f"- J = {pair.J}",
            f"- identity holds at every (i, j): {verdict.is_splitting}",
            f"- reg max-formula holds: {verdict.reg_formula_holds}",
            f"- pd max-formula holds: {verdict.pd_formula_holds}",
            f"- reg(J∩K) = {jk['reg']} (closed form {jk['reg_closed_form']}), "
            f"pd(J∩K) = {jk['pd']} (closed form {jk['pd_closed_form']})",
        ]
        print("\n".join(lines))
    else:
        payload = {
            "graph": D.to_json_dict(),
            "split_edge": list(pair.split_edge),
            "J": str(pair.J),
            "K": str(pair.K),
            "K_has_linear_resolution": k_linear,
            "identity_holds": verdict.is_splitting,
            "identity_failures": [
                {"i": i, "j": j, "lhs": lhs, "rhs": rhs} for (i, j), lhs, rhs in verdict.failures
            ],
            "reg_max_formula_holds": verdict.reg_formula_holds,
            "pd_max_formula_holds": verdict.pd_formula_holds,
            "tables": {
                "I": verdict.table_I.to_json_map(),
                "J": verdict.table_J.to_json_map(),
                "K": verdict.table_K.to_json_map(),
                "J∩K": verdict.table_JK.to_json_map(),
            },
            "JK_invariants": jk,
        }
        print(_canonical_json(payload), end="")
    return EXIT_OK if verdict.is_splitting else EXIT_ASSERTION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``eil`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eil",
        description="Exact invariants of edge ideals of vertex-weighted oriented graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Betti table, invariants and formula check for one input")
    p.add_argument("--input", help="path to a graph JSON file")
    p.add_argument("--ideal", help='ideal string, e.g. "(x1*x2^3, x2*x3^2)"')
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("repro", help="re-derive a bundled reference fixture")
    p.add_argument("example", choices=sorted(FIXTURES))
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("verify", help="seeded random verification campaign")
    p.add_argument("--class", dest="class_tag", required=True,
                   choices=[t.value for t in GraphClassTag if t is not GraphClassTag.OTHER])
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycle", default="3..5", help="cycle length range lo..hi")
    p.add_argument("--extra", default="0..3", help="extra vertex count range lo..hi")
    p.add_argument("--weights", default="2..4", help="weight range lo..hi")
    p.add_argument("--format", choices=["json", "md", "csv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("splitting", help="build and check a cycle-edge Betti splitting")
    p.add_argument("--input", required=True, help="path to a graph JSON file")
    p.add_argument("--edge", help="cycle edge tail,head (defaults to the edge entering the first cycle vertex)")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_splitting)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep those codes.
        return int(exc.code or 0)
    try:
        generator_guard()
    except ValueError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"sizing guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
