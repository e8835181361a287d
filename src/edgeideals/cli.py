"""Command-line surface: ``eil compute | repro | verify | splitting``.

Exit codes: 0 = ran, asserted checks passed; 1 = assertion failure
(theorem-applicable mismatch, fixture mismatch, or splitting identity
failure); 2 = usage or parse error, including a malformed
``EIL_GUARD_GENS``, which ``main`` checks before any subcommand runs;
3 = sizing guard.  A tripped guard propagates out of the engine to
``main``, which alone turns it into one ``sizing guard:`` line on
stderr and exit 3 for every subcommand, with nothing on stdout.  JSON
output is canonical (sorted keys) and byte-identical across runs of the
same seeded command; ``verify`` adds its elapsed time unless given
--no-timing.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from .betti import GuardError, betti_table, generator_guard, invariants
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
    """Parameters of one seeded verification campaign."""

    class_tag: GraphClassTag
    instance_count: int
    cycle_range: tuple[int, int]
    extra_range: tuple[int, int]
    weight_range: tuple[int, int]
    seed: int

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
    elapsed_seconds: float | None

    def to_json_dict(self) -> dict:
        out = {
            "config": self.config.to_json_dict(),
            "instances": [r.to_json_dict() for r in self.reports],
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "inapplicable_count": self.inapplicable_count,
        }
        if self.elapsed_seconds is not None:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def run_campaign(config: CampaignConfig, *, with_timing: bool = True) -> CampaignReport:
    """Generate seeded instances and verify each; deterministic under the seed."""
    rng = random.Random(f"campaign:{config.seed}")
    started = time.monotonic()
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
    elapsed = time.monotonic() - started if with_timing else None
    passes = sum(1 for r in reports if r.verdict == VERDICT_PASS)
    fails = sum(1 for r in reports if r.verdict == VERDICT_FAIL)
    other = len(reports) - passes - fails
    return CampaignReport(
        config=config,
        reports=tuple(reports),
        pass_count=passes,
        fail_count=fails,
        inapplicable_count=other,
        elapsed_seconds=elapsed,
    )


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
            f"| {idx} | {r.graph_class.tag.value} | {r.computed.reg} | {r.prediction.reg_pred} "
            f"| {r.computed.pd} | {r.prediction.pd_pred} | {r.verdict} |"
        )
    if report.elapsed_seconds is not None:
        lines.append("")
        lines.append(f"elapsed: {report.elapsed_seconds:.2f}s")
    return "\n".join(lines) + "\n"


def _campaign_csv(report: CampaignReport) -> str:
    rows = ["index,class,vertices,edges,reg_computed,reg_predicted,pd_computed,pd_predicted,verdict"]
    for idx, r in enumerate(report.reports):
        rows.append(
            f"{idx},{r.graph_class.tag.value},{len(r.graph.vertices)},{len(r.graph.edges)},"
            f"{r.computed.reg},{r.prediction.reg_pred},{r.computed.pd},{r.prediction.pd_pred},{r.verdict}"
        )
    return "\n".join(rows) + "\n"


def _parse_range(text: str, what: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like lo..hi, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ValueError(f"{what} range {text!r} is empty")
    return lo, hi


def _load_graph(path: str) -> WeightedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return WeightedDigraph.from_json_dict(data)


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
        payload = {
            "input": args.ideal,
            "ideal": str(ideal),
            "betti_table": table.to_json_map(),
            "invariants": {
                "reg": summary.reg,
                "pd": summary.pd,
                "depth": summary.depth_of_quotient,
            },
        }
        if args.format == "md":
            print(f"## Invariants of {ideal}\n")
            print(f"- reg = {summary.reg}, pd = {summary.pd}, depth(S/I) = {summary.depth_of_quotient}\n")
            print("```\n" + table.render_grid() + "\n```")
        else:
            print(table.render_grid(), file=sys.stderr)
            print(_canonical_json(payload), end="")
        return EXIT_OK

    try:
        D = _load_graph(args.input)
    except (OSError, ValueError) as exc:
        print(f"graph input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not D.edges:
        print("graph input error: the edge set is empty", file=sys.stderr)
        return EXIT_USAGE
    table = betti_table(edge_ideal(D))
    report = verify_formula(D, table)
    if args.format == "md":
        print(report.to_markdown())
        print("\n```\n" + table.render_grid() + "\n```")
    else:
        payload = report.to_json_dict()
        payload["betti_table"] = table.to_json_map()
        print(table.render_grid(), file=sys.stderr)
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
        if config.instance_count < 1:
            raise ValueError("--count must be >= 1")
        if config.class_tag is not GraphClassTag.ROOTED_FOREST and config.cycle_range[0] < 3:
            raise ValueError("--cycle must start at 3 for cyclic classes")
        if config.weight_range[0] < 1:
            raise ValueError("--weights must start at 1 or above")
    except ValueError as exc:
        print(f"invalid campaign config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_campaign(config, with_timing=not args.no_timing)
    if args.format == "md":
        print(_campaign_markdown(report), end="")
    elif args.format == "csv":
        print(_campaign_csv(report), end="")
    else:
        print(_canonical_json(report.to_json_dict()), end="")
    return EXIT_ASSERTION if report.fail_count else EXIT_OK


def _cmd_splitting(args) -> int:
    try:
        D = _load_graph(args.input)
    except (OSError, ValueError) as exc:
        print(f"graph input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    edge = None
    if args.edge:
        parts = args.edge.split(",")
        if len(parts) != 2:
            print("--edge must look like tail,head", file=sys.stderr)
            return EXIT_USAGE
        edge = (parts[0].strip(), parts[1].strip())
    try:
        pair, verdict, extras = split_and_check(D, edge)
    except ValueError as exc:
        print(f"splitting error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "graph": D.to_json_dict(),
        "split_edge": list(pair.split_edge),
        "J": str(pair.J),
        "K": str(pair.K),
        "K_has_linear_resolution": extras["K_has_linear_resolution"],
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
        "JK_invariants": {
            "reg": extras["JK_reg"],
            "pd": extras["JK_pd"],
            "reg_closed_form": extras["JK_reg_expected"],
            "pd_closed_form": extras["JK_pd_expected"],
            "hypotheses_satisfied": extras["hypotheses_satisfied"],
        },
    }
    if args.format == "md":
        lines = [
            f"## Betti splitting along {pair.split_edge[0]} -> {pair.split_edge[1]}",
            "",
            f"- K = {pair.K} (linear resolution: {extras['K_has_linear_resolution']})",
            f"- J = {pair.J}",
            f"- identity holds at every (i, j): {verdict.is_splitting}",
            f"- reg max-formula holds: {verdict.reg_formula_holds}",
            f"- pd max-formula holds: {verdict.pd_formula_holds}",
            f"- reg(J∩K) = {extras['JK_reg']} (closed form {extras['JK_reg_expected']}), "
            f"pd(J∩K) = {extras['JK_pd']} (closed form {extras['JK_pd_expected']})",
        ]
        print("\n".join(lines))
    else:
        print(_canonical_json(payload), end="")
    return EXIT_OK if verdict.is_splitting else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--no-timing", action="store_true")
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
