"""Bundled reference instances with independently verified invariants.

Each fixture carries a weighted oriented graph, the closed-form
predictions, and reg/pd values computed independently with an external
computer algebra system (CoCoA).  Fixture 2.9 instead pins the expected
polarization of its edge ideal, generator by generator.  ``run_repro``
re-derives everything with this package and reports each comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraphs import WeightedDigraph, edge_ideal
from .formulas import verify_formula
from .monomials import parse_monomial, polarize


@dataclass(frozen=True)
class ReproFixture:
    graph: WeightedDigraph
    expected_computed: tuple[int, int] | None = None  # (reg, pd) of the edge ideal
    expected_predicted: tuple[int, int] | None = None  # closed-form (reg, pd)
    expected_polarization: tuple[str, ...] | None = None


FIXTURES: dict[str, ReproFixture] = {
    "2.9": ReproFixture(
        graph=WeightedDigraph(
            [("x1", 5), ("x2", 3), ("x3", 2), ("x4", 4)],
            [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")],
        ),
        expected_polarization=(
            "x1_1*x2_1*x2_2*x2_3",
            "x2_1*x3_1*x3_2",
            "x3_1*x4_1*x4_2*x4_3*x4_4",
            "x4_1*x1_1*x1_2*x1_3*x1_4*x1_5",
        ),
    ),
    "3.4": ReproFixture(
        graph=WeightedDigraph(
            [("x1", 2), ("x2", 2), ("x3", 2), ("x4", 2), ("x5", 2), ("x6", 1), ("x7", 1), ("x8", 2)],
            [
                ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x5", "x1"),
                ("x1", "x6"), ("x6", "x7"), ("x7", "x8"),
            ],
        ),
        expected_computed=(8, 6),
        expected_predicted=(7, 7),
    ),
    "3.6": ReproFixture(
        graph=WeightedDigraph(
            [("x1", 4), ("x2", 3), ("x3", 2), ("x4", 1), ("x5", 2)],
            [("x1", "x2"), ("x2", "x3"), ("x4", "x3"), ("x4", "x1"), ("x1", "x5")],
        ),
        expected_computed=(9, 3),
        expected_predicted=(8, 4),
    ),
    "3.7": ReproFixture(
        graph=WeightedDigraph(
            [("x1", 1), ("x2", 2), ("x3", 2), ("x4", 4), ("x5", 2), ("x6", 2), ("x7", 2), ("x8", 2)],
            [
                ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4"),
                ("x2", "x5"), ("x5", "x6"), ("x3", "x7"), ("x7", "x8"),
            ],
        ),
        expected_computed=(11, 6),
        expected_predicted=(10, 7),
    ),
}


def run_repro(ident: str) -> tuple[bool, list[str]]:
    """Re-derive a fixture's pinned values; returns (all_passed, check lines)."""
    if ident not in FIXTURES:
        raise KeyError(f"unknown fixture {ident!r}; choose from {sorted(FIXTURES)}")
    fx = FIXTURES[ident]
    lines: list[str] = []
    ok = True

    if fx.expected_polarization is not None:
        got = set(polarize(edge_ideal(fx.graph)).generators)
        want = {parse_monomial(s) for s in fx.expected_polarization}
        good = got == want
        ok &= good
        lines.append(f"polarized generators match: {'ok' if good else 'MISMATCH'}")
        if not good:
            lines.append(f"  expected {sorted(str(m) for m in want)}")
            lines.append(f"  got      {sorted(str(m) for m in got)}")

    if fx.expected_computed is not None:
        report = verify_formula(fx.graph)
        got_c = (report.computed.reg, report.computed.pd)
        good = got_c == fx.expected_computed
        ok &= good
        lines.append(
            f"computed (reg, pd) = {got_c}, expected {fx.expected_computed}: "
            f"{'ok' if good else 'MISMATCH'}"
        )
        got_p = (report.prediction.reg_pred, report.prediction.pd_pred)
        good = got_p == fx.expected_predicted
        ok &= good
        lines.append(
            f"predicted (reg, pd) = {got_p}, expected {fx.expected_predicted}: "
            f"{'ok' if good else 'MISMATCH'}"
        )
    return ok, lines
