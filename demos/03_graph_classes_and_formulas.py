"""Weighted oriented graphs, their classes, and the closed-form predictions.

For rooted forests, oriented cycles and unicyclic graphs with trees
oriented away from the cycle, the invariants of the edge ideal
I(D) = (tail·head^{w(head)}) obey

    reg = Σ w(x) - |E| + 1        pd = |E| - 1

whenever every non-source vertex of degree >= 2 has weight >= 2.  When a
hypothesis fails the numbers genuinely drift apart; fixture graphs the
package ships show both situations.

Run:  python3 demos/03_graph_classes_and_formulas.py
"""

from edgeideals import WeightedDigraph, classify, verify_formula
from edgeideals.fixtures import FIXTURES


def show(name, D):
    report = verify_formula(D)
    c, p = report.computed, report.prediction
    print(f"{name}: class {classify(D).tag.value}")
    print(f"  computed  reg = {c.reg}, pd = {c.pd}")
    print(f"  predicted reg = {p.reg_pred}, pd = {p.pd_pred} (applicable: {p.applicable})")
    if p.violations:
        print(f"  weight-hypothesis violations: {', '.join(p.violations)}")
    print(f"  verdict: {report.verdict}\n")


# A well-behaved oriented cycle: formulas apply and match.
cycle = WeightedDigraph(
    [("x1", 2), ("x2", 2), ("x3", 2)],
    [("x1", "x2"), ("x2", "x3"), ("x3", "x1")],
)
show("triangle, all weights 2", cycle)

# A rooted star: the root is a source, so its weight is conventionally 1
# and the formulas still apply.
star = WeightedDigraph(
    [("r", 1), ("y1", 2), ("y2", 2), ("y3", 2)],
    [("r", "y1"), ("r", "y2"), ("r", "y3")],
)
show("rooted star", star)

# Fixture 3.4: two degree-2 vertices of weight 1 break the hypothesis,
# and the computed values drift away from the formulas.
show("fixture 3.4 (weight hypothesis fails)", FIXTURES["3.4"].graph)

# Fixture 3.6: an edge oriented against the cycle changes the class
# entirely; the formulas are reported but not promised.
show("fixture 3.6 (direction selection)", FIXTURES["3.6"].graph)
