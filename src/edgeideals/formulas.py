"""Closed-form invariant predictions, hypothesis gating, and Betti splittings.

For rooted forests, oriented cycles and unicyclic graphs whose non-source
vertices of degree >= 2 have weight >= 2, the edge ideal satisfies

    reg I(D) = Σ_{x ∈ V(D)} w(x) - |E(D)| + 1,
    pd  I(D) = |E(D)| - 1,

with isolated vertices excluded from the weight sum (they contribute no
generator).  This module evaluates those predictions, compares them with
the exact engine, and builds the cycle-edge Betti splitting J + (k) of
the polarized edge ideal with its identity check, J ∩ (k) read as k·(J : k).
It holds records and checks only: every rendering of them, JSON or
markdown, is in :mod:`edgeideals.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import BettiTable, InvariantSummary, betti_table
from .digraphs import (
    GraphClass,
    GraphClassTag,
    WeightedDigraph,
    check_hypotheses,
    classify,
    component_groups,
    edge_generator,
    edge_ideal,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    intersect,
    polarize,
    polarize_monomial,
)


@dataclass(frozen=True)
class FormulaPrediction:
    """Formula values plus the gate that says whether they are promised.

    The numbers are always filled in (counterexample reports need them);
    ``applicable`` is true only when the class is supported and no vertex
    violates the weight hypothesis.  ``depth_pred`` is the component
    count, reported with a caveat and never folded into pass/fail.
    """

    reg_pred: int
    pd_pred: int
    depth_pred: int | None
    applicable: bool
    class_used: GraphClass
    violations: tuple[str, ...]


def predict(D: WeightedDigraph) -> FormulaPrediction:
    """Evaluate the closed-form reg/pd predictions for a graph.

    Classifies the graph and lists its weight-hypothesis violations once;
    both ride along in the prediction (``split_and_check`` reads the class
    from it).  Sources count as 1 in the weight sum, since their weight
    never enters the edge ideal; isolated vertices are excluded from the
    weight sum and the component count.
    """
    if not D.edges:
        raise ValueError("the formulas need at least one edge")
    groups = component_groups(D)
    cls = classify(D, groups)
    violations = check_hypotheses(D)
    sum_w = sum(1 if D.is_source(n) else w for n, w in D.vertices if D.degree(n) > 0)
    n_edges = len(D.edges)
    comps_with_edges = sum(1 for g in groups if len(g) > 1)
    applicable = cls.tag is not GraphClassTag.OTHER and not violations
    return FormulaPrediction(
        reg_pred=sum_w - n_edges + 1,
        pd_pred=n_edges - 1,
        depth_pred=comps_with_edges if applicable else None,
        applicable=applicable,
        class_used=cls,
        violations=violations,
    )


VERDICT_PASS = "pass"
VERDICT_FAIL = "FAIL"
VERDICT_INAPPLICABLE_AGREE = "inapplicable-agree"
VERDICT_INAPPLICABLE_MISMATCH = "inapplicable-mismatch"


@dataclass(frozen=True)
class InvariantReport:
    """Engine-computed invariants next to the formula predictions.

    When the hypotheses hold, disagreement is a FAILURE (it would
    contradict a theorem, so it means an implementation bug); when they
    do not, disagreement is expected and reported descriptively.  A
    plain record: ``cli`` renders it.
    """

    graph: WeightedDigraph
    prediction: FormulaPrediction
    computed: InvariantSummary
    verdict: str


def verify_formula(D: WeightedDigraph, table: BettiTable | None = None) -> InvariantReport:
    """Run the engine against the predictions and produce the verdict.

    ``table`` is the Betti table of the edge ideal when the caller already
    has it (source weights never enter the edge ideal); otherwise it is
    computed.  The edge ideal lives in one variable per vertex, so the
    depth needs no edge ideal when the table is given.  The report keeps
    only the invariants, not the table.  A tripped sizing guard raises
    ``GuardError`` to the caller.
    """
    prediction = predict(D)
    if table is None:
        table = betti_table(edge_ideal(D))
    summary = InvariantSummary.of_table(table, len(D.vertices))
    match = (summary.reg, summary.pd) == (prediction.reg_pred, prediction.pd_pred)
    if prediction.applicable:
        verdict = VERDICT_PASS if match else VERDICT_FAIL
    else:
        verdict = VERDICT_INAPPLICABLE_AGREE if match else VERDICT_INAPPLICABLE_MISMATCH
    return InvariantReport(graph=D, prediction=prediction, computed=summary, verdict=verdict)


@dataclass(frozen=True)
class SplitPair:
    """Partition I(D)^P = J + K along one cycle edge, over the polarized ambient.

    I is the polarized edge ideal I(D)^P itself; K is the (principal)
    polarized generator of the chosen cycle edge; J is the polarization of
    the edge ideal of D minus that edge.
    """

    I: MonomialIdeal
    J: MonomialIdeal
    K: MonomialIdeal
    split_edge: tuple[str, str]


def build_split(
    D: WeightedDigraph, e: tuple[str, str] | None = None, *, cls: GraphClass | None = None
) -> SplitPair:
    """Split the polarized edge ideal along a cycle edge.

    Defaults to the cycle edge entering the lowest-indexed cycle vertex.
    Only directed-cycle classes are accepted, and the edge must lie on
    the cycle.  J and K are slices of I(D)^P's sorted minimal generators,
    so they are sorted and minimal too.  J = I(D∖e)^P by construction:
    each edge keeps its own generator tail·head^w(head) when another edge
    is deleted, and polarization acts one generator at a time.  ``cls``
    is ``classify(D)`` when the caller already has it.
    """
    cls = classify(D) if cls is None else cls
    if cls.tag not in (GraphClassTag.ORIENTED_CYCLE, GraphClassTag.UNICYCLIC_ATTACHED):
        raise ValueError(f"build_split needs a single directed cycle; graph is {cls.tag.value}")
    cycle = cls.witness
    cycle_edges = {(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
    if e is None:
        e = (cycle[-1], cycle[0])
    else:
        e = (str(e[0]), str(e[1]))
        if e not in cycle_edges:
            raise ValueError(f"edge {e} is not on the cycle {'->'.join(cycle)}")
    I = polarize(edge_ideal(D))
    k = polarize_monomial(edge_generator(D, *e))
    J = MonomialIdeal(I.ambient, tuple(g for g in I.generators if g != k))
    if len(J.generators) != len(I.generators) - 1:
        raise AssertionError("split generator did not match exactly one polarized generator")
    return SplitPair(I=I, J=J, K=MonomialIdeal(I.ambient, (k,)), split_edge=e)


@dataclass(frozen=True)
class SplittingVerdict:
    """Outcome of checking the Betti-splitting identity for I = J + K."""

    is_splitting: bool
    failures: tuple[tuple[tuple[int, int], int, int], ...]  # ((i,j), lhs, rhs)
    reg_formula_holds: bool
    pd_formula_holds: bool
    table_I: BettiTable
    table_J: BettiTable
    table_K: BettiTable
    table_JK: BettiTable


def check_betti_splitting(I: MonomialIdeal, J: MonomialIdeal, K: MonomialIdeal) -> SplittingVerdict:
    """Check β_{i,j}(I) = β_{i,j}(J) + β_{i,j}(K) + β_{i-1,j}(J∩K) at every (i,j).

    Also reports the consequences reg(I) = max{reg J, reg K, reg(J∩K)-1}
    and pd(I) = max{pd J, pd K, pd(J∩K)+1}.  G(I) must be the disjoint
    union of G(J) and G(K), neither J nor K may be zero, and K = (k)
    must be principal.  Then J∩K = k·(J : k) (Francisco, Hà and Van
    Tuyl, "Splittings of monomial ideals", Proc. AMS 137, 2009): G(J∩K)
    divided by k is G(J : k), and J∩K's table is that of J : k with
    every degree raised by deg k.
    """
    for name, part in (("J", J), ("K", K)):
        if part.is_zero():
            raise ValueError(f"{name} is the zero ideal; a Betti splitting needs J and K nonzero")
    if len(K.generators) > 1:
        raise ValueError("K must be principal; J∩K is read through the colon ideal J : k")
    gen_I, gen_J, gen_K = set(I.generators), set(J.generators), set(K.generators)
    if gen_J & gen_K or gen_J | gen_K != gen_I:
        raise ValueError("G(I) must be the disjoint union of G(J) and G(K)")
    (k,) = K.generators
    colon = [Monomial({v: e - k.exponent(v) for v, e in h.exponents.items()}) for h in intersect(J, K).generators]
    t_colon = betti_table(MonomialIdeal(I.ambient, tuple(colon)))
    t_JK = BettiTable("of_ideal", {(i, j + k.degree()): c for (i, j), c in t_colon.entries.items()})
    t_I, t_J, t_K = betti_table(I), betti_table(J), betti_table(K)
    keys = set(t_I.entries) | set(t_J.entries) | set(t_K.entries)
    keys |= {(i + 1, j) for (i, j) in t_JK.entries}
    failures = []
    for key in sorted(keys):
        i, j = key
        lhs = t_I[key]
        rhs = t_J[key] + t_K[key] + (t_JK[(i - 1, j)] if i >= 1 else 0)
        if lhs != rhs:
            failures.append((key, lhs, rhs))
    reg_ok = t_I.reg() == max(t_J.reg(), t_K.reg(), t_JK.reg() - 1)
    pd_ok = t_I.pd() == max(t_J.pd(), t_K.pd(), t_JK.pd() + 1)
    return SplittingVerdict(
        is_splitting=not failures,
        failures=tuple(failures),
        reg_formula_holds=reg_ok,
        pd_formula_holds=pd_ok,
        table_I=t_I,
        table_J=t_J,
        table_K=t_K,
        table_JK=t_JK,
    )


def split_and_check(D: WeightedDigraph, e: tuple[str, str] | None = None):
    """build_split + the identity check; returns (pair, verdict, prediction).

    The splitting argument predicts reg(J∩K) = ``reg_pred + 1`` =
    Σw - |E| + 2 and pd(J∩K) = ``pd_pred - 1`` = |E| - 2.
    """
    prediction = predict(D)
    pair = build_split(D, e, cls=prediction.class_used)
    return pair, check_betti_splitting(pair.I, pair.J, pair.K), prediction
