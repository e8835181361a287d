"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Every tolerance is exact integer equality.
"""

import json
import random
import time

import pytest

from edgeideals.betti import betti_table
from edgeideals.cli import CampaignConfig, main, run_campaign
from edgeideals.digraphs import GraphClassTag, edge_ideal, normalize_source_weights, random_instance
from edgeideals.fixtures import FIXTURES, run_repro
from edgeideals.formulas import VERDICT_PASS, split_and_check, verify_formula
from edgeideals.monomials import Monomial, Variable, polarize
from edgeideals.taylor import euler_characteristic_check, taylor_betti_table

from conftest import ideal_sum, multiply_external, random_ideal, weight_sum


def report(num: int, description: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def test_criterion_1_polarization_golden():
    started = time.monotonic()
    ok, _ = run_repro("2.9")
    elapsed = time.monotonic() - started
    degrees = sorted(
        g.degree() for g in polarize(edge_ideal(FIXTURES["2.9"].graph)).generators
    )
    ok = ok and degrees == [3, 4, 5, 6] and elapsed < 1.0
    report(1, f"repro 2.9 exact polarization, degrees 3/4/5/6, {elapsed:.2f}s < 1s", ok)


@pytest.mark.parametrize(
    "ident,computed,predicted",
    [("3.4", (8, 6), (7, 7)), ("3.6", (9, 3), (8, 4)), ("3.7", (11, 6), (10, 7))],
)
def test_criterion_2_counterexamples(ident, computed, predicted):
    started = time.monotonic()
    r = verify_formula(FIXTURES[ident].graph)
    elapsed = time.monotonic() - started
    assert r.computed is not None
    ok = (
        (r.computed.reg, r.computed.pd) == computed
        and (r.prediction.reg_pred, r.prediction.pd_pred) == predicted
        and run_repro(ident)[0]
        and elapsed < 60.0
    )
    report(
        2,
        f"repro {ident}: computed {computed} vs predicted {predicted}, {elapsed:.1f}s < 60s",
        ok,
    )


@pytest.mark.parametrize(
    "label,config",
    [
        (
            "UnicyclicAttached x50",
            CampaignConfig(GraphClassTag.UNICYCLIC_ATTACHED, 50, (3, 5), (1, 3), (2, 4), 42),
        ),
        (
            "RootedForest x50",
            CampaignConfig(GraphClassTag.ROOTED_FOREST, 50, (3, 5), (4, 8), (2, 4), 7),
        ),
        (
            "OrientedCycle x20",
            CampaignConfig(GraphClassTag.ORIENTED_CYCLE, 20, (3, 6), (0, 0), (2, 3), 1),
        ),
    ],
)
def test_criterion_3_theorem_campaigns(label, config):
    started = time.monotonic()
    campaign = run_campaign(config)
    elapsed = time.monotonic() - started
    ok = campaign.pass_count == config.instance_count and elapsed < 600.0
    for r in campaign.reports:
        assert r.computed is not None
        ok = ok and r.verdict == VERDICT_PASS
        ok = ok and r.computed.reg == weight_sum(r.graph) - len(r.graph.edges) + 1
        ok = ok and r.computed.pd == len(r.graph.edges) - 1
    report(
        3,
        f"{label}: {campaign.pass_count}/{config.instance_count} exact formula matches, {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_polarization_invariance():
    rng = random.Random(404)
    ok = True
    for _ in range(50):
        I = random_ideal(rng, n_vars=3, max_gens=6, max_exp=4)
        ok = ok and betti_table(I).entries == betti_table(polarize(I)).entries
    report(4, "50 random ideals: betti_table(I) == betti_table(polarize(I)) entrywise", ok)


def test_criterion_5_additivity_and_external_factor():
    rng = random.Random(505)
    ok = True
    for _ in range(25):
        I = random_ideal(rng, n_vars=2, max_gens=3, max_exp=3, prefix="a")
        J = random_ideal(rng, n_vars=2, max_gens=3, max_exp=3, prefix="b")
        ti, tj, ts = betti_table(I), betti_table(J), betti_table(ideal_sum(I, J))
        ok = ok and ts.reg() == ti.reg() + tj.reg() - 1
        ok = ok and ts.pd() == ti.pd() + tj.pd() + 1
    for _ in range(25):
        I = random_ideal(rng, n_vars=3, max_gens=4, max_exp=3)
        deg = rng.randint(1, 4)
        u = Monomial({Variable("w"): deg})
        ti, tu = betti_table(I), betti_table(multiply_external(u, I))
        ok = ok and tu.reg() == ti.reg() + deg and tu.pd() == ti.pd()
    report(5, "25 disjoint sums + 25 external products match the reg/pd identities", ok)


def test_criterion_6_splitting_identity():
    rng = random.Random(606)
    ok = True
    for index in range(20):
        if index % 4 == 0:
            D = random_instance(
                GraphClassTag.ORIENTED_CYCLE,
                cycle_len=rng.randint(3, 5),
                weight_range=(2, 3),
                seed=rng.randrange(2**32),
            )
        else:
            D = random_instance(
                GraphClassTag.UNICYCLIC_ATTACHED,
                cycle_len=rng.randint(3, 5),
                extra_vertices=rng.randint(1, 2),
                weight_range=(2, 3),
                seed=rng.randrange(2**32),
            )
        _, verdict, _ = split_and_check(D)
        ok = ok and verdict.is_splitting
        ok = ok and verdict.reg_formula_holds and verdict.pd_formula_holds
        ok = ok and len({j - i for i, j in verdict.table_K.entries}) == 1
    report(6, "20 cyclic instances: splitting identity at every (i,j) + max-formulas", ok)


def test_criterion_7_dual_engine_and_euler():
    rng = random.Random(707)
    ok = True
    for _ in range(30):
        I = random_ideal(rng, n_vars=3, max_gens=5, max_exp=4)
        strand = betti_table(I)  # no engine path checks the Euler identity; it is checked here
        taylor = taylor_betti_table(I)
        ok = ok and strand.entries == taylor.entries
        ok = ok and euler_characteristic_check(I, strand).ok
        ok = ok and euler_characteristic_check(I, taylor).ok
    report(7, "30 random ideals: strand engine == Taylor oracle, Euler identity holds", ok)


def test_criterion_8_determinism(capsys):
    argv = [
        "verify", "--class", "UnicyclicAttached", "--count", "3",
        "--cycle", "3..4", "--extra", "1..2", "--weights", "2..3",
        "--seed", "99",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1.encode() == out2.encode()
    json.loads(out1)  # canonical JSON parses
    with capsys.disabled():
        report(8, "repeated seeded verify produces byte-identical canonical JSON", ok)
