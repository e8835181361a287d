import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import edgeideals.digraphs as digraphs_mod
import edgeideals.formulas as formulas_mod
from edgeideals.betti import DEFAULT_GENERATOR_GUARD, GuardError, betti_table
from edgeideals.digraphs import (
    GraphClass,
    GraphClassTag,
    WeightedDigraph,
    classify,
    edge_generator,
    edge_ideal,
    normalize_source_weights,
    random_instance,
)
from edgeideals.fixtures import FIXTURES
from edgeideals.formulas import (
    VERDICT_INAPPLICABLE_MISMATCH,
    VERDICT_PASS,
    build_split,
    check_betti_splitting,
    predict,
    split_and_check,
    verify_formula,
)
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    intersect,
    make_ideal,
    parse_ideal,
    parse_monomial,
    polarize,
    polarize_monomial,
)
from edgeideals.taylor import TAYLOR_GUARD

from conftest import delete_edge, random_ideal, seeded_graph, weight_sum
from test_digraphs import oriented_graphs


def cycle_graph(n, weight=2):
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return WeightedDigraph([(nm, weight) for nm in names], edges)


def assert_splitting_holds(verdict, prediction):
    """The identity and both max formulas hold, K has a linear resolution
    (one row j - i), and J∩K's reg and pd are the splitting argument's
    Σw - |E| + 2 and |E| - 2."""
    assert verdict.is_splitting, verdict.failures
    assert verdict.reg_formula_holds and verdict.pd_formula_holds
    assert len({j - i for i, j in verdict.table_K.entries}) == 1
    assert verdict.table_JK.reg() == prediction.reg_pred + 1
    assert verdict.table_JK.pd() == prediction.pd_pred - 1


class TestPredict:
    def test_hypothesis_failure_fixture(self):
        p = predict(FIXTURES["3.4"].graph)
        assert (p.reg_pred, p.pd_pred) == (7, 7)
        assert not p.applicable
        assert set(p.violations) == {"x6", "x7"}
        assert p.class_used.tag is GraphClassTag.UNICYCLIC_ATTACHED

    def test_direction_failure_fixture(self):
        p = predict(FIXTURES["3.6"].graph)
        assert (p.reg_pred, p.pd_pred) == (8, 4)
        assert not p.applicable
        assert p.class_used.tag is GraphClassTag.OTHER

    def test_second_direction_fixture(self):
        p = predict(FIXTURES["3.7"].graph)
        assert (p.reg_pred, p.pd_pred) == (10, 7)
        assert not p.applicable

    def test_small_cycle_applicable(self):
        p = predict(cycle_graph(3))
        assert (p.reg_pred, p.pd_pred) == (4, 2)
        assert p.applicable
        assert p.depth_pred == 1

    def test_single_edge(self):
        D = WeightedDigraph([("a", 1), ("b", 3)], [("a", "b")])
        p = predict(D)
        assert (p.reg_pred, p.pd_pred) == (4, 0)
        assert p.applicable

    def test_isolated_vertices_excluded_from_weight_sum(self):
        D = WeightedDigraph([("a", 1), ("b", 3), ("z", 9)], [("a", "b")])
        p = predict(D)
        assert weight_sum(D) == 4
        assert (p.reg_pred, p.pd_pred) == (4, 0)

    def test_source_weight_normalized_before_summing(self):
        D = WeightedDigraph([("a", 5), ("b", 3)], [("a", "b")])
        assert weight_sum(D) == 4
        assert predict(D).reg_pred == 4  # Σw - |E| + 1 with one edge

    def test_relabeling_invariance(self):
        D1 = cycle_graph(4, weight=3)
        relabel = {"x1": "p", "x2": "q", "x3": "r", "x4": "s"}
        D2 = WeightedDigraph(
            [(relabel[n], w) for n, w in D1.vertices],
            [(relabel[t], relabel[h]) for t, h in D1.edges],
        )
        p1, p2 = predict(D1), predict(D2)
        assert (p1.reg_pred, p1.pd_pred) == (p2.reg_pred, p2.pd_pred)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            predict(WeightedDigraph([("a", 1)], []))

    def test_predict_builds_no_graph_and_random_instance_builds_one(self, monkeypatch):
        built, init = [], WeightedDigraph.__init__

        def counted(self, vertices, edges):
            built.append(self)
            init(self, vertices, edges)

        monkeypatch.setattr(WeightedDigraph, "__init__", counted)
        shapes = [("RootedForest", dict(extra_vertices=9)), ("UnicyclicGeneral", dict(cycle_len=3, extra_vertices=6)),
                  ("UnicyclicAttached", dict(cycle_len=3, extra_vertices=3)), ("OrientedCycle", dict(cycle_len=5))]
        for tag, shape in shapes:
            for seed in range(4):
                before = len(built)
                D = random_instance(tag, weight_range=(2, 4), seed=seed, **shape)
                assert len(built) == before + 1 and built[-1] is D
                p = predict(D)
                assert len(built) == before + 1
                assert p.class_used.tag is GraphClassTag(tag)

    @given(oriented_graphs())
    def test_predict_agrees_with_the_component_graphs(self, D):
        assume(D.edges)
        comps = digraphs_mod.components(D)
        classes = [classify(c) for c in comps]
        tags = {c.tag for c in classes}
        if tags == {GraphClassTag.ROOTED_FOREST}:
            expected = GraphClass(GraphClassTag.ROOTED_FOREST, tuple(c.witness[0] for c in classes))
        elif len(classes) == 1:
            expected = classes[0]
        elif GraphClassTag.OTHER in tags:
            expected = GraphClass(GraphClassTag.OTHER, ())
        else:
            expected = GraphClass(GraphClassTag.UNICYCLIC_GENERAL, ())
        p = predict(D)
        assert p.class_used == expected
        assert p.depth_pred == (sum(1 for c in comps if c.edges) if p.applicable else None)


class TestVerifyFormula:
    def test_counterexample_reproduced(self):
        r = verify_formula(FIXTURES["3.4"].graph)
        assert r.computed is not None
        assert (r.computed.reg, r.computed.pd) == (8, 6)
        assert (r.prediction.reg_pred, r.prediction.pd_pred) == (7, 7)
        assert r.verdict == VERDICT_INAPPLICABLE_MISMATCH

    def test_valid_instance_passes(self):
        D = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=4, extra_vertices=2, seed=3)
        r = verify_formula(D)
        assert r.verdict == VERDICT_PASS

    def test_single_edge_values(self):
        D = WeightedDigraph([("a", 1), ("b", 3)], [("a", "b")])
        r = verify_formula(D)
        assert r.computed is not None
        assert (r.computed.reg, r.computed.pd) == (4, 0)
        assert r.verdict == VERDICT_PASS

    def test_multi_component_aggregation(self):
        # formulas aggregate across components; the engine sees the union ideal
        D = WeightedDigraph(
            [("x1", 2), ("x2", 2), ("x3", 2), ("a", 1), ("b", 2)],
            [("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("a", "b")],
        )
        r = verify_formula(D)
        assert r.prediction.class_used.tag is GraphClassTag.UNICYCLIC_GENERAL
        assert r.verdict == VERDICT_PASS
        assert r.prediction.depth_pred == 2

    def test_isolated_weight_one_vertex_is_no_violation(self):
        # z carries no generator, so the hypothesis does not constrain it.
        D = cycle_graph(3)
        D = WeightedDigraph(D.vertices + (("z", 1),), D.edges)
        r = verify_formula(D)
        assert r.prediction.violations == ()
        assert r.verdict == VERDICT_PASS

    def test_isolated_weight_one_vertex_beside_real_violations_is_not_listed(self):
        D = FIXTURES["3.4"].graph
        D = WeightedDigraph(D.vertices + (("z", 1),), D.edges)
        r = verify_formula(D)
        assert r.prediction.violations == ("x6", "x7")
        assert r.verdict == VERDICT_INAPPLICABLE_MISMATCH

    def test_two_cycle_components_pass(self):
        D = WeightedDigraph(
            [("a1", 2), ("a2", 2), ("a3", 2), ("b1", 3), ("b2", 2), ("b3", 2), ("b4", 2)],
            [("a1", "a2"), ("a2", "a3"), ("a3", "a1"),
             ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b1")],
        )
        r = verify_formula(D)
        assert r.prediction.class_used.tag is GraphClassTag.UNICYCLIC_GENERAL
        assert r.verdict == VERDICT_PASS
        assert r.prediction.depth_pred == 2  # caveated, never checked against the engine

    def test_guard_refuses_verification_but_not_prediction(self, monkeypatch):
        # a refused engine gives no report at all; the closed forms need no engine
        monkeypatch.setenv("EIL_GUARD_GENS", "2")
        with pytest.raises(GuardError, match="4 generators"):
            verify_formula(cycle_graph(4))
        p = predict(cycle_graph(4))
        assert (p.reg_pred, p.pd_pred) == (5, 3)


class TestBuildSplit:
    def test_small_cycle_split(self):
        pair = build_split(cycle_graph(3))
        assert pair.split_edge == ("x3", "x1")
        assert set(pair.K.generators) == {parse_monomial("x3_1*x1_1*x1_2")}
        assert set(pair.J.generators) == {
            parse_monomial("x1_1*x2_1*x2_2"),
            parse_monomial("x2_1*x3_1*x3_2"),
        }

    def test_weighted_four_cycle_default_edge(self):
        pair = build_split(FIXTURES["2.9"].graph)
        assert pair.split_edge == ("x4", "x1")
        assert set(pair.K.generators) == {
            parse_monomial("x4_1*x1_1*x1_2*x1_3*x1_4*x1_5")
        }
        assert len(pair.J.generators) == 3

    def test_explicit_cycle_edge(self):
        pair = build_split(cycle_graph(3), ("x1", "x2"))
        assert pair.split_edge == ("x1", "x2")

    def test_pendant_edge_rejected(self):
        D = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=3, extra_vertices=2, seed=4)
        pendant = next(e for e in D.edges if D.degree(e[1]) == 1)
        with pytest.raises(ValueError, match="not on the cycle"):
            build_split(D, pendant)

    def test_forest_rejected(self):
        D = random_instance(GraphClassTag.ROOTED_FOREST, extra_vertices=5, seed=2)
        with pytest.raises(ValueError, match="cycle"):
            build_split(D)

    def test_partition_property(self):
        D = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=4, extra_vertices=2, seed=8)
        pair = build_split(D)
        full = polarize(edge_ideal(normalize_source_weights(D)))
        assert set(pair.J.generators) | set(pair.K.generators) == set(full.generators)
        assert not set(pair.J.generators) & set(pair.K.generators)

    @pytest.mark.parametrize("weights", [(1, 3), (2, 3), (2, 4)])
    @pytest.mark.parametrize("tag,sizes", [
        ("OrientedCycle", range(3, 10)),
        ("UnicyclicAttached", (4, 6, 8)),
    ])
    def test_slices_are_the_polarized_edge_ideals(self, tag, sizes, weights):
        # J and K are slices of I(D)^P; J is I(D minus e)^P and is already
        # minimal and sorted, and K is the split edge's polarized generator.
        for size in sizes:
            for seed in (1, 2):
                D = seeded_graph(tag, size, weights, seed)
                cycle = classify(D).witness
                for e in zip(cycle, cycle[1:] + cycle[:1]):
                    pair = build_split(D, e)
                    J, I = pair.J, pair.I
                    without = edge_ideal(delete_edge(D, e)).generators
                    assert set(J.generators) == {polarize_monomial(g) for g in without}
                    assert J.generators == make_ideal(J.generators, I.ambient).generators
                    assert pair.K.generators == (polarize_monomial(edge_generator(D, *e)),)

    def test_builds_the_edge_ideal_once(self, monkeypatch):
        calls = []

        def counted(D):
            calls.append(D)
            return edge_ideal(D)

        monkeypatch.setattr(formulas_mod, "edge_ideal", counted)
        build_split(FIXTURES["2.9"].graph)
        assert len(calls) == 1


class TestCheckBettiSplitting:
    def test_split_of_small_cycle_is_a_splitting(self):
        _, verdict, prediction = split_and_check(cycle_graph(3))
        assert_splitting_holds(verdict, prediction)

    def test_split_and_check_classifies_once(self, monkeypatch):
        calls = []

        def counted(D, groups=None):
            calls.append(D)
            return classify(D, groups)

        monkeypatch.setattr(formulas_mod, "classify", counted)
        D = random_instance("OrientedCycle", cycle_len=6, weight_range=(2, 3), seed=1)
        split_and_check(D)
        assert len(calls) == 1

    def test_disjoint_pair_splits(self):
        I = parse_ideal("(x1*x2, x3*x4)")
        J = make_ideal([parse_monomial("x1*x2")], I.ambient)
        K = make_ideal([parse_monomial("x3*x4")], I.ambient)
        assert check_betti_splitting(I, J, K).is_splitting

    def test_generic_pair_matches_brute_force_identity(self):
        I = parse_ideal("(x1*x2, x1*x3)")
        J = make_ideal([parse_monomial("x1*x2")], I.ambient)
        K = make_ideal([parse_monomial("x1*x3")], I.ambient)
        verdict = check_betti_splitting(I, J, K)
        from edgeideals.monomials import intersect
        t_I, t_J, t_K = betti_table(I), betti_table(J), betti_table(K)
        t_JK = betti_table(intersect(J, K))
        keys = set(t_I.entries) | set(t_J.entries) | set(t_K.entries)
        keys |= {(i + 1, j) for (i, j) in t_JK.entries}
        brute = all(
            t_I[k] == t_J[k] + t_K[k] + (t_JK[(k[0] - 1, k[1])] if k[0] else 0)
            for k in keys
        )
        assert verdict.is_splitting == brute

    def test_non_principal_K_rejected(self):
        I = parse_ideal("(x1*x2, x1*x3, x2*x3)")
        J = make_ideal([parse_monomial("x1*x2")], I.ambient)
        K = make_ideal([parse_monomial("x1*x3"), parse_monomial("x2*x3")], I.ambient)
        with pytest.raises(ValueError, match="principal"):
            check_betti_splitting(I, J, K)

    @given(st.randoms(use_true_random=False))
    def test_intersection_with_a_principal_ideal_is_the_shifted_colon(self, rng):
        # J ∩ (k) = k·(J : k), with J : k generated by the g/gcd(g, k).
        J = random_ideal(rng, n_vars=4, max_gens=6, max_exp=3)
        draws = (Monomial({v: rng.randint(0, 3) for v in J.ambient}) for _ in range(20))
        k = next((u for u in draws if not u.is_unit() and u not in J), None)
        assume(k is not None)
        colon = make_ideal(
            [Monomial({v: e - min(e, k.exponent(v)) for v, e in g.exponents.items()}) for g in J.generators],
            J.ambient,
        )
        K = MonomialIdeal(J.ambient, (k,))
        direct = betti_table(intersect(J, K))
        assert direct.entries == {(i, j + k.degree()): c for (i, j), c in betti_table(colon).entries.items()}
        if not any(k.divides(g) for g in J.generators):
            I = make_ideal(J.generators + (k,), J.ambient)
            assert check_betti_splitting(I, J, K).table_JK == direct

    def test_bad_partition_rejected(self):
        I = parse_ideal("(x1*x2, x1*x3)")
        J = make_ideal([parse_monomial("x1*x2")], I.ambient)
        with pytest.raises(ValueError, match="disjoint union"):
            check_betti_splitting(I, J, J)

    @pytest.mark.parametrize("zero_part", ["J", "K"])
    def test_zero_part_rejected_before_any_table(self, monkeypatch, zero_part):
        I = parse_ideal("(x1*x2, x1*x3)")
        zero = MonomialIdeal(I.ambient, ())
        tables = []
        monkeypatch.setattr(formulas_mod, "betti_table", tables.append)
        J, K = (zero, I) if zero_part == "J" else (I, zero)
        with pytest.raises(ValueError, match=f"^{zero_part} is the zero ideal"):
            check_betti_splitting(I, J, K)
        assert tables == []


@st.composite
def cyclic_graphs_at_scale(draw):
    """OrientedCycle or UnicyclicAttached with 10-20 edges, weights 2..3 or
    2..4, any seed; UnicyclicAttached takes a cycle of max(3, m // 3)."""
    m = draw(st.integers(10, 20))
    weights = draw(st.sampled_from([(2, 3), (2, 4)]))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_instance("OrientedCycle", cycle_len=m, weight_range=weights, seed=seed)
    cycle_len = max(3, m // 3)
    return random_instance(
        "UnicyclicAttached", cycle_len=cycle_len, extra_vertices=m - cycle_len,
        weight_range=weights, seed=seed,
    )


class TestSplittingAtScale:
    @given(cyclic_graphs_at_scale())
    def test_splitting_at_scale_holds_with_its_closed_forms(self, D):
        # The polarized inputs have up to 80 variables, one per mask bit.
        assert_splitting_holds(*split_and_check(D)[1:])

    @pytest.mark.parametrize("tag", ["OrientedCycle", "UnicyclicAttached"])
    def test_splitting_past_the_generator_guard(self, monkeypatch, tag):
        # 32 edges: J∩K has 31 generators, past the default guard and the
        # Taylor oracle's limit, so only the engine's own checks vouch for
        # its table.
        monkeypatch.setenv("EIL_GUARD_GENS", "32")
        pair, verdict, prediction = split_and_check(seeded_graph(tag, 32, (2, 3), 1))
        assert len(intersect(pair.J, pair.K).generators) == 31 > DEFAULT_GENERATOR_GUARD > TAYLOR_GUARD
        assert_splitting_holds(verdict, prediction)

    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("tag", ["OrientedCycle", "UnicyclicAttached"])
    def test_splitting_at_64_and_128_edges(self, monkeypatch, tag, m):
        # J∩K has m - 1 generators, each carrying k's bits; the table is
        # read through J : k, whose generators are free of them.
        monkeypatch.setenv("EIL_GUARD_GENS", str(m))
        assert_splitting_holds(*split_and_check(seeded_graph(tag, m, (2, 3), 1))[1:])

    @pytest.mark.parametrize("tag", ["OrientedCycle", "UnicyclicAttached"])
    def test_splitting_along_every_cycle_edge(self, monkeypatch, tag):
        # 32 splittings on OrientedCycle, 17 on UnicyclicAttached 17+15.
        monkeypatch.setenv("EIL_GUARD_GENS", "32")
        D = seeded_graph(tag, 32, (2, 3), 1)
        cycle = classify(D).witness
        assert len(cycle) == {"OrientedCycle": 32, "UnicyclicAttached": 17}[tag]
        for e in zip(cycle, cycle[1:] + cycle[:1]):
            pair, verdict, prediction = split_and_check(D, e)
            assert pair.split_edge == e
            assert_splitting_holds(verdict, prediction)


class TestFormulaCampaignSpot:
    @pytest.mark.parametrize("tag,kwargs", [
        (GraphClassTag.ROOTED_FOREST, dict(extra_vertices=6)),
        (GraphClassTag.ORIENTED_CYCLE, dict(cycle_len=5)),
        (GraphClassTag.UNICYCLIC_ATTACHED, dict(cycle_len=3, extra_vertices=3)),
        (GraphClassTag.UNICYCLIC_GENERAL, dict(cycle_len=3, extra_vertices=4)),
    ])
    def test_formula_holds_for_each_class(self, tag, kwargs):
        for seed in (11, 12):
            D = random_instance(tag, weight_range=(2, 3), seed=seed, **kwargs)
            assert verify_formula(D).verdict == VERDICT_PASS


class TestLargeOrientedCycles:
    @pytest.mark.parametrize("m", [14, 16])
    def test_engine_matches_closed_form(self, m):
        D = random_instance(GraphClassTag.ORIENTED_CYCLE, cycle_len=m, weight_range=(2, 3), seed=m)
        p = predict(D)
        report = verify_formula(D)
        assert p.applicable and report.verdict == VERDICT_PASS
        assert (report.computed.reg, report.computed.pd) == (p.reg_pred, p.pd_pred) == (
            weight_sum(D) - m + 1, m - 1)
