import json
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import edgeideals.monomials as monomials_mod
from edgeideals.digraphs import (
    GraphClassTag,
    WeightedDigraph,
    check_hypotheses,
    classify,
    components,
    edge_ideal,
    normalize_source_weights,
    random_instance,
)
from edgeideals.fixtures import FIXTURES
from edgeideals.formulas import predict
from edgeideals.monomials import parse_ideal

from conftest import delete_edge, delete_vertex


def cycle_graph(n, weight=2):
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return WeightedDigraph([(nm, weight) for nm in names], edges)


class TestBasics:
    def test_cycle_degrees(self):
        D = cycle_graph(3)
        assert all(D.degree(v) == 2 for v in D.vertex_names())

    def test_isolated_vertex_degree(self):
        D = WeightedDigraph([("a", 1)], [])
        assert D.degree("a") == 0

    def test_star_center_degree(self):
        D = WeightedDigraph(
            [("c", 1), ("l1", 2), ("l2", 2), ("l3", 2)],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
        )
        assert D.degree("c") == 3

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            cycle_graph(3).degree("nope")

    def test_bidirected_edge_rejected(self):
        with pytest.raises(ValueError, match="bidirected"):
            WeightedDigraph([("a", 1), ("b", 1)], [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedDigraph([("a", 1)], [("a", "a")])

    @pytest.mark.parametrize("weight", [2.9, True, "3"], ids=["2.9", "true", "string"])
    def test_non_integer_weight_rejected(self, weight):
        # The constructor, not only the JSON reader, refuses what int() would coerce.
        with pytest.raises(ValueError, match="weights must be integers"):
            WeightedDigraph([("a", 1), ("b", weight)], [("a", "b")])

    @pytest.mark.parametrize("name", ["a_1", "1a", ""], ids=["polar-suffix", "digit-first", "empty"])
    def test_name_no_variable_can_have_rejected(self, name):
        # The constructor, not only the JSON reader, applies the variable-name rule.
        with pytest.raises(ValueError, match="variable name"):
            WeightedDigraph([(name, 2), ("b", 2)], [(name, "b")])

    def test_name_cache_is_bounded(self):
        # Names are checked by the interned Variable constructor, whose cache
        # would otherwise keep every distinct vertex name a process sees.
        assert monomials_mod._interned.cache_info().maxsize == 4096

    def test_degree_sum_is_twice_edge_count(self):
        for seed in range(5):
            D = random_instance(
                GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=4, extra_vertices=3, seed=seed
            )
            assert sum(D.degree(v) for v in D.vertex_names()) == 2 * len(D.edges)


class TestNormalize:
    def test_source_weight_reset(self):
        D = WeightedDigraph([("a", 5), ("b", 2)], [("a", "b")])
        N = normalize_source_weights(D)
        assert N.weight("a") == 1 and N.weight("b") == 2

    def test_cycle_unchanged(self):
        D = cycle_graph(4, weight=3)
        assert normalize_source_weights(D) == D

    def test_isolated_vertex_not_a_source(self):
        D = WeightedDigraph([("a", 7), ("b", 1), ("c", 2)], [("b", "c")])
        N = normalize_source_weights(D)
        assert N.weight("a") == 7

    def test_idempotent(self):
        D = WeightedDigraph([("a", 5), ("b", 2)], [("a", "b")])
        N = normalize_source_weights(D)
        assert normalize_source_weights(N) == N

    def test_edge_ideal_ignores_source_weights(self):
        D = WeightedDigraph([("a", 5), ("b", 2)], [("a", "b")])
        assert set(edge_ideal(D).generators) == set(edge_ideal(normalize_source_weights(D)).generators)


class TestEdgeIdeal:
    def test_weighted_cycle(self):
        D = FIXTURES["2.9"].graph
        assert set(edge_ideal(D).generators) == set(
            parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)").generators
        )

    def test_single_edge_weight_one(self):
        D = WeightedDigraph([("a", 1), ("b", 1)], [("a", "b")])
        assert str(edge_ideal(D)) == "(a*b)"

    def test_counterexample_fixture_ideal(self):
        D = FIXTURES["3.4"].graph
        expected = parse_ideal(
            "(x1*x2^2, x2*x3^2, x3*x4^2, x4*x5^2, x5*x1^2, x1*x6, x6*x7, x7*x8^2)"
        )
        assert set(edge_ideal(D).generators) == set(expected.generators)

    def test_empty_edges_warns_and_returns_zero(self):
        D = WeightedDigraph([("a", 1)], [])
        with pytest.warns(UserWarning, match="no edges"):
            assert edge_ideal(D).is_zero()

    def test_generator_count_equals_edge_count(self):
        for seed in range(5):
            D = random_instance(GraphClassTag.ROOTED_FOREST, extra_vertices=7, seed=seed)
            assert len(edge_ideal(D).generators) == len(D.edges)

    def test_delete_edge_removes_exactly_one_generator(self):
        D = FIXTURES["2.9"].graph
        e = D.edges[0]
        full = set(edge_ideal(D).generators)
        reduced = set(edge_ideal(delete_edge(D, e)).generators)
        assert reduced < full and len(full - reduced) == 1


class TestClassify:
    def test_directed_path_is_rooted_forest(self):
        D = WeightedDigraph([("a", 1), ("b", 2), ("c", 2)], [("a", "b"), ("b", "c")])
        cls = classify(D)
        assert cls.tag is GraphClassTag.ROOTED_FOREST
        assert cls.witness == ("a",)

    def test_cycle_is_oriented_cycle(self):
        cls = classify(cycle_graph(5))
        assert cls.tag is GraphClassTag.ORIENTED_CYCLE
        assert set(cls.witness) == {f"x{i}" for i in range(1, 6)}

    def test_attached_tail_is_unicyclic_attached(self):
        cls = classify(FIXTURES["3.4"].graph)
        assert cls.tag is GraphClassTag.UNICYCLIC_ATTACHED

    def test_against_cycle_orientation_is_other(self):
        assert classify(FIXTURES["3.6"].graph).tag is GraphClassTag.OTHER
        assert classify(FIXTURES["3.7"].graph).tag is GraphClassTag.OTHER

    def test_inward_tree_edge_is_other(self):
        D = WeightedDigraph([("a", 1), ("b", 2), ("c", 2)], [("a", "b"), ("c", "b")])
        assert classify(D).tag is GraphClassTag.OTHER

    def test_mixed_components_are_unicyclic_general(self):
        D = WeightedDigraph(
            [("x1", 2), ("x2", 2), ("x3", 2), ("a", 1), ("b", 2)],
            [("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("a", "b")],
        )
        assert classify(D).tag is GraphClassTag.UNICYCLIC_GENERAL

    def test_two_cycles_in_one_component_is_other(self):
        D = WeightedDigraph(
            [("a", 2), ("b", 2), ("c", 2), ("d", 2)],
            [("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"), ("d", "c")],
        )
        assert classify(D).tag is GraphClassTag.OTHER


class TestHypotheses:
    def test_counterexample_violations(self):
        D = FIXTURES["3.4"].graph
        assert set(check_hypotheses(D)) == {"x6", "x7"}

    def test_cycle_all_weight_two_satisfied(self):
        D = cycle_graph(3)
        assert check_hypotheses(D) == ()

    def test_cycle_weight_one_flagged(self):
        D = cycle_graph(3)
        D = WeightedDigraph([("x1", 1)] + list(D.vertices[1:]), D.edges)
        assert check_hypotheses(D) == ("x1",)

    def test_single_edge_satisfied(self):
        D = WeightedDigraph([("a", 1), ("b", 3)], [("a", "b")])
        assert check_hypotheses(D) == ()

    def test_star_root_source_exempt(self):
        D = WeightedDigraph(
            [("r", 1), ("y1", 2), ("y2", 2)], [("r", "y1"), ("r", "y2")]
        )
        assert check_hypotheses(D) == ()

    @pytest.mark.parametrize("edges,violations", [
        ([("a", "c")], ()),  # b isolated
        ([("a", "b")], ()),  # b a leaf
        ([("a", "b"), ("b", "c")], ("b",)),  # b of degree 2
    ], ids=["degree-0", "degree-1", "degree-2"])
    def test_weight_one_non_source_flagged_from_degree_two(self, edges, violations):
        D = WeightedDigraph([("a", 1), ("b", 1), ("c", 2)], edges)
        assert check_hypotheses(D) == violations


@st.composite
def oriented_graphs(draw):
    """Weighted oriented graphs on 1-8 vertices with weights 1..3, declared
    in a random order.  A third are any shape (each vertex pair: no edge or
    either orientation).  In the rest each vertex draws at most one
    predecessor, which gives forests, cycles and unicyclic graphs, often
    disconnected and with isolated vertices; half of these start from a
    directed cycle through some of the vertices, and half have one edge
    turned round."""
    n = draw(st.integers(1, 8))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "predecessors", "cycle"]))
    if shape == "any":
        pairs = list(combinations(names, 2))
        turns = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
        edges = [(a, b) if t == 1 else (b, a) for (a, b), t in zip(pairs, turns) if t]
    else:
        edges, rest = [], names
        if shape == "cycle" and n >= 3:
            order = draw(st.permutations(names))
            k = draw(st.integers(3, n))
            edges = list(zip(order[:k], order[1:k] + order[:1]))
            rest = order[k:]
        for v in rest:
            u = draw(st.sampled_from(names + [None]))
            if u not in (None, v) and (v, u) not in edges:
                edges.append((u, v))
        if edges and draw(st.booleans()):
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = edges[i][::-1]  # a near miss: one vertex with in-degree 0, one with 2
    edges = draw(st.permutations(edges))
    return WeightedDigraph(list(zip(names, weights)), edges)


def reference_components(D):
    """Vertex lists of the connected components, each in declaration
    order, ordered by their first-declared vertex."""
    names = D.vertex_names()
    adjacent = {n: set() for n in names}
    for t, h in D.edges:
        adjacent[t].add(h)
        adjacent[h].add(t)
    comps, placed = [], set()
    for n in names:
        if n in placed:
            continue
        reach, stack = {n}, [n]
        while stack:
            for y in adjacent[stack.pop()] - reach:
                reach.add(y)
                stack.append(y)
        placed |= reach
        comps.append([x for x in names if x in reach])
    return comps


def is_directed_cycle(D, seq):
    return len(set(seq)) == len(seq) >= 3 and all(
        (a, b) in D.edges for a, b in zip(seq, seq[1:] + seq[:1])
    )


class TestClassifyProperties:
    """``classify`` and ``check_hypotheses`` against their definitions."""

    @given(oriented_graphs())
    def test_classify_matches_the_class_definitions(self, D):
        names = D.vertex_names()
        indeg = {n: sum(h == n for _, h in D.edges) for n in names}
        outdeg = {n: sum(t == n for t, _ in D.edges) for n in names}
        comps = reference_components(D)

        def edge_count(comp):
            return sum(t in comp for t, _ in D.edges)

        def rooted_tree(comp):
            return edge_count(comp) == len(comp) - 1 and all(indeg[n] <= 1 for n in comp)

        def cyclic(comp):
            return edge_count(comp) == len(comp) and all(indeg[n] == 1 for n in comp)

        cls = classify(D)
        connected = len(comps) == 1
        is_cycle = connected and all(indeg[n] == outdeg[n] == 1 for n in names)
        assert (cls.tag is GraphClassTag.ORIENTED_CYCLE) == is_cycle
        assert (cls.tag is GraphClassTag.UNICYCLIC_ATTACHED) == (
            connected and cyclic(names) and not is_cycle
        )
        assert (cls.tag is GraphClassTag.ROOTED_FOREST) == all(map(rooted_tree, comps))
        assert (cls.tag is GraphClassTag.UNICYCLIC_GENERAL) == (
            len(comps) >= 2
            and all(rooted_tree(c) or cyclic(c) for c in comps)
            and any(map(cyclic, comps))
        )
        if cls.tag is GraphClassTag.ROOTED_FOREST:
            assert cls.witness == tuple(
                next(n for n in comp if indeg[n] == 0) for comp in comps
            )
        elif cls.tag in (GraphClassTag.ORIENTED_CYCLE, GraphClassTag.UNICYCLIC_ATTACHED):
            cycle = list(cls.witness)
            assert is_directed_cycle(D, cycle)
            assert cycle[0] == min(cycle, key=names.index)
            if is_cycle:
                assert len(cycle) == len(names)
            else:
                assert len(cycle) < len(names)
        else:
            assert cls.witness == ()

    @given(oriented_graphs(), st.randoms(use_true_random=False))
    def test_classify_ignores_declaration_order(self, D, rnd):
        vertices, edges = list(D.vertices), list(D.edges)
        rnd.shuffle(vertices)
        rnd.shuffle(edges)
        assert classify(WeightedDigraph(vertices, edges)).tag is classify(D).tag

    @given(oriented_graphs())
    def test_check_hypotheses_is_the_papers_weight_rule(self, D):
        # Oriented cycles: w >= 2 at every vertex.  The other classes:
        # w >= 2 at every non-source vertex of degree >= 2.
        names = D.vertex_names()
        heads = {h for _, h in D.edges}
        tails = {t for t, _ in D.edges}
        degree = {n: sum(n in e for e in D.edges) for n in names}
        on_cycle = len(reference_components(D)) == 1 and all(
            sum(h == n for _, h in D.edges) == sum(t == n for t, _ in D.edges) == 1
            for n in names
        )
        source = tails - heads
        assert check_hypotheses(D) == tuple(
            n
            for n, w in D.vertices
            if w < 2 and (on_cycle or (n not in source and degree[n] > 1))
        )

    @given(oriented_graphs(), st.integers(1, 3))
    def test_an_isolated_vertex_leaves_the_hypotheses_and_predictions_alone(self, D, weight):
        # It carries no generator.  The class may change: a cycle plus an
        # isolated vertex is UnicyclicGeneral.
        assume(D.edges)
        more = WeightedDigraph(D.vertices + (("z", weight),), D.edges)
        assert check_hypotheses(more) == check_hypotheses(D)
        before, after = predict(D), predict(more)
        for field in ("applicable", "reg_pred", "pd_pred", "depth_pred"):
            assert getattr(after, field) == getattr(before, field), field


class TestComponents:
    def test_disjoint_union_splits(self):
        D = WeightedDigraph(
            [("x1", 2), ("x2", 2), ("x3", 2), ("a", 1), ("b", 2)],
            [("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("a", "b")],
        )
        comps = components(D)
        assert len(comps) == 2
        assert {len(c.vertices) for c in comps} == {3, 2}

    def test_connected_graph_is_one_component(self):
        D = cycle_graph(4)
        assert components(D) == [D]
        assert components(D)[0] is D  # the graph itself, not a copy

    def test_empty_graph(self):
        assert components(WeightedDigraph([], [])) == []


class TestDeletions:
    def test_cycle_minus_edge_is_rooted_path(self):
        D = cycle_graph(4)
        e = D.edges[-1]
        cls = classify(delete_edge(D, e))
        assert cls.tag is GraphClassTag.ROOTED_FOREST

    def test_delete_cycle_vertex_leaves_forest(self):
        D = FIXTURES["3.4"].graph
        cls = classify(delete_vertex(D, "x2"))
        assert cls.tag is GraphClassTag.ROOTED_FOREST


class TestRandomInstances:
    @pytest.mark.parametrize("tag,kwargs", [
        (GraphClassTag.ROOTED_FOREST, dict(extra_vertices=6)),
        (GraphClassTag.ORIENTED_CYCLE, dict(cycle_len=4)),
        (GraphClassTag.UNICYCLIC_ATTACHED, dict(cycle_len=3, extra_vertices=3)),
        (GraphClassTag.UNICYCLIC_GENERAL, dict(cycle_len=3, extra_vertices=4)),
    ])
    def test_classifies_as_requested(self, tag, kwargs):
        for seed in range(8):
            D = random_instance(tag, weight_range=(2, 4), seed=seed, **kwargs)
            assert classify(D).tag is tag
            assert check_hypotheses(D) == ()

    def test_unicyclic_edge_count(self):
        D = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=3, extra_vertices=3, seed=9)
        assert len(D.edges) == len(D.vertices)

    def test_forest_edge_count(self):
        D = random_instance(GraphClassTag.ROOTED_FOREST, extra_vertices=6, seed=1)
        assert len(D.edges) == len(D.vertices) - len(components(D))

    def test_deterministic_under_seed(self):
        a = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=4, extra_vertices=2, seed=5)
        b = random_instance(GraphClassTag.UNICYCLIC_ATTACHED, cycle_len=4, extra_vertices=2, seed=5)
        assert a == b

    def test_seeds_vary_output(self):
        graphs = {
            random_instance(GraphClassTag.ROOTED_FOREST, extra_vertices=7, seed=s)
            for s in range(6)
        }
        assert len(graphs) > 1

    def test_unsatisfiable_params_rejected(self):
        with pytest.raises(ValueError):
            random_instance(GraphClassTag.ORIENTED_CYCLE, cycle_len=2, seed=0)
        with pytest.raises(ValueError):
            random_instance(GraphClassTag.ROOTED_FOREST, extra_vertices=1, seed=0)
        with pytest.raises(ValueError):
            random_instance(GraphClassTag.OTHER, cycle_len=3, seed=0)
        with pytest.raises(ValueError, match="extra_vertices"):
            random_instance(GraphClassTag.UNICYCLIC_GENERAL, cycle_len=3, extra_vertices=-5, seed=0)


class TestJson:
    def test_round_trip(self):
        D = FIXTURES["3.4"].graph
        again = WeightedDigraph.from_json_dict(json.loads(json.dumps(D.to_json_dict())))
        assert again == D

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            WeightedDigraph.from_json_dict({"vertices": [{"name": "a"}], "edges": []})
