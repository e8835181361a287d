import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import edgeideals.betti as betti_mod
from edgeideals.betti import (
    BettiTable,
    GuardError,
    InvariantSummary,
    betti_table,
    candidate_degrees,
    invariants,
    strand_complex,
)
from edgeideals.fixtures import FIXTURES
from edgeideals.digraphs import edge_ideal, random_instance
from edgeideals.formulas import predict
from edgeideals.monomials import (
    Monomial,
    Variable,
    ideal_sum,
    make_ideal,
    multiply_external,
    parse_ideal,
    parse_monomial,
    polarize,
    thermometer_masks,
)
from edgeideals.simplicial import reduced_homology_ranks
from edgeideals.taylor import euler_characteristic_check, taylor_betti_table

from conftest import random_ideal


class TestCandidateDegrees:
    def test_two_generators(self):
        got = candidate_degrees(parse_ideal("(x1*x2, x2*x3)"))
        assert got == {
            parse_monomial("x1*x2"),
            parse_monomial("x2*x3"),
            parse_monomial("x1*x2*x3"),
        }

    def test_principal(self):
        u = parse_monomial("x1^2*x2")
        assert candidate_degrees(parse_ideal("(x1^2*x2)")) == {u}

    def test_boolean_lattice(self):
        got = candidate_degrees(parse_ideal("(x1, x2, x3)"))
        assert len(got) == 7

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            candidate_degrees(make_ideal([], (Variable("x"),)))


class TestStrandComplex:
    def test_principal_strand_is_only_the_empty_face(self):
        # x^{b-σ} must land in the ideal; for a principal ideal at its own
        # degree no proper quotient does, so only ∅ qualifies.
        C = strand_complex(parse_ideal("(x1*x2)"), parse_monomial("x1*x2"))
        assert C.faces() == {frozenset()}

    def test_two_variables_strand_is_two_points(self):
        C = strand_complex(parse_ideal("(x1, x2)"), parse_monomial("x1*x2"))
        faces = C.faces()
        assert faces == {
            frozenset(),
            frozenset({Variable("x1")}),
            frozenset({Variable("x2")}),
        }

    def test_minimal_generator_strand(self):
        I = parse_ideal("(x1*x2^3, x2*x3^2)")
        C = strand_complex(I, parse_monomial("x1*x2^3"))
        assert C.faces() == {frozenset()}

    def test_downward_closure(self):
        I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4)")
        b = parse_monomial("x1*x2^3*x3^2")
        C = strand_complex(I, b)
        faces = C.faces()
        for face in faces:
            for v in face:
                assert face - {v} in faces

    def test_non_candidate_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            strand_complex(parse_ideal("(x1*x2)"), parse_monomial("x1"))


class TestBettiTable:
    def test_two_generator_taylor_minimal(self):
        t = betti_table(parse_ideal("(x1*x2, x2*x3)"))
        assert t.entries == {(0, 2): 2, (1, 3): 1}

    def test_principal_is_free(self):
        t = betti_table(parse_ideal("(x1*x2^2)"))
        assert t.entries == {(0, 3): 1}

    def test_weighted_four_cycle(self):
        t = betti_table(parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)"))
        assert t.reg() == 11
        assert t.pd() == 3
        # full table, cross-checked against the Taylor oracle
        assert t.entries == {
            (0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 1,
            (1, 6): 1, (1, 7): 1, (1, 9): 3, (1, 10): 1,
            (2, 10): 1, (2, 11): 1, (2, 12): 1, (2, 13): 1,
            (3, 14): 1,
        }

    def test_koszul_three_variables(self):
        t = betti_table(parse_ideal("(x1, x2, x3)"))
        assert t.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}

    def test_zero_ideal_gives_empty_table(self):
        t = betti_table(make_ideal([], (Variable("x"),)))
        assert t.is_empty()

    def test_row_zero_counts_generators_by_degree(self):
        I = parse_ideal("(x1*x2^2, x2*x3, x1^2*x3)")
        t = betti_table(I)
        row0 = {j: c for (i, j), c in t.entries.items() if i == 0}
        assert row0 == {2: 1, 3: 2}


class TestInvariants:
    def test_counterexample_values(self):
        assert_values = {
            "3.4": (8, 6),
            "3.6": (9, 3),
            "3.7": (11, 6),
        }
        s = invariants(edge_ideal(FIXTURES["3.6"].graph))
        assert (s.reg, s.pd) == assert_values["3.6"]

    def test_depth_via_auslander_buchsbaum(self):
        I = parse_ideal("(x1*x2, x2*x3)")
        s = invariants(I)
        assert s.ambient_variable_count == 3
        assert s.depth_of_quotient == 3 - (s.pd + 1)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            invariants(make_ideal([], (Variable("x"),)))


class TestGuards:
    def test_generator_guard_env_override(self, monkeypatch):
        I = parse_ideal("(x1, x2, x3)")
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "2")
        with pytest.raises(GuardError, match="guard"):
            betti_table(I)
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "3")
        assert betti_table(I).pd() == 2

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "many")
        with pytest.raises(ValueError):
            betti_table(parse_ideal("(x1)"))


class TestConventionTranslation:
    def test_quotient_shift(self):
        t = betti_table(parse_ideal("(x1*x2, x2*x3)"))
        q = t.to_quotient()
        assert q[(0, 0)] == 1
        for (i, j), c in t.entries.items():
            assert q[(i + 1, j)] == c
        assert q.to_ideal() == t

    def test_round_trip_on_random_ideals(self, rng):
        for _ in range(10):
            t = betti_table(random_ideal(rng, max_gens=4, max_exp=3))
            assert t.to_quotient().to_ideal() == t

    def test_reg_pd_shift_between_conventions(self):
        t = betti_table(parse_ideal("(x1*x2^2, x2*x3)"))
        q = t.to_quotient()
        assert q.reg() == t.reg() - 1
        assert q.pd() == t.pd() + 1


class TestStructuralIdentities:
    def test_disjoint_variable_additivity(self, rng):
        # reg(I+J) = reg(I) + reg(J) - 1 and pd(I+J) = pd(I) + pd(J) + 1
        for _ in range(6):
            I = random_ideal(rng, n_vars=2, max_gens=3, max_exp=3, prefix="a")
            J = random_ideal(rng, n_vars=2, max_gens=3, max_exp=3, prefix="b")
            S = ideal_sum(I, J)
            ti, tj, ts = betti_table(I), betti_table(J), betti_table(S)
            assert ts.reg() == ti.reg() + tj.reg() - 1
            assert ts.pd() == ti.pd() + tj.pd() + 1

    def test_external_monomial_factor(self, rng):
        # reg(uI) = reg(I) + deg u, pd(uI) = pd(I); reg((u)) = deg u
        for _ in range(6):
            I = random_ideal(rng, n_vars=3, max_gens=4, max_exp=3)
            deg = rng.randint(1, 4)
            u = Monomial({Variable("w"): deg})
            UI = multiply_external(u, I)
            ti, tu = betti_table(I), betti_table(UI)
            assert tu.reg() == ti.reg() + deg
            assert tu.pd() == ti.pd()
            assert betti_table(make_ideal([u], (Variable("w"),))).reg() == deg

    def test_polarization_invariance(self, rng):
        for _ in range(8):
            I = random_ideal(rng, max_gens=5, max_exp=3)
            assert betti_table(I).entries == betti_table(polarize(I)).entries

    def test_dual_engine_agreement(self, rng):
        for _ in range(8):
            I = random_ideal(rng, max_gens=5, max_exp=3)
            assert betti_table(I).entries == taylor_betti_table(I).entries


class TestEulerCheck:
    def test_passes_on_engine_tables(self, rng):
        for _ in range(5):
            I = random_ideal(rng, max_gens=5, max_exp=3)
            check = euler_characteristic_check(I, betti_table(I))
            assert check.ok and not check.mismatches()

    def test_detects_corruption(self):
        I = parse_ideal("(x1*x2, x2*x3)")
        t = betti_table(I)
        wrong = dict(t.entries)
        wrong[(1, 3)] = 2
        check = euler_characteristic_check(I, BettiTable("of_ideal", wrong))
        assert not check.ok
        assert 3 in check.mismatches()


class TestRendering:
    def test_grid_contains_totals_and_dots(self):
        grid = betti_table(parse_ideal("(x1*x2^2, x2*x3, x1*x3^3)")).render_grid()
        assert "total:" in grid
        assert "." in grid

    def test_json_map_keys(self):
        t = betti_table(parse_ideal("(x1*x2, x2*x3)"))
        assert t.to_json_map() == {"0,2": 2, "1,3": 1}

    def test_empty_table_renders(self):
        assert "empty" in BettiTable("of_ideal", {}).render_grid()


AMBIENT5 = tuple(Variable(f"x{i}") for i in range(1, 6))


@st.composite
def small_ideals(draw):
    """Up to ten generators of degree d..d+2 over five variables.

    Close degrees keep most of the drawn generators minimal."""
    degree, count = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    picks = st.lists(st.integers(0, len(AMBIENT5) - 1), min_size=degree, max_size=degree + 2)
    monomials = picks.map(lambda p: Monomial({v: p.count(k) for k, v in enumerate(AMBIENT5)}))
    return make_ideal(draw(st.lists(monomials, min_size=count, max_size=count, unique=True)), AMBIENT5)


def oriented_cycle_ideal(m, seed=1):
    return edge_ideal(random_instance("OrientedCycle", cycle_len=m, weight_range=(2, 3), seed=seed))


def brute_force_classes(masks):
    """lcm mask -> (union of the subsets with that lcm, whether there is only one)."""
    by_lcm = {}
    for r in range(1, len(masks) + 1):
        for subset in combinations(range(len(masks)), r):
            lcm = 0
            for i in subset:
                lcm |= masks[i]
            by_lcm.setdefault(lcm, []).append(sum(1 << i for i in subset))
    out = {}
    for lcm, subsets in by_lcm.items():
        union = 0
        for s in subsets:
            union |= s
        out[lcm] = (union, len(subsets) == 1)
    return out


class TestLcmClasses:
    @given(small_ideals())
    def test_enumeration_matches_brute_force(self, I):
        masks, _ = thermometer_masks(betti_mod._vectorize(I)[1])
        got = [(lcm, (U, single)) for U, lcm, single in betti_mod._lcm_classes(masks)]
        assert len(got) == len(dict(got))  # each lcm class exactly once
        assert dict(got) == brute_force_classes(masks)

    @given(small_ideals())
    def test_engine_matches_taylor_oracle(self, I):
        assert betti_table(I) == taylor_betti_table(I)

    def test_every_class_matches_literal_strands(self, rng):
        # the nerve path of the engine against literal face enumeration
        ideals = [edge_ideal(f.graph) for f in FIXTURES.values()]
        ideals += [random_ideal(rng, max_gens=6, max_exp=3) for _ in range(10)]
        singles = shared = 0
        for I in ideals:
            sup, gen_vecs = betti_mod._vectorize(I)
            masks, slots = thermometer_masks(gen_vecs)
            for U, lcm, single in betti_mod._lcm_classes(masks):
                bvec = betti_mod._exponents(lcm, slots)
                b = Monomial(dict(zip(sup, bvec)))
                ranks = {d: r for d, r in reduced_homology_ranks(strand_complex(I, b)) if r}
                assert betti_mod._strand_homology(betti_mod._strand_facets(gen_vecs, bvec)[1]) == ranks
                if single:
                    assert ranks == {U.bit_count() - 2: 1}
                    singles += 1
                else:
                    shared += 1
        assert singles > 100
        assert shared > 10

    def test_strand_homology_of_void_and_irrelevant_complexes(self):
        assert betti_mod._strand_homology([]) == {}
        assert betti_mod._strand_homology([0]) == {-1: 1}

    @pytest.mark.parametrize("m", [6, 12])
    def test_cross_check_catches_a_wrong_shortcut(self, monkeypatch, m):
        # every single-cell class is checked up to FULL_CHECK_LIMIT
        # generators, a sample of them above
        assert (m <= betti_mod.FULL_CHECK_LIMIT) == (m == 6)
        monkeypatch.setattr(betti_mod, "_single_cell_homology", lambda size: {size - 2: 2})
        with pytest.raises(AssertionError, match="single-cell class"):
            betti_table(oriented_cycle_ideal(m))

    def test_memory_stays_small_on_a_sixteen_cycle(self):
        I = oriented_cycle_ideal(16)
        tracemalloc.start()
        try:
            table = betti_table(I)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.pd() == 15
        assert peak < 2 * 2**20

    def test_ground_guard_refuses_before_enumerating(self, monkeypatch):
        ambient = tuple(Variable(f"x{i}") for i in range(1, 26))
        gens = [Monomial({v: 1 for v in ambient[k:k + 5]}) for k in range(0, 25, 5)]
        walked = []
        monkeypatch.setattr(betti_mod, "_lcm_classes", lambda masks: walked.append(masks) or iter(()))
        with pytest.raises(GuardError, match="strand ground set has 25 variables"):
            betti_table(make_ideal(gens, ambient))
        assert not walked

    def test_invariants_reuse_a_given_table(self, monkeypatch):
        I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)")
        table = betti_table(I)
        monkeypatch.setattr(betti_mod, "betti_table", None)
        assert invariants(I, table) == InvariantSummary(11, 3, 0, 4)


class TestEngineAgainstOracleAtFullCheckSizes:
    """Every single-cell class is cross-checked here (m <= FULL_CHECK_LIMIT)."""

    @pytest.mark.parametrize(
        "tag, cycle_len, extra",
        [
            ("OrientedCycle", 9, 0),
            ("OrientedCycle", 10, 0),
            ("UnicyclicAttached", 5, 4),
            ("UnicyclicAttached", 6, 4),
        ],
        ids=["cycle-9", "cycle-10", "attached-5+4", "attached-6+4"],
    )
    def test_engine_matches_taylor_and_closed_form(self, tag, cycle_len, extra):
        D = random_instance(tag, cycle_len=cycle_len, extra_vertices=extra, weight_range=(2, 3), seed=1)
        I = edge_ideal(D)
        assert len(I.generators) <= betti_mod.FULL_CHECK_LIMIT
        table = betti_table(I)
        assert table == taylor_betti_table(I)
        p = predict(D)
        summary = invariants(I, table)
        assert p.applicable
        assert (summary.reg, summary.pd) == (p.reg_pred, p.pd_pred)
