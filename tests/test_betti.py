import random
import time
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import edgeideals.betti as betti_mod
import edgeideals.simplicial as simplicial_mod
import edgeideals.taylor as taylor_mod
from edgeideals.betti import (
    BettiTable,
    GuardError,
    InvariantSummary,
    betti_table,
    candidate_degrees,
    invariants,
)
from edgeideals.fixtures import FIXTURES
from edgeideals.digraphs import edge_ideal, random_instance
from edgeideals.formulas import VERDICT_PASS, predict, verify_formula
from edgeideals.monomials import (
    Monomial,
    Variable,
    exponent_vectors,
    make_ideal,
    parse_ideal,
    parse_monomial,
    polarize,
    polarize_monomial,
    subset_counts,
    thermometer_masks,
)
from edgeideals.simplicial import homology_ranks_of_masks, nerve_face_masks
from edgeideals.taylor import TAYLOR_GUARD, euler_characteristic_check, taylor_betti_table

from conftest import (
    GRAPH_CLASSES,
    euler_mismatches,
    ideal_sum,
    multiply_external,
    random_ideal,
    seeded_graph,
)
from test_simplicial import antichain, fraction_rank


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

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4).filter(any), min_size=1, max_size=6))
    def test_lcms_of_every_generator_subset(self, vectors):
        # exponents up to 3, so a class lcm takes several bits of one slot
        I = make_ideal([Monomial(dict(zip(AMBIENT5, vec))) for vec in vectors], AMBIENT5)
        gens = I.generators
        want = {
            reduce(Monomial.lcm, (g for k, g in enumerate(gens) if S >> k & 1))
            for S in range(1, 1 << len(gens))
        }
        assert candidate_degrees(I) == want

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            candidate_degrees(make_ideal([], (Variable("x"),)))


def literal_strand_faces(I, b):
    """The strand complex of I at b, from its definition: the squarefree
    σ ⊆ supp(b), as bitmasks over supp(b) in ambient order, for which some
    generator's exponent tuple is ≤ b - σ."""
    ground = [v for v in I.ambient if b.exponent(v)]
    bvec = [b.exponent(v) for v in ground]
    # a generator below b - σ divides b, so it has no variable off supp(b)
    gens = [[g.exponent(v) for v in ground] for g in I.generators if g.divides(b)]
    faces = set()
    for sigma in range(1 << len(ground)):
        rest = [e - (sigma >> k & 1) for k, e in enumerate(bvec)]
        if any(all(ge <= re for ge, re in zip(g, rest)) for g in gens):
            faces.add(sigma)
    return faces


class TestLiteralStrandFaces:
    def test_principal_strand_is_only_the_empty_face(self):
        # x^{b-σ} must land in the ideal; for a principal ideal at its own
        # degree no proper quotient does, so only ∅ qualifies.
        assert literal_strand_faces(parse_ideal("(x1*x2)"), parse_monomial("x1*x2")) == {0}

    def test_two_variables_strand_is_two_points(self):
        faces = literal_strand_faces(parse_ideal("(x1, x2)"), parse_monomial("x1*x2"))
        assert faces == {0, 0b01, 0b10}
        assert homology_ranks_of_masks(faces) == {0: 1}

    def test_minimal_generator_strand(self):
        I = parse_ideal("(x1*x2^3, x2*x3^2)")
        assert literal_strand_faces(I, parse_monomial("x1*x2^3")) == {0}

    def test_downward_closure(self):
        # the edge x1x2 (b - σ still divisible by x2*x3^2) and the point x3
        # (by x1*x2^3): two components
        I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4)")
        faces = literal_strand_faces(I, parse_monomial("x1*x2^3*x3^2"))
        assert faces == {0, 0b001, 0b010, 0b011, 0b100}
        for face in faces:
            for bit in (1, 2, 4):
                assert face & ~bit in faces
        assert homology_ranks_of_masks(faces) == {0: 1}


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

    def test_one_generator_written_in_two_variable_orders(self):
        # x1 and x01 have equal natural keys; the two spellings are one
        # generator, not two that divide each other and leave (0)
        t = betti_table(parse_ideal("(x1*x01, x01*x1)"))
        assert t.entries == {(0, 2): 1}

    def test_row_zero_counts_generators_by_degree(self):
        I = parse_ideal("(x1*x2^2, x2*x3, x1^2*x3)")
        t = betti_table(I)
        row0 = {j: c for (i, j), c in t.entries.items() if i == 0}
        assert row0 == {2: 1, 3: 2}


class TestSelfChecks:
    """A corrupted splitting or corrupted subset counts on a split ideal
    must trip the engine's own assertions, each with its message."""

    @staticmethod
    def _corrupt_counts(monkeypatch, corrupt):
        def wrapped(masks):
            T = subset_counts(masks)
            corrupt(T, masks)
            return T

        monkeypatch.setattr(betti_mod, "subset_counts", wrapped)

    def test_row_zero_mismatch_is_caught(self, monkeypatch):
        # a peel that drops its e_{0, deg g} term: g leaves row 0 (and the
        # Euler sum at its degree), and row 0 is checked first
        peel, peeled = betti_mod._peel, []

        def without_generator(rest, degree, colon):
            out = peel(rest, degree, colon)
            peeled.append(degree)
            out[0, degree] -= 1
            return out

        monkeypatch.setattr(betti_mod, "_peel", without_generator)
        with pytest.raises(AssertionError, match="row 0"):
            betti_table(edge_ideal(FIXTURES["3.4"].graph))
        assert peeled

    def test_sampled_cell_without_a_count_is_caught(self, monkeypatch):
        def corrupt(T, masks):
            # a split table does not read the counts, so row 0 passes even
            # without the count of a sampled single generator
            size, lcm = next((size, lcm) for size, lcm, _ in betti_mod._sample(masks) if size == 1)
            del T[size, lcm.bit_count()]

        self._corrupt_counts(monkeypatch, corrupt)
        with pytest.raises(AssertionError, match="has no count at its lcm degree"):
            betti_table(edge_ideal(FIXTURES["3.4"].graph))


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
        assert s.depth_of_quotient == 3 - (s.pd + 1)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            invariants(make_ideal([], (Variable("x"),)))


class TestGuards:
    def test_generator_guard_env_override(self, monkeypatch):
        # The refusal comes before any enumeration: neither the subset
        # counts nor the class walk runs on a refused ideal.
        I = parse_ideal("(x1, x2, x3)")
        enumerated = []

        def recording(name):
            real = getattr(betti_mod, name)
            return lambda masks: enumerated.append(name) or real(masks)

        for name in ("subset_counts", "_lcm_classes"):
            monkeypatch.setattr(betti_mod, name, recording(name))
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "2")
        with pytest.raises(GuardError, match="guard"):
            betti_table(I)
        assert not enumerated
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "3")
        assert betti_table(I).pd() == 2
        assert "subset_counts" in enumerated

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "many")
        with pytest.raises(ValueError):
            betti_table(parse_ideal("(x1)"))

    def test_oracle_refuses_with_guard_error_before_enumerating(self, monkeypatch):
        I = parse_ideal("(" + ", ".join(f"x{i}" for i in range(1, TAYLOR_GUARD + 2)) + ")")
        assert len(I.generators) == TAYLOR_GUARD + 1
        listed = []
        monkeypatch.setattr(taylor_mod, "_subset_lcms", lambda I: listed.append(I))
        with pytest.raises(GuardError, match=f"refusing beyond 2\\^{TAYLOR_GUARD}"):
            taylor_betti_table(I)
        assert not listed


class TestConventionTranslation:
    def test_quotient_shift(self):
        t = betti_table(parse_ideal("(x1*x2, x2*x3)"))
        q = t.to_quotient()
        assert q[(0, 0)] == 1
        for (i, j), c in t.entries.items():
            assert q[(i + 1, j)] == c

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
        # Five of these eight polarizations have more than 24 variables
        # (one per mask bit); the engine answers them as it answers I.
        for _ in range(8):
            I = random_ideal(rng, n_vars=8, max_gens=6, max_exp=5)
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
            assert check.ok and not euler_mismatches(check)

    def test_zero_ideal_passes(self):
        I = make_ideal([], (Variable("x"),))
        assert euler_characteristic_check(I, betti_table(I)).ok

    def test_detects_corruption(self):
        I = parse_ideal("(x1*x2, x2*x3)")
        t = betti_table(I)
        wrong = dict(t.entries)
        wrong[(1, 3)] = 2
        check = euler_characteristic_check(I, BettiTable("of_ideal", wrong))
        assert not check.ok
        assert 3 in euler_mismatches(check)

    def test_runs_above_the_oracle_guard(self):
        # The subset side is T(-1, u), so 20 generators need no 2^20 walk.
        I = oriented_cycle_ideal(20)
        table = betti_table(I)
        good = euler_characteristic_check(I, table)
        assert good.ok
        j = min(j for i, j in table.entries if i == 1)
        wrong = dict(table.entries)
        wrong[(1, j)] += 1  # quotient row 2: adds 1 to the alternating sum at j
        bad = euler_characteristic_check(I, BettiTable("of_ideal", wrong))
        assert euler_mismatches(bad) == {j: (good.per_degree[j][0] + 1, good.per_degree[j][1])}


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

    def test_grid_lists_only_the_occupied_rows(self):
        # rows 2 and 1,000,001 with a million empty degrees between them
        grid = BettiTable("of_ideal", {(0, 2): 1, (0, 1_000_001): 1, (1, 1_000_002): 1}).render_grid()
        assert grid.splitlines() == [
            "         0 1",
            "  total: 2 1",
            "      2: 1 .",
            "1000001: 1 1",
        ]


FULL_CHECK_LIMIT = betti_mod.FULL_CHECK_LIMIT
AMBIENT5 = tuple(Variable(f"x{i}") for i in range(1, 6))


@st.composite
def small_ideals(draw):
    """Up to ten generators of degree d..d+2 over five variables.

    Close degrees keep most of the drawn generators minimal."""
    degree, count = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    picks = st.lists(st.integers(0, len(AMBIENT5) - 1), min_size=degree, max_size=degree + 2)
    monomials = picks.map(lambda p: Monomial({v: p.count(k) for k, v in enumerate(AMBIENT5)}))
    return make_ideal(draw(st.lists(monomials, min_size=count, max_size=count, unique=True)), AMBIENT5)


@st.composite
def minimal_ideals(draw):
    """Up to ten generators, each a variable of its own (a private bit)
    times a monomial in three shared variables: Taylor-minimal by
    construction."""
    count = draw(st.integers(1, 10))
    own = tuple(Variable(f"x{i}") for i in range(1, count + 1))
    shared = tuple(Variable(f"y{i}") for i in range(1, 4))
    gens = [
        Monomial({v: draw(st.integers(1, 2)), **{y: draw(st.integers(0, 3)) for y in shared}})
        for v in own
    ]
    return make_ideal(gens, own + shared)


@st.composite
def facet_families(draw):
    """Maximalized families of 1-8 facets over at most 9 ground bits:
    the irrelevant complex [0], single facets, and cones, whose facets
    all share a bit."""
    bits = draw(st.integers(0, 9))
    facets = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=8))
    if bits and draw(st.booleans()):
        apex = 1 << draw(st.integers(0, bits - 1))
        facets = [f | apex for f in facets]
    return antichain(facets)


def oriented_cycle_ideal(m, seed=1):
    return edge_ideal(random_instance("OrientedCycle", cycle_len=m, weight_range=(2, 3), seed=seed))


def certified(I):
    """Whether betti_table takes the subset-count path on I."""
    return betti_mod._taylor_minimal(thermometer_masks(exponent_vectors(I)[1]))


def members(U, masks):
    return [mask for k, mask in enumerate(masks) if U >> k & 1]


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
        masks = thermometer_masks(exponent_vectors(I)[1])
        got = [
            (lcm, (U, betti_mod._taylor_minimal(members(U, masks))))
            for U, lcm in betti_mod._lcm_classes(masks)
        ]
        assert len(got) == len(dict(got))  # each lcm class exactly once
        assert dict(got) == brute_force_classes(masks)

    @given(minimal_ideals())
    def test_classes_of_a_minimal_ideal_are_its_subset_counts(self, I):
        # Why a Taylor-minimal ideal needs no walk: every class is a single
        # cell, so the classes counted by (|U|, degree) are the subset counts.
        masks = thermometer_masks(exponent_vectors(I)[1])
        assert certified(I) and len(masks) <= 10
        classes = list(betti_mod._lcm_classes(masks))
        assert all(betti_mod._taylor_minimal(members(U, masks)) for U, _ in classes)
        counts = subset_counts(masks)
        del counts[0, 0]
        assert Counter((U.bit_count(), lcm.bit_count()) for U, lcm in classes) == counts

    @given(small_ideals())
    def test_taylor_cells_are_the_subsets_with_the_class_lcm(self, I):
        masks = thermometer_masks(exponent_vectors(I)[1])
        for U, lcm in betti_mod._lcm_classes(masks):
            group = members(U, masks)
            want = set()
            for S in range(1, 1 << len(group)):
                covered = 0
                for p, mask in enumerate(group):
                    if S >> p & 1:
                        covered |= mask
                if covered == lcm:
                    want.add(S)
            cells = betti_mod._taylor_cells(group, lcm)
            assert len(cells) == len(want) and set(cells) == want

    @given(small_ideals())
    def test_class_ranks_are_the_brute_force_strand_homology(self, I):
        # single classes, cones and ranked cores alike: every subset of U
        # with lcm U, ranked as the simplex on U relative to smaller lcms;
        # one memo of core ranks serves all the classes, as in a walk
        masks = thermometer_masks(exponent_vectors(I)[1])
        ranked = {}
        for U, lcm in betti_mod._lcm_classes(masks):
            group = members(U, masks)
            cells = [
                S for S in range(1, 1 << len(group))
                if reduce(or_, (mask for p, mask in enumerate(group) if S >> p & 1)) == lcm
            ]
            assert betti_mod._class_ranks(group, lcm, ranked) == homology_ranks_of_masks(cells)

    @given(small_ideals())
    def test_engine_matches_taylor_oracle(self, I):
        assert betti_table(I) == taylor_betti_table(I)

    def test_every_class_matches_literal_strands(self, rng):
        # the nerve path of the engine against the strand's definition
        # (literal_strand_faces), on I and, where its strand has at most
        # 2^10 faces, on its polarization, whose strands the facets are
        # read from
        ideals = [edge_ideal(f.graph) for f in FIXTURES.values()]
        ideals += [random_ideal(rng, max_gens=6, max_exp=3) for _ in range(10)]
        singles = cones = cores = polarized = 0
        for I in ideals:
            masks = thermometer_masks(exponent_vectors(I)[1])
            for U, lcm in betti_mod._lcm_classes(masks):
                b = reduce(Monomial.lcm, (g for k, g in enumerate(I.generators) if U >> k & 1))
                ranks = homology_ranks_of_masks(literal_strand_faces(I, b))
                if lcm.bit_count() <= 10:
                    strand = literal_strand_faces(polarize(I), polarize_monomial(b))
                    assert homology_ranks_of_masks(strand) == ranks
                    polarized += 1
                assert betti_mod._strand_homology(betti_mod._strand_facets(masks, lcm)) == ranks
                # the class read off its core, in the table's index i = d + 1
                group = members(U, masks)
                assert betti_mod._class_ranks(group, lcm, {}) == {d + 1: r for d, r in ranks.items()}
                private = betti_mod._private_bits(group)
                forced = [mask for mask in group if mask & private]
                covered = reduce(or_, forced, 0)
                if len(forced) == len(group):
                    assert ranks == {U.bit_count() - 2: 1}
                    singles += 1
                elif any(mask | covered == covered for mask in group if mask not in forced):
                    assert not ranks
                    cones += 1
                else:
                    cores += 1
        assert singles > 100
        assert cones > 10
        assert cores > 5
        assert polarized > 250

    def test_strand_homology_of_the_irrelevant_complex(self):
        # a lone generator is its lcm: one empty facet, whose union is {∅}
        assert betti_mod._strand_homology([0]) == {-1: 1}

    @given(facet_families())
    def test_strand_homology_relative_to_a_star_is_the_full_nerve(self, facets):
        full = homology_ranks_of_masks(nerve_face_masks(facets))
        assert betti_mod._strand_homology(facets) == full

    def test_sampled_single_classes_rank_one_cell_each(self, monkeypatch):
        # A single class of s members has the boundary of an (s-1)-simplex
        # as its nerve; outside the star of one vertex only the opposite
        # facet is left, and it is the one face listed, where the deletion
        # of that vertex has 2^(s-1) and the whole nerve 2^s - 1.  Each
        # distinct sampled lcm is listed once.
        I = oriented_cycle_ideal(10)
        assert certified(I)
        sizes, listed = [], []

        def counted(faces):
            sizes.append(len(faces))
            return homology_ranks_of_masks(faces)

        def nerve(facets, outside):
            faces = nerve_face_masks(facets, outside)
            listed.append(len(faces))
            return faces

        monkeypatch.setattr(betti_mod, "homology_ranks_of_masks", counted)
        monkeypatch.setattr(betti_mod, "nerve_face_masks", nerve)
        betti_table(I)
        masks = thermometer_masks(exponent_vectors(I)[1])
        distinct = {lcm: size for size, lcm, _ in betti_mod._sample(masks)}
        assert max(distinct.values()) > 2
        assert sizes == [1] * len(distinct)
        assert listed == [1] * len(distinct)

    def test_each_distinct_sampled_lcm_is_ranked_once(self, monkeypatch):
        # Four generators have 15 nonempty subsets, so 16 draws repeat an
        # lcm.  One lcm has one set of facets and one homology: the nerve
        # is ranked once per distinct lcm, and every draw is still compared.
        I = oriented_cycle_ideal(4)
        masks = thermometer_masks(exponent_vectors(I)[1])
        drawn = [lcm for _, lcm, _ in betti_mod._sample(masks)]
        assert len(set(drawn)) < len(drawn) == betti_mod.SAMPLE_CHECKS
        strand_homology, ranked = betti_mod._strand_homology, []

        def counted(facets):
            ranked.append(facets)
            return strand_homology(facets)

        monkeypatch.setattr(betti_mod, "_strand_homology", counted)
        betti_table(I)
        want = list({lcm: betti_mod._strand_facets(masks, lcm) for lcm in drawn}.values())
        assert ranked == want

    def test_each_sampled_strand_is_built_once(self, monkeypatch):
        # The sample keeps each draw's facets for the nerve check, so the
        # facets are built once per draw, not again for the check.
        I = oriented_cycle_ideal(10)
        masks = thermometer_masks(exponent_vectors(I)[1])
        sample = betti_mod._sample(masks)
        assert all(f == betti_mod._strand_facets(masks, lcm) for _, lcm, f in sample)
        strand_facets, built = betti_mod._strand_facets, []

        def facets(masks, lcm):
            built.append(lcm)
            return strand_facets(masks, lcm)

        monkeypatch.setattr(betti_mod, "_strand_facets", facets)
        betti_table(I)
        assert len(built) == betti_mod.SAMPLE_CHECKS
        assert built == [lcm for _, lcm, _ in sample]

    @pytest.mark.parametrize("source", [4, 6, 12, "3.4"], ids=["4-repeated-draws", "6", "12", "3.4-walk"])
    def test_sample_catches_a_nerve_that_disagrees_with_the_table(self, monkeypatch, source):
        # Minimal or split, every table sends a fixed-seed sample of subsets
        # through the nerve path at every size; with four generators the
        # draws repeat lcms, and the doubled ranks are still caught.
        I = edge_ideal(FIXTURES[source].graph) if source == "3.4" else oriented_cycle_ideal(source)
        assert certified(I) == (source != "3.4")
        strand_homology = betti_mod._strand_homology
        monkeypatch.setattr(
            betti_mod, "_strand_homology", lambda facets: {d: 2 * r for d, r in strand_homology(facets).items()}
        )
        with pytest.raises(AssertionError, match="the nerve gives"):
            betti_table(I)

    def test_sample_redraws_a_class_too_big_for_the_nerve(self):
        # In K5 a subset's lcm class holds every edge among the vertices it
        # covers, so a draw covering all five vertices (a class of ten) is
        # redrawn smaller.
        I = parse_ideal("(" + ", ".join(f"x{a}*x{b}" for a, b in combinations(range(1, 6), 2)) + ")")
        masks = thermometer_masks(exponent_vectors(I)[1])
        sample = betti_mod._sample(masks)
        assert len(sample) == betti_mod.SAMPLE_CHECKS
        sizes = [sum(g | lcm == lcm for g in masks) for _, lcm, _ in sample]
        assert max(sizes) <= betti_mod.SAMPLE_MAX_SIZE < len(masks)
        assert sample == betti_mod._sample(masks)
        assert betti_table(I).entries == {(0, 2): 10, (1, 3): 20, (2, 4): 15, (3, 5): 4}

    def test_draws_are_a_fixed_seed_sequence_per_generator_count(self):
        for m in range(1, 21):
            rng = random.Random(0)
            want = []
            for _ in range(betti_mod.SAMPLE_CHECKS):
                want.append(tuple(rng.sample(range(m), rng.randint(1, min(m, betti_mod.SAMPLE_MAX_SIZE)))))
            assert betti_mod._draws(m) == tuple(want)
        assert betti_mod._draws.cache_info().maxsize is not None

    def test_a_shrunk_draw_is_its_longest_prefix_that_fits(self):
        # In K5 a draw covering all five vertices has a class of ten; it
        # keeps the longest prefix of its draw whose class fits.
        I = parse_ideal("(" + ", ".join(f"x{a}*x{b}" for a, b in combinations(range(1, 6), 2)) + ")")
        masks = thermometer_masks(exponent_vectors(I)[1])

        def lcm_of(indices):
            return reduce(int.__or__, (masks[i] for i in indices), 0)

        shrunk = 0
        for draw, (size, lcm, facets) in zip(betti_mod._draws(len(masks)), betti_mod._sample(masks)):
            assert lcm == lcm_of(draw[:size])
            assert facets == betti_mod._strand_facets(masks, lcm)
            assert len(facets) <= betti_mod.SAMPLE_MAX_SIZE
            for longer in range(size + 1, len(draw) + 1):
                assert len(betti_mod._strand_facets(masks, lcm_of(draw[:longer]))) > betti_mod.SAMPLE_MAX_SIZE
            shrunk += size < len(draw)
        assert shrunk

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

    def test_sample_catches_a_wrongly_minimalized_colon_above_the_oracle_guard(self, monkeypatch):
        # A non-minimal ideal of 18 generators: the chord x1*x3 owns no bit.
        # A colon that keeps the larger of two nested masks, not the smaller,
        # feeds only rows 1 and up, so row 0 holds.  The top-degree chain of
        # a sampled lcm takes the same colons and the nerve of its strand
        # takes none, so the sample, checked before the Euler sums, is the
        # first to show it.
        colons = []

        def larger_kept(masks, g):
            shrunk = {h & ~g for h in masks if h != g}
            colons.append(g)
            return [s for s in shrunk if not any(t != s and s & t == s for t in shrunk)]

        cycle = oriented_cycle_ideal(17)
        I = make_ideal([*cycle.generators, parse_monomial("x1*x3")], cycle.ambient)
        assert len(I.generators) == 18 and not certified(I)
        oracle_calls = []
        monkeypatch.setattr(betti_mod, "_colon", larger_kept)
        monkeypatch.setattr(taylor_mod, "taylor_betti_table", lambda I: oracle_calls.append(I))
        with pytest.raises(AssertionError, match="the nerve gives"):
            betti_table(I)
        assert colons and not oracle_calls

    def test_sample_check_catches_a_wrong_certification_above_the_oracle_guard(self, monkeypatch):
        # Certified by mistake, the 18 generators take the subset-count path.
        # The strand of a sampled cell takes in every generator dividing its
        # lcm, so where the chord x1*x3 divides it the strand path disagrees
        # with the single-cell shortcut.  Strands built from the sampled
        # subset alone would agree with it and let the wrong table through.
        cycle = oriented_cycle_ideal(17)
        I = make_ideal([*cycle.generators, parse_monomial("x1*x3")], cycle.ambient)
        assert len(I.generators) == 18 and not certified(I)
        monkeypatch.setattr(betti_mod, "_taylor_minimal", lambda masks: True)
        with pytest.raises(AssertionError, match="the nerve gives"):
            betti_table(I)

    @staticmethod
    def _shift_colon_terms(monkeypatch, by):
        """Wrap ``_peel`` so that the colon's table enters at index i + 1 + by,
        not i + 1.  The colon term has no row 0, and the sample reads its
        values off the colon chain, not the table, so row 0 and the sample
        still pass; returns the degrees of the peeled generators."""
        peel, peeled = betti_mod._peel, []

        def skewed(rest, degree, colon):
            peeled.append(degree)
            return peel(rest, degree, {(i + by, j): c for (i, j), c in colon.items()})

        monkeypatch.setattr(betti_mod, "_peel", skewed)
        return peeled

    def test_oracle_catches_what_row_0_and_the_sample_miss_on_a_split_table(self, monkeypatch):
        # An even index shift of every colon term keeps row 0, the sample,
        # every alternating sum and the subset counts.  The oracle runs after
        # those checks, so its message shows they passed.
        I = edge_ideal(FIXTURES["3.4"].graph)
        assert not certified(I)
        peeled = self._shift_colon_terms(monkeypatch, 2)
        with pytest.raises(AssertionError, match="Taylor oracle"):
            betti_table(I)
        assert peeled

    def test_oracle_alone_catches_an_unminimalized_colon(self, monkeypatch):
        # Colons that keep their redundant masks make the recursion count
        # the cells of a Taylor resolution, which is not minimal: row 0, the
        # sample, the Euler sums and the subset counts all agree with it, and
        # only the oracle, up to FULL_CHECK_LIMIT generators, sees it.
        I = edge_ideal(FIXTURES["3.4"].graph)
        assert not certified(I)
        monkeypatch.setattr(betti_mod, "_colon", lambda masks, g: [h & ~g for h in masks if h != g])
        with pytest.raises(AssertionError, match="Taylor oracle"):
            betti_table(I)

    def test_euler_catches_what_row_0_and_the_sample_miss_above_the_oracle_guard(self, monkeypatch):
        # An odd index shift of every colon term flips its signs in the
        # alternating sums.  Row 0 and the sample pass, and with 12
        # generators no oracle runs: the Euler check is the one to see it.
        I = edge_ideal(random_instance("OrientedCycle", cycle_len=12, weight_range=(1, 3), seed=3))
        assert len(I.generators) > betti_mod.FULL_CHECK_LIMIT and not certified(I)
        peeled = self._shift_colon_terms(monkeypatch, 1)
        oracle_calls = []
        monkeypatch.setattr(taylor_mod, "taylor_betti_table", lambda I: oracle_calls.append(I))
        with pytest.raises(AssertionError, match="Euler characteristics minus"):
            betti_table(I)
        assert peeled and not oracle_calls

    def test_invariants_reuse_a_given_table(self, monkeypatch):
        I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)")
        table = betti_table(I)
        monkeypatch.setattr(betti_mod, "betti_table", None)
        assert invariants(I, table) == InvariantSummary(11, 3, 0)


def fewest_neighbours(masks):
    """The other peel order: of the generators owning a private bit, the
    first sharing bits with the fewest others."""
    private = betti_mod._private_bits(masks)
    owners = [g for g in masks if g & private]
    return min(owners, key=lambda g: sum(1 for h in masks if h & g)) if owners else None


@st.composite
def weight_one_masks(draw, sizes):
    """The masks of a weight-1..3 graph with about ``sizes`` edges: most are
    not Taylor-minimal, as the paper's counterexamples are not."""
    tag = draw(st.sampled_from(GRAPH_CLASSES))
    D = seeded_graph(tag, draw(sizes), (1, 3), draw(st.integers(0, 10**6)))
    return thermometer_masks(exponent_vectors(edge_ideal(D))[1])


@st.composite
def simple_graph_masks(draw, sizes):
    """The squarefree edge ideal of a simple graph on seven vertices, one
    two-bit mask per edge: triangles leave subproblems with no private bit."""
    size = draw(sizes)
    edges = draw(st.lists(st.sampled_from(list(combinations(range(7), 2))), min_size=size, max_size=size, unique=True))
    return [1 << a | 1 << b for a, b in edges]


TRIANGLE = parse_ideal("(x1*x2, x2*x3, x1*x3)")


class TestBettiSplittings:
    """The recursion of the non-minimal path: peels along private bits,
    products of components, and the walk where no generator owns a bit."""

    @given(small_ideals())
    @example(TRIANGLE)
    @example(parse_ideal("(x1*x2, x2*x3, x4*x5)"))
    def test_recursion_matches_the_oracle(self, I):
        masks = thermometer_masks(exponent_vectors(I)[1])
        assert betti_mod._split_table(masks) == taylor_betti_table(I).entries

    def test_a_triangle_has_no_private_generator_and_is_walked(self, monkeypatch):
        walk, walked = betti_mod._walk, []
        monkeypatch.setattr(betti_mod, "_walk", lambda masks, ranked: walked.append(masks) or walk(masks, ranked))
        masks = thermometer_masks(exponent_vectors(TRIANGLE)[1])
        assert not betti_mod._private_bits(masks)
        assert betti_mod._split_table(masks) == {(0, 2): 3, (1, 3): 2}
        assert walked == [masks]

    @settings(max_examples=20)
    @given(st.one_of(weight_one_masks(st.integers(11, 16)), simple_graph_masks(st.integers(11, 16))))
    def test_recursion_matches_the_walk_on_eleven_to_sixteen_generators(self, masks):
        assume(11 <= len(masks) <= 16)  # a forest of n vertices has fewer than n edges
        assert betti_mod._split_table(masks) == betti_mod._walk(masks, {})

    @given(st.one_of(small_ideals().map(lambda I: thermometer_masks(exponent_vectors(I)[1])),
                     weight_one_masks(st.integers(4, 24))))
    def test_two_peel_orders_give_one_table(self, masks):
        most = betti_mod._split_table(masks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(betti_mod, "_peel_choice", fewest_neighbours)
            assert betti_mod._split_table(masks) == most

    def test_disjoint_components_multiply(self):
        # (x1*x2, x2*x3) + (x4*x5): the quotients' polynomials 1 + t·β multiply
        assert betti_mod._product({(0, 2): 2, (1, 3): 1}, {(0, 2): 1}) == {(0, 2): 3, (1, 3): 1, (1, 4): 2, (2, 5): 1}


@st.composite
def mixed_ideals(draw):
    """Three to eight generators of degree 2..4 on four variables, not
    Taylor-minimal: some strands hold one subset and some hold more."""
    ambient = AMBIENT5[:4]
    vectors = st.tuples(*[st.integers(0, 2)] * 4).filter(lambda v: 2 <= sum(v) <= 4)
    rows = draw(st.lists(vectors, min_size=3, max_size=8, unique=True))
    I = make_ideal([Monomial(dict(zip(ambient, row))) for row in rows], ambient)
    assume(not certified(I))
    return I


@st.composite
def exponent_ideals(draw):
    """Ideals with exponents up to 5 whose ambient has variables outside the support."""
    n, extra = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    ambient = tuple(Variable(f"x{i}") for i in range(1, n + extra + 1))
    shuffled = draw(st.permutations(ambient))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, 5)] * n).filter(any), min_size=1, max_size=7)
    )
    return make_ideal([Monomial(dict(zip(shuffled, vec))) for vec in vectors], ambient)


class TestTaylorOracle:
    @given(exponent_ideals())
    def test_oracle_lcm_codes_match_exponent_lcms(self, I):
        vectors = [tuple(g.exponent(v) for v in I.ambient) for g in I.generators]
        codes = taylor_mod._subset_lcms(I)
        assert len(codes) == 1 << len(vectors)
        lcms = []
        for mask in range(len(codes)):
            members = [vec for k, vec in enumerate(vectors) if mask >> k & 1]
            lcms.append(tuple(map(max, zip(*members))) if members else (0,) * len(I.ambient))
        # Same partition of the subsets (equal codes iff equal lcms), and the
        # popcount is the degree.
        assert len(set(codes)) == len(set(lcms)) == len(set(zip(codes, lcms)))
        assert [c.bit_count() for c in codes] == [sum(lcm) for lcm in lcms]

    @given(small_ideals())
    def test_oracle_uses_no_engine_encoder_or_rank(self, I):
        want = taylor_betti_table(I)
        with pytest.MonkeyPatch.context() as mp:
            for module, name in (
                (taylor_mod, "exponent_vectors"),
                (taylor_mod, "thermometer_masks"),
                (taylor_mod, "subset_counts"),
                (simplicial_mod, "exact_rank"),
            ):
                mp.setattr(module, name, _refuse)
            assert taylor_betti_table(I) == want

    @given(mixed_ideals())
    def test_oracle_matches_a_per_subset_grouping(self, I):
        # Every subset grouped by its exponent lcm; a group of one subset S
        # is one cell at (|S| - 1, deg), a larger group is a strand ranked
        # by Gaussian elimination over Fraction.
        vectors = [tuple(g.exponent(v) for v in I.ambient) for g in I.generators]
        groups = {}
        for mask in range(1, 1 << len(vectors)):
            lcm = tuple(map(max, zip(*(vec for k, vec in enumerate(vectors) if mask >> k & 1))))
            groups.setdefault(lcm, []).append(mask)
        assert any(len(cells) == 1 for cells in groups.values())
        assert any(len(cells) > 1 for cells in groups.values())
        want = Counter()
        for lcm, cells in groups.items():
            by_size = {}
            for mask in cells:
                by_size.setdefault(mask.bit_count(), []).append(mask)
            rank = {}
            for k in by_size:
                lower = by_size.get(k - 1, [])
                boundary = [
                    [(-1) ** (upper & (upper ^ face) - 1).bit_count() if upper | face == upper else 0
                     for upper in by_size[k]]
                    for face in lower
                ]
                rank[k] = fraction_rank(boundary) if lower else 0
            for k, members in by_size.items():
                want[k - 1, sum(lcm)] += len(members) - rank[k] - rank.get(k + 1, 0)
        assert taylor_betti_table(I).entries == {key: c for key, c in want.items() if c}

    def test_oracle_on_a_dense_non_minimal_ideal(self):
        # 11 generators on 6 variables: large strands, so dense rank dominates.
        I = random_ideal(random.Random(24), n_vars=6, max_gens=12, max_exp=3)
        assert len(I.generators) == 11
        assert betti_table(I) == taylor_betti_table(I)


def _refuse(*args):
    raise AssertionError("the oracle called an engine function")


class TestEngineAgainstOracleAtFullCheckSizes:
    """Minimal instances up to TAYLOR_GUARD generators: the subset-count
    table against the Taylor oracle and the closed forms.  Above
    FULL_CHECK_LIMIT generators the engine no longer runs the oracle
    itself, so this is the independent check of the subset counts there."""

    @pytest.mark.parametrize(
        "tag, cycle_len, extra",
        [
            ("OrientedCycle", 9, 0),
            ("OrientedCycle", 10, 0),
            ("UnicyclicAttached", 5, 4),
            ("UnicyclicAttached", 6, 4),
            ("OrientedCycle", 12, 0),
            ("OrientedCycle", 14, 0),
            ("OrientedCycle", 16, 0),
            ("UnicyclicAttached", 7, 7),
        ],
        ids=[
            "cycle-9", "cycle-10", "attached-5+4", "attached-6+4",
            "cycle-12", "cycle-14", "cycle-16", "attached-7+7",
        ],
    )
    def test_engine_matches_taylor_and_closed_form(self, tag, cycle_len, extra):
        D = random_instance(tag, cycle_len=cycle_len, extra_vertices=extra, weight_range=(2, 3), seed=1)
        I = edge_ideal(D)
        assert len(I.generators) <= TAYLOR_GUARD and certified(I)
        table = betti_table(I)
        assert table == taylor_betti_table(I)
        p = predict(D)
        summary = invariants(I, table)
        assert p.applicable
        assert (summary.reg, summary.pd) == (p.reg_pred, p.pd_pred)


def tuple_subset_counts(masks):
    """Reference for ``subset_counts``: the same frontier DP with one
    (open bits, |S|, closed degree) tuple key per count instead of packed
    polynomials."""
    m = len(masks)
    set_bits = [[b for b, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"] for mask in masks]
    owners = [[] for _ in range(max(masks, default=0).bit_length())]
    for i, own in enumerate(set_bits):
        for b in own:
            owners[b].append(i)
    order = []
    placed = [False] * m
    for root in range(m):
        if placed[root]:
            continue
        placed[root] = True
        queue = [root]
        for i in queue:
            for b in set_bits[i]:
                for j in owners[b]:
                    if not placed[j]:
                        placed[j] = True
                        queue.append(j)
        order += queue
    later = [0] * (m + 1)
    for pos in range(m - 1, -1, -1):
        later[pos] = later[pos + 1] | masks[order[pos]]
    states = {(0, 0, 0): 1}
    for pos, i in enumerate(order):
        mask = masks[i]
        close = mask & ~later[pos + 1]
        step = {}
        for (state, size, degree), count in states.items():
            for bits, k in ((state, size), (state | mask, size + 1)):
                done = bits & close
                key = (bits ^ done, k, degree + done.bit_count())
                step[key] = step.get(key, 0) + count
        states = step
    return {(size, degree): count for (_, size, degree), count in states.items()}


@st.composite
def graph_ideals(draw):
    """Edge ideals of seeded graphs of the four classes, about 4 to 24 edges."""
    tag = draw(st.sampled_from(GRAPH_CLASSES))
    weights = draw(st.sampled_from([(1, 3), (2, 3), (2, 4)]))
    return edge_ideal(seeded_graph(tag, draw(st.integers(4, 24)), weights, draw(st.integers(0, 10**6))))


class TestSubsetCounts:
    @given(small_ideals(), st.randoms(use_true_random=False))
    def test_subset_polynomial_matches_brute_force(self, I, shuffler):
        masks = thermometer_masks(exponent_vectors(I)[1])
        want = {}
        for size in range(len(masks) + 1):
            for subset in combinations(masks, size):
                lcm = 0
                for mask in subset:
                    lcm |= mask
                want[size, lcm.bit_count()] = want.get((size, lcm.bit_count()), 0) + 1
        assert subset_counts(masks) == want
        shuffler.shuffle(masks)
        assert subset_counts(masks) == want

    @given(st.lists(st.integers(1, (1 << 40) - 1), max_size=18))
    def test_subset_counts_of_any_masks_match_the_tuple_dp(self, masks):
        # any masks, overlapping or not, 0 to 18 of them: one- to three-byte fields
        assert subset_counts(masks) == tuple_subset_counts(masks)

    @given(graph_ideals())
    def test_subset_counts_of_graph_ideals_match_the_tuple_dp(self, I):
        masks = thermometer_masks(exponent_vectors(I)[1])
        assert subset_counts(masks) == tuple_subset_counts(masks)

    @pytest.mark.parametrize("m", [7, 8, 15, 16])
    def test_coprime_generators_at_a_byte_boundary(self, m):
        # (x1, ..., xm): T[k, k] = C(m, k), the largest a coefficient can be;
        # m = 7 and 15 fill one and two bytes, m = 8 and 16 need one more
        masks = [1 << i for i in range(m)]
        want = {(k, k): comb(m, k) for k in range(m + 1)}
        assert subset_counts(masks) == tuple_subset_counts(masks) == want

    @pytest.mark.parametrize("e", [3000, 20000])
    def test_moment_check_is_linear_in_mask_width(self, e):
        # 3e + 3 bits in three owner sets: the moments pair owner sets, not bits
        I = parse_ideal(f"(x1^{e}*x2, x2^{e}*x3, x3^{e}*x1)")
        started = time.perf_counter()
        table = betti_table(I)
        assert time.perf_counter() - started < 1.0
        assert table.entries == {(0, e + 1): 3, (1, 2 * e + 1): 3, (2, 3 * e): 1}

    @given(small_ideals())
    def test_taylor_minimal_iff_every_class_is_single(self, I):
        masks = thermometer_masks(exponent_vectors(I)[1])
        singles = [single for _, single in brute_force_classes(masks).values()]
        assert betti_mod._taylor_minimal(masks) == all(singles)

    @given(st.lists(st.integers(0, (1 << 40) - 1), max_size=20))
    def test_taylor_minimal_iff_every_mask_has_a_private_bit(self, masks):
        # any masks, duplicates and zeros included
        others = [reduce(or_, masks[:i] + masks[i + 1:], 0) for i in range(len(masks))]
        private = [mask & ~rest for mask, rest in zip(masks, others)]
        assert betti_mod._taylor_minimal(masks) == all(private)

    @pytest.mark.parametrize(
        "m, skew, check",
        [
            (6, (1, -3, 3, -1), "Taylor oracle"),
            (18, (1,), "moment"),
            (14, (-1, 1), "moment"),
            (18, (-1, 1), "moment"),
            (14, (-1, 2, -1), "moment"),
            (18, (-1, 2, -1), "moment"),
        ],
        ids=["6-Taylor oracle", "18-binomial", "14-shift", "18-shift", "14-swap", "18-swap"],
    )
    def test_checks_catch_a_wrong_coefficient(self, monkeypatch, m, skew, check):
        # Add skew to consecutive degrees of one subset size past row 0,
        # keeping every count positive so that the sampled subsets still
        # find theirs.  A count moved up one degree (the shift) or a
        # mean-preserving swap moves a degree moment; a third difference
        # moves none of the three, and only the Taylor oracle, up to
        # FULL_CHECK_LIMIT generators, sees it.
        def skewed(masks):
            T = subset_counts(masks)
            k, j = next(
                (k, j) for k, j in sorted(T)
                if k >= 2 and all(T.get((k, j + d), 0) > max(0, -delta) for d, delta in enumerate(skew))
            )
            for d, delta in enumerate(skew):
                T[k, j + d] += delta
            return T

        I = oriented_cycle_ideal(m)
        assert certified(I)
        monkeypatch.setattr(betti_mod, "subset_counts", skewed)
        with pytest.raises(AssertionError, match=check):
            betti_table(I)


class TestTaylorMinimalPremise:
    """Under the weight hypothesis (w >= 2 off the sources) every edge ideal
    is Taylor-minimal and takes the subset-count path; the counterexample
    fixtures are not and take the Betti splittings."""

    @pytest.mark.parametrize("tag", GRAPH_CLASSES)
    def test_hypothesis_instances_are_certified(self, tag):
        for weights in ((2, 3), (2, 4)):
            for seed in range(1, 11):
                for size in (4, 10, 20, 30, 40):
                    I = edge_ideal(seeded_graph(tag, size, weights, seed))
                    assert certified(I), (weights, seed, size)

    def test_fixtures_take_the_path_their_hypotheses_predict(self):
        got = {ident: certified(edge_ideal(f.graph)) for ident, f in FIXTURES.items()}
        assert got == {"2.9": True, "3.4": False, "3.6": False, "3.7": False}


LADDER = {
    "OrientedCycle-64": ("OrientedCycle", dict(cycle_len=64)),
    "OrientedCycle-128": ("OrientedCycle", dict(cycle_len=128)),
    "UnicyclicAttached-16+48": ("UnicyclicAttached", dict(cycle_len=16, extra_vertices=48)),
}


def ladder_graph(rung):
    tag, shape = LADDER[rung]
    return random_instance(tag, weight_range=(2, 3), seed=1, **shape)


class TestLadderSizes:
    """Rungs of the size ladder, 64 to 128 generators: DP fields of 9 to
    17 bytes, past the generator guard, which is raised here."""

    @pytest.mark.parametrize(
        "rung, reg, pd",
        [("OrientedCycle-64", 93, 63), ("OrientedCycle-128", 189, 127), ("UnicyclicAttached-16+48", 81, 63)],
    )
    def test_formula_passes(self, monkeypatch, rung, reg, pd):
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "128")
        report = verify_formula(ladder_graph(rung))
        assert report.verdict == VERDICT_PASS
        assert (report.computed.reg, report.computed.pd) == (reg, pd)

    @pytest.mark.parametrize("rung", ["OrientedCycle-64", "UnicyclicAttached-16+48"])
    def test_subset_counts_match_the_tuple_dp(self, rung):
        masks = thermometer_masks(exponent_vectors(edge_ideal(ladder_graph(rung)))[1])
        assert len(masks) == 64
        assert subset_counts(masks) == tuple_subset_counts(masks)


class TestWeightOneCounterexamples:
    """Weights 1..3 drop the hypothesis w >= 2: these instances are not
    certified, so they take the Betti splittings.  Above FULL_CHECK_LIMIT
    generators the engine no longer runs the oracle itself, so up to 16
    edges it is run here; (reg, pd) is pinned against the closed forms."""

    @pytest.mark.parametrize(
        "tag, cycle_len, extra, seed, got, predicted",
        [
            ("OrientedCycle", 12, 0, 3, (12, 8), (11, 11)),
            ("UnicyclicAttached", 6, 5, 3, (12, 9), (12, 10)),
            ("UnicyclicGeneral", 4, 7, 5, (8, 6), (12, 10)),
            ("RootedForest", 0, 12, 9, (12, 7), (13, 10)),
            ("OrientedCycle", 14, 0, 1, (16, 9), (18, 13)),
            ("UnicyclicGeneral", 5, 9, 1, (19, 11), (18, 14)),
            ("RootedForest", 0, 18, 1, (18, 13), (19, 15)),
            ("UnicyclicAttached", 7, 8, 1, (17, 10), (19, 14)),
        ],
        ids=[
            "cycle-12", "attached-6+5", "general-4+7", "forest-12", "cycle-14", "general-5+9",
            "forest-16", "attached-7+8",
        ],
    )
    def test_walk_matches_oracle_and_breaks_the_closed_form(self, tag, cycle_len, extra, seed, got, predicted):
        D = random_instance(tag, cycle_len=cycle_len, extra_vertices=extra, weight_range=(1, 3), seed=seed)
        I = edge_ideal(D)
        assert betti_mod.FULL_CHECK_LIMIT < len(I.generators) <= TAYLOR_GUARD and not certified(I)
        table = betti_table(I)
        assert table == taylor_betti_table(I)
        p = predict(D)
        assert (table.reg(), table.pd()) == got
        assert (p.reg_pred, p.pd_pred) == predicted

    @pytest.mark.parametrize(
        "tag, cycle_len, extra, got",
        [("OrientedCycle", 16, 0, (17, 11)), ("UnicyclicAttached", 4, 12, (16, 12))],
        ids=["cycle-16", "attached-4+12"],
    )
    def test_sixteen_edges_without_the_oracle(self, tag, cycle_len, extra, got):
        # 16 generators, within the default generator guard and above
        # FULL_CHECK_LIMIT, so the engine runs no oracle and (reg, pd) is pinned
        D = random_instance(tag, cycle_len=cycle_len, extra_vertices=extra, weight_range=(1, 3), seed=1)
        I = edge_ideal(D)
        assert len(I.generators) == 16 <= betti_mod.DEFAULT_GENERATOR_GUARD and not certified(I)
        report = verify_formula(D)
        assert (report.computed.reg, report.computed.pd) == got
        assert report.verdict != VERDICT_PASS

    @pytest.mark.parametrize(
        "tag, cycle_len, extra, got",
        [("OrientedCycle", 64, 0, (64, 49)), ("UnicyclicAttached", 16, 48, (49, 46))],
        ids=["cycle-64", "attached-16+48"],
    )
    def test_sixty_four_edges_by_splittings(self, monkeypatch, tag, cycle_len, extra, got):
        # past the generator guard, which is raised here; the same (reg, pd)
        # came out under the fewest-neighbours peel order
        monkeypatch.setenv(betti_mod.GUARD_ENV_VAR, "64")
        D = random_instance(tag, cycle_len=cycle_len, extra_vertices=extra, weight_range=(1, 3), seed=1)
        assert len(D.edges) == 64 and not certified(edge_ideal(D))
        report = verify_formula(D)
        assert (report.computed.reg, report.computed.pd) == got
        assert report.verdict != VERDICT_PASS
