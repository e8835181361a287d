import copy
import gc
import pickle
import random
import sys
import threading
from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import edgeideals.monomials as monomials_mod
from edgeideals.monomials import (
    IdealSyntaxError,
    Monomial,
    Variable,
    exponent_vectors,
    intersect,
    make_ideal,
    parse_ideal,
    parse_monomial,
    polarize,
    polarize_monomial,
    thermometer_masks,
)

x1, x2, x3, x4 = (Variable(f"x{i}") for i in range(1, 5))
AMB = (x1, x2, x3, x4)


def M(**kw):
    return Monomial({Variable(k): v for k, v in kw.items()})


class TestMakeIdeal:
    def test_divisible_generator_dropped(self):
        I = make_ideal([M(x1=1, x2=1), M(x1=1, x2=1, x3=1)], AMB)
        assert set(I.generators) == {M(x1=1, x2=1)}

    def test_incomparable_generators_kept(self):
        I = make_ideal([M(x1=1, x2=3), M(x2=1, x3=2)], AMB)
        assert set(I.generators) == {M(x1=1, x2=3), M(x2=1, x3=2)}

    def test_empty_input_is_zero_ideal(self):
        I = make_ideal([], AMB)
        assert I.is_zero()
        assert str(I) == "(0)"

    def test_idempotent(self):
        I = make_ideal([M(x1=2), M(x1=1, x2=1), M(x2=3)], AMB)
        again = make_ideal(I.generators, I.ambient)
        assert again == I

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            make_ideal([Monomial()], AMB)

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_ideal([M(y=1)], AMB)

    def test_duplicates_collapse(self):
        I = make_ideal([M(x1=1), M(x1=1)], AMB)
        assert len(I.generators) == 1


class TestLcm:
    def test_componentwise_max(self):
        assert M(x1=1, x2=3).lcm(M(x2=1, x3=2)) == M(x1=1, x2=3, x3=2)

    def test_unit_is_identity(self):
        u = M(x1=2, x3=1)
        assert u.lcm(Monomial()) == u == Monomial().lcm(u)

    def test_idempotent(self):
        u = M(x1=2, x3=1)
        assert u.lcm(u) == u


class TestIntersect:
    def test_coprime_generators(self):
        J = make_ideal([M(x1=1)], AMB)
        K = make_ideal([M(x2=1)], AMB)
        assert set(intersect(J, K).generators) == {M(x1=1, x2=1)}

    def test_single_lcm(self):
        J = make_ideal([M(x1=1, x2=1)], AMB)
        K = make_ideal([M(x2=1, x3=1)], AMB)
        assert set(intersect(J, K).generators) == {M(x1=1, x2=1, x3=1)}

    def test_containment(self):
        J = make_ideal([M(x1=1, x2=2), M(x3=1)], AMB)
        K = make_ideal([M(x1=1, x2=2)], AMB)
        assert set(intersect(J, K).generators) == {M(x1=1, x2=2)}

    def test_zero_absorbs(self):
        J = make_ideal([M(x1=1)], AMB)
        Z = make_ideal([], AMB)
        assert intersect(J, Z).is_zero()

    def test_ambient_mismatch_rejected(self):
        J = make_ideal([M(x1=1)], (x1,))
        K = make_ideal([M(x2=1)], (x2,))
        with pytest.raises(ValueError):
            intersect(J, K)


class TestPolarize:
    def test_weighted_cycle_ideal(self):
        I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)")
        P = polarize(I)
        expected = {
            parse_monomial("x1_1*x2_1*x2_2*x2_3"),
            parse_monomial("x2_1*x3_1*x3_2"),
            parse_monomial("x3_1*x4_1*x4_2*x4_3*x4_4"),
            parse_monomial("x4_1*x1_1*x1_2*x1_3*x1_4*x1_5"),
        }
        assert set(P.generators) == expected
        assert sorted(g.degree() for g in P.generators) == [3, 4, 5, 6]

    def test_squarefree_input_is_renamed_only(self):
        P = polarize(parse_ideal("(x1*x2)"))
        assert set(P.generators) == {parse_monomial("x1_1*x2_1")}

    def test_single_variable_power(self):
        P = polarize(parse_ideal("(x^2)"))
        assert set(P.generators) == {parse_monomial("x_1*x_2")}
        assert P.ambient == (Variable("x", 1), Variable("x", 2))

    def test_double_polarization_rejected(self):
        P = polarize(parse_ideal("(x^2)"))
        with pytest.raises(ValueError, match="already polarized"):
            polarize(P)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            polarize(make_ideal([], AMB))

    def test_ambient_ordered_by_base_then_index(self):
        P = polarize(parse_ideal("(x1^2*x2, x2^3)"))
        assert P.ambient == (
            Variable("x1", 1), Variable("x1", 2),
            Variable("x2", 1), Variable("x2", 2), Variable("x2", 3),
        )


class TestParsing:
    def test_monomial_round_trip(self):
        m = parse_monomial("x1*x2^3")
        assert m == M(x1=1, x2=3)
        assert parse_monomial(str(m)) == m

    def test_unit(self):
        assert parse_monomial("1").is_unit()

    def test_polarized_variable(self):
        assert parse_monomial("x1_2") == Monomial({Variable("x1", 2): 1})

    def test_repeated_variable_accumulates(self):
        assert parse_monomial("x1*x1^2") == M(x1=3)

    def test_zero_ideal_text(self):
        assert parse_ideal("(0)").is_zero()
        assert parse_ideal("()").is_zero()

    def test_ideal_round_trip(self):
        I = parse_ideal("(x1*x2^3, x2*x3^2)")
        assert parse_ideal(str(I)) == I

    def test_error_carries_position(self):
        with pytest.raises(IdealSyntaxError, match="position"):
            parse_ideal("(x1*x2^3, x2*^2)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("(x1) x2")

    def test_bad_exponent_rejected(self):
        with pytest.raises(IdealSyntaxError):
            parse_monomial("x1^x2")


small_exponents = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=4,
)


def _ideal_from_rows(rows):
    amb = (x1, x2, x3)
    gens = [
        Monomial({v: e for v, e in zip(amb, row) if e})
        for row in rows
        if any(row)
    ]
    if not gens:
        gens = [M(x1=1)]
    return make_ideal(gens, amb)


@given(small_exponents)
def test_minimality_invariant(rows):
    I = _ideal_from_rows(rows)
    for g in I.generators:
        for h in I.generators:
            assert g is h or not g.divides(h)


@given(small_exponents, small_exponents)
def test_intersect_commutative(rows_a, rows_b):
    J, K = _ideal_from_rows(rows_a), _ideal_from_rows(rows_b)
    assert intersect(J, K) == intersect(K, J)


@given(small_exponents, small_exponents, small_exponents)
def test_intersect_associative(rows_a, rows_b, rows_c):
    A, B, C = (_ideal_from_rows(r) for r in (rows_a, rows_b, rows_c))
    assert intersect(intersect(A, B), C) == intersect(A, intersect(B, C))


@given(small_exponents)
def test_intersect_idempotent(rows):
    I = _ideal_from_rows(rows)
    assert intersect(I, I) == I


@given(small_exponents, small_exponents)
def test_intersect_contains_pairwise_lcms_and_nothing_smaller(rows_a, rows_b):
    J, K = _ideal_from_rows(rows_a), _ideal_from_rows(rows_b)
    result = intersect(J, K)
    pair_lcms = [u.lcm(v) for u in J.generators for v in K.generators]
    for m in pair_lcms:
        assert m in result
    min_degree = min(m.degree() for m in pair_lcms)
    for g in result.generators:
        assert g.degree() >= min_degree


@given(small_exponents)
def test_polarize_preserves_count_and_degrees(rows):
    I = _ideal_from_rows(rows)
    P = polarize(I)
    assert len(P.generators) == len(I.generators)
    assert sorted(g.degree() for g in P.generators) == sorted(g.degree() for g in I.generators)
    for g in P.generators:
        assert all(e == 1 for e in g.exponents.values())


@given(small_exponents)
def test_masks_are_the_polarization(rows):
    # a thermometer mask sets one bit per variable of the polarization
    I = _ideal_from_rows(rows)
    masks = thermometer_masks(exponent_vectors(I)[1])
    polarized = thermometer_masks(exponent_vectors(polarize(I))[1])
    assert sorted(polarized) == sorted(masks)


def test_polarize_monomial_unit():
    assert polarize_monomial(Monomial()).is_unit()


def test_variable_ordering_is_natural():
    assert Variable("x2") < Variable("x10")
    assert Variable("x1", 1) < Variable("x1", 2) < Variable("x2", 1)


def test_variable_name_cannot_mimic_polarization():
    with pytest.raises(ValueError, match="reserved"):
        Variable("x_2")
    # so rendering is injective and ideal strings round-trip
    assert str(Variable("x", 2)) == "x_2"


def test_monomial_ordering_deterministic(rng: random.Random):
    ms = [M(x1=rng.randint(0, 3), x2=rng.randint(0, 3)) for _ in range(20)]
    assert sorted(ms) == sorted(reversed(sorted(ms)))


def test_tied_natural_keys_are_ordered_by_name():
    # x1 and x01 compare equal digit run by digit run; the name breaks the
    # tie, so a monomial does not depend on the order of its variables.
    assert Variable("x01") < Variable("x1") and Variable("x01") != Variable("x1")
    a, b = parse_monomial("x1*x01"), parse_monomial("x01*x1")
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "x01*x1"
    assert parse_ideal("(x1*x01, x01*x1)").generators == (a,)


def test_invalid_variable_names_raise_on_every_call():
    # the name check is cached per valid name; a bad name raises each time
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid variable name: '1x'"):
            Variable("1x")
        with pytest.raises(ValueError, match="invalid variable name: ''"):
            Variable("")
        with pytest.raises(ValueError, match="ends in _<digits>"):
            Variable("x_2")
        with pytest.raises(ValueError, match="polarization index must be >= 1"):
            Variable("x", 0)
        with pytest.raises(ValueError, match="invalid variable name: '1x'"):
            Variable("1x", 2)


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4).filter(any), max_size=12))
def test_make_ideal_matches_pairwise_minimalization(rows):
    # duplicates dropped, then every generator another one divides, sorted
    gens = [Monomial({v: e for v, e in zip(AMB, row) if e}) for row in rows]
    distinct = list(dict.fromkeys(gens))
    want = sorted(g for g in distinct if not any(h != g and h.divides(g) for h in distinct))
    assert make_ideal(gens, AMB).generators == tuple(want)


class TestInternedVariables:
    def test_one_object_per_name(self):
        assert Variable("x1") is Variable("x1")
        assert Variable("x", 2) is Variable("x", 2)
        assert Variable("x", 2) is not Variable("x", 3)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_interned_object(self, clone):
        for v in (Variable("x1"), Variable("x", 2)):
            assert clone(v) is v
        m = M(x1=2, x2=1)
        assert clone(m) == m and hash(clone(m)) == hash(m)

    def test_attributes_cannot_be_set_or_deleted(self):
        v = Variable("x1")
        with pytest.raises(AttributeError):
            v.base = "x2"
        with pytest.raises(AttributeError):
            v.tag = 1
        with pytest.raises(AttributeError):
            del v.polar
        assert v.base == "x1" and v.polar is None

    def test_threads_building_the_same_names_get_the_same_objects(self):
        names = [f"thread{i}" for i in range(1000)]
        results = [None] * 8
        barrier = threading.Barrier(8, timeout=10)

        def build(k):
            barrier.wait()
            results[k] = [Variable(n) for n in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results[1:]:
            assert all(a is b for a, b in zip(got, results[0])) and len(got) == len(names)

    def test_the_registry_is_bounded_by_the_keep_alive(self):
        for i in range(20_000):
            Variable(f"dropped{i}", 1)
        gc.collect()
        # Only the keep-alive cache holds them now; other tests' variables may
        # be live too, so only these names are counted.
        dropped = [base for base, _ in list(monomials_mod._registry.keys()) if base.startswith("dropped")]
        assert len(dropped) <= monomials_mod._interned.cache_info().maxsize


ORDER_NAMES = ("x1", "x01", "x2", "x10", "y", "ab1")


@given(st.lists(st.dictionaries(st.sampled_from([(n, p) for n in ORDER_NAMES for p in (None, 1, 2)]),
                                st.integers(1, 3), min_size=1, max_size=4), max_size=12))
def test_make_ideal_key_sort_matches_monomial_order(exponent_maps):
    # make_ideal sorts by the precomputed _order key; that is the order of
    # Monomial.__lt__, on natural-order ties (x1, x01) and polarized names too.
    gens = list({Monomial({Variable(*key): e for key, e in exp.items()}) for exp in exponent_maps})
    assert sorted(gens, key=attrgetter("_order")) == sorted(gens)
