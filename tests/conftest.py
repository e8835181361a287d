import random

import pytest
from hypothesis import HealthCheck, settings

from edgeideals.digraphs import WeightedDigraph, random_instance
from edgeideals.monomials import Monomial, MonomialIdeal, Variable, make_ideal

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=300)
settings.load_profile("suite")


def random_ideal(
    rng: random.Random,
    n_vars: int = 3,
    max_gens: int = 6,
    max_exp: int = 4,
    prefix: str = "x",
) -> MonomialIdeal:
    """Nonzero random monomial ideal; generators minimalized."""
    ambient = tuple(Variable(f"{prefix}{i}") for i in range(1, n_vars + 1))
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exp = {v: rng.randint(0, max_exp) for v in ambient}
        m = Monomial({v: e for v, e in exp.items() if e})
        if not m.is_unit():
            gens.append(m)
    if not gens:
        gens = [Monomial({ambient[0]: 1})]
    return make_ideal(gens, ambient)


GRAPH_CLASSES = ("RootedForest", "OrientedCycle", "UnicyclicAttached", "UnicyclicGeneral")


def seeded_graph(tag: str, size: int, weights: tuple[int, int], seed: int) -> WeightedDigraph:
    """A ``random_instance`` of class ``tag`` with about ``size`` edges."""
    if tag == "RootedForest":
        shape = dict(extra_vertices=size)
    elif tag == "OrientedCycle":
        shape = dict(cycle_len=size)
    elif tag == "UnicyclicAttached":
        shape = dict(cycle_len=size // 2 + 1, extra_vertices=size - size // 2 - 1)
    else:
        shape = dict(cycle_len=3, extra_vertices=size - 3)
    return random_instance(tag, weight_range=weights, seed=seed, **shape)


# References for operations the package does not need, written for the
# valid inputs the tests build: no validation.


def delete_edge(D: WeightedDigraph, e: tuple[str, str]) -> WeightedDigraph:
    """D with the edge e removed and every vertex kept."""
    return WeightedDigraph(D.vertices, [x for x in D.edges if x != e])


def delete_vertex(D: WeightedDigraph, v: str) -> WeightedDigraph:
    """The subgraph induced on every vertex but v."""
    return WeightedDigraph([x for x in D.vertices if x[0] != v], [e for e in D.edges if v not in e])


def weight_sum(D: WeightedDigraph) -> int:
    """The formulas' Σw, read off the edge list: heads by weight, other edge vertices as 1."""
    weights, heads = dict(D.vertices), {h for _, h in D.edges}
    return sum(weights[v] if v in heads else 1 for v in {v for e in D.edges for v in e})


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I + J for ideals over disjoint ambients, over I's ambient then J's."""
    return make_ideal(I.generators + J.generators, I.ambient + J.ambient)


def multiply_external(u: Monomial, I: MonomialIdeal) -> MonomialIdeal:
    """(u)·I for a monomial u in variables outside I's ambient."""
    ambient = I.ambient + tuple(sorted(u.support()))
    return make_ideal([Monomial({**g.exponents, **u.exponents}) for g in I.generators], ambient)


def euler_mismatches(check) -> dict[int, tuple[int, int]]:
    """The degrees where an ``EulerCheck``'s two sides differ."""
    return {j: pair for j, pair in check.per_degree.items() if pair[0] != pair[1]}


@pytest.fixture
def rng():
    return random.Random(20240817)
