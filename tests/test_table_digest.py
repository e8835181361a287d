"""Every Betti table of a fixed, seeded input set, pinned by one digest.

The inputs are the four fixtures and their polarizations; 60 random
ideals; 108 graphs (four classes, weights 2..3, 2..4 and 1..3, seeds
1-3, sizes 4, 6 and 8) and their polarizations; and J, K and J∩K of the
cycle-edge splitting of every graph with a directed cycle: 446 in all.
Each input contributes the repr of its table, or the message of the
``GuardError`` that refuses it, so a change to any table, or to which
inputs are refused, changes the digest.  No input is refused today.
"""

import hashlib
import random

from edgeideals.betti import GuardError, betti_table
from edgeideals.digraphs import edge_ideal
from edgeideals.fixtures import FIXTURES
from edgeideals.formulas import build_split
from edgeideals.monomials import intersect, polarize

from conftest import GRAPH_CLASSES, random_ideal, seeded_graph

DIGEST = "7c59b2a4afd212c6bfaad18313a925b98b27fa153f3dd03e276e59ad1073bff1"

WEIGHTS = ((2, 3), (2, 4), (1, 3))


def digest_inputs():
    for fixture in FIXTURES.values():
        I = edge_ideal(fixture.graph)
        yield I
        yield polarize(I)
    rng = random.Random(6)
    for _ in range(60):
        yield random_ideal(rng, n_vars=4, max_gens=7, max_exp=3)
    for tag in GRAPH_CLASSES:
        for weights in WEIGHTS:
            for seed in (1, 2, 3):
                for size in (4, 6, 8):
                    D = seeded_graph(tag, size, weights, seed)
                    I = edge_ideal(D)
                    yield I
                    yield polarize(I)
                    if tag in ("OrientedCycle", "UnicyclicAttached"):
                        pair = build_split(D)
                        yield pair.J
                        yield pair.K
                        yield intersect(pair.J, pair.K)


def table_line(I):
    try:
        return repr(betti_table(I))
    except GuardError as exc:
        return f"refused: {exc}"


def test_every_table_is_unchanged():
    lines = [table_line(I) for I in digest_inputs()]
    assert len(lines) == 446
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
