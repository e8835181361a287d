"""Vertex-weighted oriented graphs and their edge ideals.

A weighted oriented graph is a simple digraph with a positive integer
weight per vertex and no bidirected edges.  The edge ideal has one
generator tail·head^{w(head)} per directed edge.  This module also
classifies graphs into the formula-bearing classes (rooted forests,
oriented cycles, unicyclic graphs with away-oriented attached trees),
checks the weight hypothesis those formulas need, and generates seeded
random instances for verification campaigns.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .monomials import Monomial, MonomialIdeal, Variable, make_ideal


class GraphClassTag(Enum):
    ROOTED_FOREST = "RootedForest"
    ORIENTED_CYCLE = "OrientedCycle"
    UNICYCLIC_ATTACHED = "UnicyclicAttached"
    UNICYCLIC_GENERAL = "UnicyclicGeneral"
    OTHER = "Other"


@dataclass(frozen=True)
class GraphClass:
    """Classification tag plus a class-specific witness.

    witness: the roots, one per component (forest); the directed cycle's
    vertex sequence from its first-declared vertex (cycle and attached
    classes); () for the general and other classes.
    """

    tag: GraphClassTag
    witness: tuple

    def __str__(self) -> str:
        return self.tag.value


class WeightedDigraph:
    """Immutable vertex-weighted oriented graph.

    ``vertices`` is an ordered tuple of (name, weight); ``edges`` an
    ordered tuple of (tail, head) pairs.  No self-loops, no repeated
    edges, at most one edge per unordered vertex pair.
    """

    __slots__ = ("vertices", "edges", "_index", "_out", "_in")

    def __init__(self, vertices: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str]]):
        self.vertices = tuple((Variable(n).base, w) for n, w in vertices)  # checks each name
        self.edges = tuple((str(t), str(h)) for t, h in edges)
        names = [n for n, _ in self.vertices]
        if len(set(names)) != len(names):
            raise ValueError("repeated vertex name")
        for n, w in self.vertices:
            if type(w) is not int:  # int() would truncate 2.9 and accept True and "3"
                raise ValueError(f"vertex {n} has weight {w!r}; weights must be integers")
            if w < 1:
                raise ValueError(f"vertex {n} has weight {w}; weights must be >= 1")
        self._index = {n: i for i, n in enumerate(names)}
        seen_pairs: set[frozenset[str]] = set()
        self._out: dict[str, list[str]] = {n: [] for n in names}
        self._in: dict[str, list[str]] = {n: [] for n in names}
        for t, h in self.edges:
            if t not in self._index or h not in self._index:
                raise ValueError(f"edge ({t}, {h}) uses an undeclared vertex")
            if t == h:
                raise ValueError(f"self-loop at {t}")
            pair = frozenset((t, h))
            if pair in seen_pairs:
                raise ValueError(f"repeated or bidirected edge between {t} and {h}")
            seen_pairs.add(pair)
            self._out[t].append(h)
            self._in[h].append(t)

    # -- basic accessors ---------------------------------------------------

    def vertex_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vertices)

    def weight(self, v: str) -> int:
        return self.vertices[self._require(v)][1]

    def _require(self, v: str) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex {v!r}")
        return self._index[v]

    def degree(self, v: str) -> int:
        """Degree in the underlying undirected graph."""
        self._require(v)
        return len(self._out[v]) + len(self._in[v])

    def is_source(self, v: str) -> bool:
        """In-degree 0 with at least one out-edge."""
        self._require(v)
        return not self._in[v] and bool(self._out[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"WeightedDigraph({list(self.vertices)}, {list(self.edges)})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"name": n, "weight": w} for n, w in self.vertices],
            "edges": [[t, h] for t, h in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedDigraph":
        try:
            vertices = [(v["name"], v["weight"]) for v in data["vertices"]]
            edges = data["edges"]
            for e in edges:
                if type(e) is not list or len(e) != 2 or not all(type(x) is str for x in e):
                    raise ValueError(f"malformed graph JSON: edge {e!r} is not a list of two vertex names")
            return cls(vertices, edges)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph JSON: {exc}") from exc


def normalize_source_weights(D: WeightedDigraph) -> WeightedDigraph:
    """Set every source's weight to 1 (its weight never enters the edge ideal).

    A source has in-degree 0 and at least one out-edge; isolated vertices
    are left alone.  Idempotent.
    """
    vertices = tuple((n, 1 if D.is_source(n) else w) for n, w in D.vertices)
    return WeightedDigraph(vertices, D.edges)


def edge_generator(D: WeightedDigraph, t: str, h: str) -> Monomial:
    """The generator tail·head^{w(head)} of the edge (t, h)."""
    return Monomial({Variable(t): 1, Variable(h): D.weight(h)})


def edge_ideal(D: WeightedDigraph) -> MonomialIdeal:
    """One generator tail·head^{w(head)} per edge, over ambient V(D).

    Distinct edges of an oriented graph always give non-dividing
    monomials, so the generator count equals the edge count; this is
    asserted.  An empty edge set yields the zero ideal with a warning.
    """
    ambient = tuple(Variable(n) for n in D.vertex_names())
    if not D.edges:
        warnings.warn("graph has no edges; edge ideal is the zero ideal", stacklevel=2)
        return MonomialIdeal(ambient, ())
    ideal = make_ideal([edge_generator(D, t, h) for t, h in D.edges], ambient)
    if len(ideal.generators) != len(D.edges):
        raise AssertionError("edge generators collapsed under divisibility")
    return ideal


def component_groups(D: WeightedDigraph) -> list[list[str]]:
    """Vertex lists of the connected components of the underlying graph,
    each in declaration order, ordered by their first-declared vertex."""
    parent = {n: n for n, _ in D.vertices}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t, h in D.edges:
        ra, rb = find(t), find(h)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for n in parent:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def components(D: WeightedDigraph) -> list[WeightedDigraph]:
    """Connected components, order inherited: ``[D]`` itself when D is connected,
    else one new validated graph per ``component_groups`` list (classify builds none)."""
    groups = component_groups(D)
    if len(groups) == 1:
        return [D]
    out = []
    for group in groups:
        members = set(group)
        verts = [(n, w) for n, w in D.vertices if n in members]
        edges = [(t, h) for t, h in D.edges if t in members]
        out.append(WeightedDigraph(verts, edges))
    return out


def _component_class(D: WeightedDigraph, names: list[str]) -> GraphClass:
    """ROOTED_FOREST with the root, ORIENTED_CYCLE or UNICYCLIC_ATTACHED with
    the directed cycle, or OTHER with (), for D's component on ``names``."""
    indegrees = [len(D._in[n]) for n in names]
    n_edges = sum(len(D._out[n]) for n in names)
    if n_edges == len(names) - 1 and max(indegrees) <= 1:
        return GraphClass(GraphClassTag.ROOTED_FOREST, (names[indegrees.index(0)],))
    if n_edges != len(names) or any(d != 1 for d in indegrees):
        return GraphClass(GraphClassTag.OTHER, ())
    # Every vertex has a unique predecessor; walking back finds the cycle.
    walk = [names[0]]
    seen = {names[0]: 0}
    while (prev := D._in[walk[-1]][0]) not in seen:
        seen[prev] = len(walk)
        walk.append(prev)
    cycle = walk[seen[prev]:][::-1]
    # Rotate so the cycle starts at its first-declared vertex.
    start = min(range(len(cycle)), key=lambda i: D._index[cycle[i]])
    cycle = tuple(cycle[start:] + cycle[:start])
    if len(cycle) == len(names):
        return GraphClass(GraphClassTag.ORIENTED_CYCLE, cycle)
    return GraphClass(GraphClassTag.UNICYCLIC_ATTACHED, cycle)


def classify(D: WeightedDigraph, groups: list[list[str]] | None = None) -> GraphClass:
    """Classify into the formula-bearing graph classes.

    RootedForest: every component a tree with all edges oriented away
    from one root.  OrientedCycle: a single directed cycle.
    UnicyclicAttached: connected, one directed cycle plus rooted trees
    oriented away from it.  UnicyclicGeneral: several components, each a
    rooted tree or an attached-type unicyclic component, at least one
    cyclic.  Everything else is Other.  ``groups`` is ``component_groups(D)``
    when the caller already has it.  Each component is read off D on its
    vertex list; no component graph is built.
    """
    if groups is None:
        groups = component_groups(D)
    classes = [_component_class(D, g) for g in groups]
    tags = {c.tag for c in classes}
    if tags == {GraphClassTag.ROOTED_FOREST}:
        return GraphClass(GraphClassTag.ROOTED_FOREST, tuple(c.witness[0] for c in classes))
    if len(classes) == 1:
        return classes[0]
    if not classes or GraphClassTag.OTHER in tags:
        return GraphClass(GraphClassTag.OTHER, ())
    return GraphClass(GraphClassTag.UNICYCLIC_GENERAL, ())


def check_hypotheses(D: WeightedDigraph) -> tuple[str, ...]:
    """The vertices violating the weight hypothesis, in declaration order.

    The formulas need weight >= 2 at every non-source vertex of
    (underlying) degree >= 2; on an oriented cycle that is every vertex.
    Sources are exempt: their weight is conventionally 1 and never
    appears in the edge ideal.  So are isolated vertices, which carry no
    generator and which ``predict`` leaves out of its sums.
    """
    return tuple(
        n for n, w in D.vertices if w < 2 and D.degree(n) > 1 and not D.is_source(n)
    )


# -- seeded random instances ----------------------------------------------


def _random_forest_edges(n: int, rng: random.Random, prefix: str = "v") -> tuple[list[str], list[tuple[str, str]]]:
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(names[0], names[1])]
    for k in range(2, n):
        if rng.random() < 0.15:
            continue  # new root: this vertex starts another tree
        parent = names[rng.randrange(k)]
        edges.append((parent, names[k]))
    return names, edges


def _attach_trees(cyc: list[str], edges: list[tuple[str, str]], n: int, rng: random.Random) -> list[str]:
    """Hang y1..yn in turn below a uniformly drawn earlier vertex, appending
    their edges to ``edges``; returns the cycle vertices, then y1..yn."""
    hosts = list(cyc)
    for j in range(1, n + 1):
        y = f"y{j}"
        edges.append((hosts[rng.randrange(len(hosts))], y))
        hosts.append(y)
    return hosts


def random_instance(
    class_tag: GraphClassTag | str,
    *,
    cycle_len: int = 0,
    extra_vertices: int = 0,
    weight_range: tuple[int, int] = (2, 4),
    seed: int = 0,
) -> WeightedDigraph:
    """Deterministic random graph of the requested class.

    ``extra_vertices`` is the attached-tree vertex count for cyclic
    classes and the total vertex count for forests (``cycle_len`` must
    then be 0).  One graph is built, from the drawn edge list and
    weights: non-leaves draw from [lo, hi], leaves from [1, hi], and a
    source gets weight 1.  It is asserted to classify as requested and
    (when the weight range starts at 2) to satisfy the weight hypotheses.
    """
    tag = GraphClassTag(class_tag) if not isinstance(class_tag, GraphClassTag) else class_tag
    lo, hi = weight_range
    if not (1 <= lo <= hi):
        raise ValueError(f"empty or invalid weight range {weight_range}")
    if extra_vertices < 0:
        raise ValueError(f"extra_vertices must be >= 0, got {extra_vertices}")
    rng = random.Random(f"edgeideals:{tag.value}:{cycle_len}:{extra_vertices}:{lo}:{hi}:{seed}")

    if tag is GraphClassTag.ROOTED_FOREST:
        if cycle_len:
            raise ValueError("cycle_len must be 0 for a rooted forest")
        n = extra_vertices
        if n < 2:
            raise ValueError("a rooted forest instance needs at least 2 vertices")
        names, edges = _random_forest_edges(n, rng)
    elif tag in (GraphClassTag.ORIENTED_CYCLE, GraphClassTag.UNICYCLIC_ATTACHED, GraphClassTag.UNICYCLIC_GENERAL):
        if cycle_len < 3:
            raise ValueError(f"cycle_len must be >= 3, got {cycle_len}")
        cyc = [f"x{i}" for i in range(1, cycle_len + 1)]
        edges = [(cyc[i], cyc[(i + 1) % cycle_len]) for i in range(cycle_len)]
        names = cyc
        if tag is GraphClassTag.ORIENTED_CYCLE:
            if extra_vertices:
                raise ValueError("an oriented cycle takes no extra vertices")
        elif tag is GraphClassTag.UNICYCLIC_ATTACHED:
            if extra_vertices < 1:
                raise ValueError(
                    "an attached unicyclic instance needs >= 1 attached vertex "
                    "(0 degenerates to a bare oriented cycle)"
                )
            names = _attach_trees(cyc, edges, extra_vertices, rng)
        else:
            attach = extra_vertices // 2
            hosts = _attach_trees(cyc, edges, attach, rng)
            forest_n = max(2, extra_vertices - attach + 2)
            fnames, fedges = _random_forest_edges(forest_n, rng, prefix="z")
            names, edges = hosts + fnames, edges + fedges
    else:
        raise ValueError(f"cannot generate instances of class {tag.value}")

    # Non-leaves draw from [lo, hi], leaves (unconstrained) from [1, hi].  Every
    # vertex draws; a source, whose weight never enters the edge ideal, gets 1.
    degree = Counter(v for e in edges for v in e)
    heads = {h for _, h in edges}
    vertices = []
    for n in names:
        w = rng.randint(1 if degree[n] == 1 else lo, hi)
        vertices.append((n, 1 if degree[n] and n not in heads else w))
    D = WeightedDigraph(vertices, edges)
    got = classify(D)
    if got.tag is not tag:
        raise AssertionError(f"generator produced {got.tag.value}, wanted {tag.value}")
    if lo >= 2:
        violations = check_hypotheses(D)
        if violations:
            raise AssertionError(f"generated instance violates hypotheses at {violations}")
    return D
