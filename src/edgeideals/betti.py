"""Graded Betti tables of monomial ideals, computed exactly.

The generators are encoded as thermometer bitmasks, so that an lcm is a
bitwise OR and its degree a popcount.  Each bit is a variable of the
polarization, which has the same graded Betti numbers, and every step
below works on the masks alone.  They carry no slot layout: a candidate
degree is the componentwise max of its class's exponent vectors.

The table is read off the Taylor resolution: each generator subset S is
a cell in homological degree |S| - 1 at deg lcm S, and ``subset_counts``
counts the cells by size and degree.  The subsets with one lcm form an
lcm class, whose largest member U is the closed set of all generators
dividing lcm U, and β_{i,j} is the sum over the classes of degree j of
the rank at i of their Taylor strand (the subsets of U with lcm U,
relative to those of smaller lcm).  When every generator of G(I) owns a
bit no other covers (``_taylor_minimal``), each class is its one cell
and the counts are the table.

Otherwise the table comes from recursive Betti splittings
(``_split_table``), each distinct set of masks computed once:

- *Peel.*  If g owns a private bit x, then I = (g) + I′ splits off the
  one generator divisible by x, and the principal (g) has a linear
  resolution, so by Francisco, Hà and Van Tuyl ("Splittings of monomial
  ideals", Proc. AMS 137, 2009, Cor. 2.7) it is a Betti splitting.  As
  (g) ∩ I′ = g·(I′ : g), in every multidegree
  β(I) = β(I′) + e_{0, deg g} + shift_{(1, deg g)} β(I′ : g).  The colon
  is generated by the masks h & ~g, minimalized (``_colon``).  Of the
  generators owning a private bit, the one sharing bits with the most
  others is peeled: on the weight-1 ladders that leaves far fewer
  subproblems than peeling the one sharing the fewest.
- *Product.*  Ideals I and J on disjoint bits have
  S/(I + J) = S/I ⊗ S/J, so the quotients' polynomials 1 + t·β
  multiply.  This is tried first: peeling one component would drag the
  others into every subproblem.
- *Walk.*  A connected set in which no generator owns a private bit is
  walked: a depth-first search lists its closed sets, and each class is
  read off its core (``_class_ranks``).
  - A *forced* member owns a bit no other member of U covers, so it lies
    in every cell, and it shifts the strand's indices up by one.
  - The *core* is the rest of U, restricted to the *needed* bits that
    the forced members miss; an empty core is a single class, one cell.
  - A *free* core member has no needed bit, so the strand is a cone
    with no homology, and the class adds nothing.
  - Any other core has its cells listed and ranked as sparse integer
    rows.

Everything is exact, and every table is checked, in this order:

- row 0 against the generator degrees;
- a sample of lcms L, each strand ranked a second way, through the nerve
  of the polarization's strand complex, once per distinct L.  On the
  subset-count path the table holds one cell there.  On the split path
  the value comes from a top-degree chain of colons (``_top_ranks``):
  β_{i,L}(I) = β_{i,L}(I_L) for I_L the generators dividing L, and if g
  owns a private bit of I_L, lcm(I_L ∖ g) misses that bit, so the I′
  term of the peel vanishes at L and
  β_{i,L}(I_L) = β_{i-1, L∖g}((I_L ∖ g) : g).  The chain is {} once a
  colon's OR falls below its L (a redundant mask dropped took its bits),
  one cell once every member owns a private bit, and the walk's ranks
  where none does.  It shares the colons with the recursion, but not
  the sums;
- on a split table, which does not read the subset counts, the Euler
  characteristic of each degree against the counts';
- the degree moments of the subset counts;
- and, up to ``FULL_CHECK_LIMIT`` generators, the whole table against
  the Taylor oracle, which shares the Taylor strand with this module as
  mathematics but not as code.

The sample's index subsets are drawn once per generator count with a
fixed seed.  Each nerve is ranked relative to the closed star of one
vertex (a cone, so the reduced homology is unchanged), and only its
cells are listed: the faces of the deletion of that vertex whose
intersection misses the vertex's simplex.  A single class of s members
lists one cell, not the 2^(s-1) faces of the deletion.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Iterator, Sequence

from . import taylor
from .monomials import (
    Monomial,
    MonomialIdeal,
    exponent_vectors,
    set_bit_positions,
    subset_counts,
    thermometer_masks,
)
from .simplicial import homology_ranks_of_masks, nerve_face_masks
from .tables import BettiTable, GuardError

DEFAULT_GENERATOR_GUARD = 20
# Up to FULL_CHECK_LIMIT generators every table is compared with the Taylor
# oracle.  At every size SAMPLE_CHECKS subsets whose class has at most
# SAMPLE_MAX_SIZE generators go through the nerve path, each distinct lcm
# once.  A single class lists one cell at any size (0.03 ms for 20
# members).  A shared class of s members can have 2^(s-1) - s cells: for
# the ideal (x_0, and each product of y_1..y_(s-1) but one y_i) on a
# 2-vCPU host with Python 3.11.7, s = 8 takes 0.36 ms, 12 about 12 ms and
# 16 about 0.32 s, listing included.  Only shared classes need the
# SAMPLE_MAX_SIZE bound.
FULL_CHECK_LIMIT = 10
SAMPLE_CHECKS = 16
SAMPLE_MAX_SIZE = 8

GUARD_ENV_VAR = "EIL_GUARD_GENS"


def generator_guard() -> int:
    """Maximum generator count the engine will accept (env-overridable)."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GENERATOR_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{GUARD_ENV_VAR} must be >= 1, got {value}")
    return value


def _check_generator_guard(I: MonomialIdeal) -> None:
    limit = generator_guard()
    if len(I.generators) > limit:
        raise GuardError(
            f"ideal has {len(I.generators)} generators; the guard allows {limit} "
            f"(override with {GUARD_ENV_VAR})"
        )


@dataclass(frozen=True)
class InvariantSummary:
    """Regularity, projective dimension and depth read off a Betti table."""

    reg: int
    pd: int
    depth_of_quotient: int

    @classmethod
    def of_table(cls, table: BettiTable, n: int) -> InvariantSummary:
        """The summary of a nonzero ideal of n-variable S from its table:
        depth S/I = n - pd S/I (Auslander-Buchsbaum)."""
        pd_ideal = table.pd()
        return cls(reg=table.reg(), pd=pd_ideal, depth_of_quotient=n - (pd_ideal + 1))


def _lcm_classes(masks: list[int]) -> Iterator[tuple[int, int]]:
    """Every lcm class once, as (U, lcm mask).

    U is a closed generator set, as a bitmask over generator indices: all
    the generators dividing lcm U, so every subset with that lcm lies in
    U.  A child of U adds one generator i past the last one added and
    takes the closure.  It is pruned when the closure takes in a skipped
    generator j < i, because that closed set is reached from another
    parent (the prefix-preserving closure extension of Uno et al.'s LCM
    miner).  Only generators sharing a bit with i can join the
    closure: every other non-member already failed to divide lcm U.  The
    search stack holds one frame per level, so memory is O(m).
    """
    m = len(masks)
    shared = [sum(1 << j for j in range(m) if j != i and masks[i] & masks[j]) for i in range(m)]
    # Frames: U, lcm mask, next i.
    stack = [(0, 0, 0)]
    while stack:
        U, lcm, start = stack.pop()
        for i in range(start, m):
            if U >> i & 1:
                continue
            child_lcm = lcm | masks[i]
            joined = 0
            rest = shared[i] & ~U
            while rest:
                low = rest & -rest
                if masks[low.bit_length() - 1] | child_lcm == child_lcm:
                    joined |= low
                rest ^= low
            if joined & ((1 << i) - 1):
                continue
            child = U | 1 << i | joined
            yield child, child_lcm
            stack.append((U, lcm, i + 1))
            stack.append((child, child_lcm, i + 1))
            break


def _candidate_vectors(gen_vecs: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """lcms of the nonempty generator subsets: per lcm class, its members' max."""
    return {
        tuple(map(max, zip(*(vec for k, vec in enumerate(gen_vecs) if U >> k & 1))))
        for U, _ in _lcm_classes(thermometer_masks(gen_vecs))
    }


def candidate_degrees(I: MonomialIdeal) -> set[Monomial]:
    """lcms of the nonempty subsets of G(I): the only degrees that can
    carry a Betti number."""
    if I.is_zero():
        raise ValueError("the zero ideal has no candidate degrees")
    _check_generator_guard(I)
    sup, gen_vecs = exponent_vectors(I)
    return {
        Monomial({v: e for v, e in zip(sup, b) if e}) for b in _candidate_vectors(gen_vecs)
    }


def _strand_facets(masks: list[int], lcm: int) -> list[int]:
    """Facet masks of the polarization's strand complex at the lcm mask ``lcm``.

    Each bit is a variable of the polarization, whose strand at ``lcm``
    has the faces σ ⊆ lcm that avoid some generator g dividing it
    (g | lcm == lcm); its facets are the complements lcm & ~g.
    Polarization keeps every strand's reduced homology, and distinct
    minimal generators are incomparable masks, so the facets are already
    an antichain.
    """
    return [lcm & ~g for g in masks if g | lcm == lcm]


def _strand_homology(facets: list[int]) -> dict[int, int]:
    """Nonzero reduced homology ranks of a union of one or more full simplices.

    The ranks are those of the nerve K of the cover, which is homotopy
    equivalent to the union because all intersections of simplices are
    simplices.  Only the faces of K outside the closed star of nerve
    vertex 0 are listed and ranked (the star is a cone, so
    H̃(K) ≅ H(K, st 0)): the faces of the deletion of 0 whose intersection
    misses facet 0.  If no face is left, K is that cone.  When facet 0 is
    empty, its star is empty and every face stays.
    """
    return homology_ranks_of_masks(nerve_face_masks(facets[1:], facets[0]))


def _private_bits(masks: list[int]) -> int:
    """The bits set in exactly one of ``masks``, found in one pass."""
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    return once & ~twice


def _taylor_minimal(masks: list[int]) -> bool:
    """True iff every generator owns a bit that no other generator covers.

    On G(I) it says that every subset is the only one with its lcm, so the
    Taylor resolution is minimal.
    """
    private = _private_bits(masks)
    return all(mask & private for mask in masks)


def _check_moments(T: dict[tuple[int, int], int], masks: list[int]) -> None:
    """Assert the factorial degree moments Σ_j C(j, r)·T[k, j], r = 0, 1, 2.

    A k-subset misses bit b exactly when it avoids owners(b), the
    generators whose mask has bit b.  With W bits, n = C(m, k) and
    M(x) = C(m - |x|, k), the three moments are n, W·n - Σ_b M(owners b)
    and C(W, 2)·n - (W - 1)·Σ_b M(owners b) + Σ_{b<b'} M(owners b ∪ owners b').
    Bits with one owner set are interchangeable, so the sums run over the
    distinct owner sets x, each with its c_x bits: the pairs within x
    count C(c_x, 2) times, and those across x and y count c_x·c_y times.
    """
    m, W = len(masks), max(masks).bit_length()
    owner_sets = [0] * W
    for i, mask in enumerate(masks):
        for b in set_bit_positions(mask):
            owner_sets[b] |= 1 << i
    groups = list(Counter(owner_sets).items())
    single: dict[int, int] = {}  # |x| -> bits
    pair: dict[int, int] = {}  # |x ∪ y| -> pairs of bits
    for p, (x, c) in enumerate(groups):
        s = x.bit_count()
        single[s] = single.get(s, 0) + c
        pair[s] = pair.get(s, 0) + c * (c - 1) // 2
        for y, d in groups[p + 1:]:
            u = (x | y).bit_count()
            pair[u] = pair.get(u, 0) + c * d
    got: dict[int, list[int]] = {}
    for (k, j), c in T.items():
        g = got.setdefault(k, [0, 0, 0])
        g[0] += c
        g[1] += j * c
        g[2] += j * (j - 1) // 2 * c
    sizes = sorted(single.keys() | pair.keys())
    want = {}
    for k in range(m + 1):
        n = comb(m, k)
        missed = both = 0
        for s in sizes:
            if m - s < k:
                break  # M(x) = 0 from here on
            M = comb(m - s, k)
            missed += single.get(s, 0) * M
            both += pair.get(s, 0) * M
        want[k] = [n, W * n - missed, comb(W, 2) * n - (W - 1) * missed + both]
    if got != want:
        raise AssertionError(f"subset-count degree moments {got} differ from the bit owners' {want}")


def _check_euler(entries: dict[tuple[int, int], int], T: dict[tuple[int, int], int]) -> None:
    """Assert Σ_i (-1)^i β_{i,j} = Σ_{k≥1} (-1)^(k-1) T[k, j] in every degree
    j: any resolution has the Euler characteristic of the Taylor complex."""
    gap: Counter = Counter()
    for (i, j), c in entries.items():
        gap[j] += -c if i % 2 else c
    for (k, j), c in T.items():
        if k:
            gap[j] -= c if k % 2 else -c
    wrong = {j: g for j, g in sorted(gap.items()) if g}
    if wrong:
        raise AssertionError(f"Euler characteristics minus the subset counts', by degree: {wrong}")


def _taylor_cells(members: Sequence[int], lcm: int) -> list[int]:
    """The subsets of ``members`` whose OR is ``lcm``, as bitmasks over
    member positions: a covering search that takes or leaves each member,
    and leaves one only if the members after it (their suffix OR) can
    still cover the bits missing."""
    n = len(members)
    suffix = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix[p] = suffix[p + 1] | members[p]
    cells = []
    stack = [(0, 0, 0)]  # (next position, subset, its OR)
    while stack:
        p, subset, covered = stack.pop()
        if p == n:
            cells.append(subset)
            continue
        if covered | suffix[p + 1] == lcm:
            stack.append((p + 1, subset, covered))
        stack.append((p + 1, subset | 1 << p, covered | members[p]))
    return cells


def _class_ranks(members: list[int], lcm: int, ranked: dict[tuple[int, ...], dict[int, int]]) -> dict[int, int]:
    """Nonzero homology ranks of the Taylor strand at ``lcm``, keyed by the
    table's index i (cells of i+1 members), read off the core as the
    module docstring says: the forced members shift it, an empty core is
    one cell, and a free core member makes it a cone.  ``ranked`` maps
    each restricted core met so far (whose OR is its needed bits) to its
    unshifted ranks, so that a core shared by many classes is ranked
    once."""
    private = _private_bits(members)
    forced = covered = 0
    core = []
    for mask in members:
        if mask & private:
            forced += 1
            covered |= mask
        else:
            core.append(mask)
    if not core:
        return {forced - 1: 1}
    needed = lcm & ~covered
    restricted = tuple([mask & needed for mask in core])
    if not all(restricted):
        return {}
    if restricted not in ranked:
        ranked[restricted] = homology_ranks_of_masks(_taylor_cells(restricted, needed))
    return {i + forced: r for i, r in ranked[restricted].items()}


def _walk(masks: list[int], ranked: dict[tuple[int, ...], dict[int, int]]) -> dict[tuple[int, int], int]:
    """The table of ``masks`` as the sum of the classes' ranks, every lcm
    class walked."""
    entries: dict[tuple[int, int], int] = {}
    for U, lcm in _lcm_classes(masks):
        j = lcm.bit_count()
        for i, r in _class_ranks([mask for k, mask in enumerate(masks) if U >> k & 1], lcm, ranked).items():
            entries[i, j] = entries.get((i, j), 0) + r
    return entries


def _colon(masks: list[int], g: int) -> list[int]:
    """Minimal generators of (masks ∖ g) : g, for an antichain ``masks``
    holding g: each h & ~g, minus those containing another.

    Only the masks meeting g shrink.  An untouched mask cannot contain
    another untouched one (an antichain) nor lie in a shrunk h & ~g (it
    would lie in h), so only the shrunk masks can make others redundant.
    """
    kept, shrunk = [], set()
    for h in masks:
        if not h & g:
            kept.append(h)
        elif h != g:
            shrunk.add(h & ~g)
    shrunk = [s for s in shrunk if not any(t != s and t & s == t for t in shrunk)]
    return [h for h in kept if not any(s & h == s for s in shrunk)] + shrunk


def _components(masks: list[int]) -> list[list[int]]:
    """The masks grouped by the connected components of the graph in which
    two masks are adjacent when they share a bit.  Each group's OR is
    disjoint from the others', so a mask meets exactly the groups it joins."""
    parts: list[tuple[int, list[int]]] = []  # (OR of the group, its masks)
    for mask in masks:
        bits, group, apart = mask, [mask], []
        for part in parts:
            if part[0] & mask:
                bits |= part[0]
                group += part[1]
            else:
                apart.append(part)
        apart.append((bits, group))
        parts = apart
    return [group for _, group in parts]


def _peel_choice(masks: list[int]) -> int | None:
    """The generator to peel: of those owning a bit no other covers, the
    first sharing bits with the most others; None if none owns one."""
    private = _private_bits(masks)
    owners = [g for g in masks if g & private]
    if not owners:
        return None
    return max(owners, key=lambda g: sum(1 for h in masks if h & g))


def _peel(rest: dict[tuple[int, int], int], degree: int, colon: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """β(I) = β(I′) + e_{0, deg g} + shift_{(1, deg g)} β(I′ : g), the
    splitting of I = (g) + I′ along a private bit of g."""
    out = dict(rest)
    out[0, degree] = out.get((0, degree), 0) + 1
    for (i, j), c in colon.items():
        key = i + 1, j + degree
        out[key] = out.get(key, 0) + c
    return out


def _product(a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The table of I + J on disjoint bits: the quotients' polynomials
    1 + t·A and 1 + t·B multiply, so β = A + B + t·A·B."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    for (i, j), c in a.items():
        for (i2, j2), c2 in b.items():
            key = i + i2 + 1, j + j2
            out[key] = out.get(key, 0) + c * c2
    return out


def _split_table(masks: list[int]) -> dict[tuple[int, int], int]:
    """The table of the antichain ``masks`` by recursive Betti splittings,
    each distinct subproblem once (see the module docstring)."""
    memo: dict[frozenset[int], dict[tuple[int, int], int]] = {}
    ranked: dict[tuple[int, ...], dict[int, int]] = {}  # see _class_ranks

    def table(masks: list[int]) -> dict[tuple[int, int], int]:
        key = frozenset(masks)
        out = memo.get(key)
        if out is not None:
            return out
        if len(masks) == 1:
            out = {(0, masks[0].bit_count()): 1}
        elif len(masks) == 2:  # two incomparable masks each own a bit: the Taylor cells
            a, b = masks[0].bit_count(), masks[1].bit_count()
            out = {(0, a): 2} if a == b else {(0, a): 1, (0, b): 1}
            out[1, (masks[0] | masks[1]).bit_count()] = 1
        else:
            parts = _components(masks)
            if len(parts) > 1:
                out = reduce(_product, map(table, parts))
            else:
                g = _peel_choice(masks)
                if g is None:
                    out = _walk(masks, ranked)
                else:
                    out = _peel(table([h for h in masks if h != g]), g.bit_count(), table(_colon(masks, g)))
        memo[key] = out
        return out

    return table(masks)


def _top_ranks(masks: list[int], lcm: int, ranked: dict[tuple[int, ...], dict[int, int]]) -> dict[int, int]:
    """Nonzero β_{i, lcm} of the ideal of ``masks``, the generators dividing
    ``lcm``, by index i: a chain of colons (see the module docstring)."""
    shift = 0
    while reduce(or_, masks) == lcm:
        private = _private_bits(masks)
        owners = [mask for mask in masks if mask & private]
        if len(owners) == len(masks):
            return {shift + len(masks) - 1: 1}  # Taylor-minimal: one cell, the whole set
        if not owners:
            return {i + shift: r for i, r in _class_ranks(masks, lcm, ranked).items()}
        g = owners[0]
        masks, lcm, shift = _colon(masks, g), lcm & ~g, shift + 1
    return {}


@lru_cache(maxsize=64)
def _draws(m: int) -> tuple[tuple[int, ...], ...]:
    """``SAMPLE_CHECKS`` fixed-seed subsets of range(m), each of at most
    ``SAMPLE_MAX_SIZE`` indices in the order ``random.sample`` gives them."""
    rng = random.Random(0)
    return tuple(
        tuple(rng.sample(range(m), rng.randint(1, min(m, SAMPLE_MAX_SIZE))))
        for _ in range(SAMPLE_CHECKS)
    )


def _sample(masks: list[int]) -> list[tuple[int, int, list[int]]]:
    """The ``_draws`` of this many generators, as (size, lcm mask, facets),
    with the strand facets at the lcm that the nerve check ranks.

    A draw whose lcm class (the generators dividing its lcm) has more
    than ``SAMPLE_MAX_SIZE`` members drops its last index until its class
    fits.  The indices come in random order, so each drop is a uniformly
    random member.  A single generator is its own class, so none is
    skipped; on a Taylor-minimal ideal each class is its draw, and no
    draw is shrunk.
    """
    sample = []
    for draw in _draws(len(masks)):
        size = len(draw)
        while True:
            lcm = 0
            for i in draw[:size]:
                lcm |= masks[i]
            facets = _strand_facets(masks, lcm)
            if len(facets) <= SAMPLE_MAX_SIZE:
                break
            size -= 1
        sample.append((size, lcm, facets))
    return sample


def betti_table(I: MonomialIdeal) -> BettiTable:
    """The graded Betti table of I (``of_ideal`` convention): the subset
    counts when I is Taylor-minimal, otherwise the recursive Betti
    splittings, and the checks of the module docstring."""
    if I.is_zero():
        return BettiTable("of_ideal", {})
    _check_generator_guard(I)
    _, gen_vecs = exponent_vectors(I)
    masks = thermometer_masks(gen_vecs)
    counts = subset_counts(masks)
    sample = _sample(masks)
    minimal = _taylor_minimal(masks)
    if minimal:
        entries = {(k - 1, j): c for (k, j), c in counts.items() if k}
    else:
        entries = _split_table(masks)

    by_degree = dict(Counter(g.degree() for g in I.generators))
    row0 = {j: c for (i, j), c in entries.items() if i == 0 and c}
    if row0 != by_degree:
        raise AssertionError(f"row 0 {row0} does not match generator degrees {by_degree}")

    nerve: dict[int, dict[int, int]] = {}  # sampled lcm mask -> its strand's ranks, by the nerve
    chain: dict[int, dict[int, int]] = {}  # and, on a split table, by the colon chain
    ranked: dict[tuple[int, ...], dict[int, int]] = {}  # see _class_ranks
    for size, lcm, facets in sample:
        if not counts.get((size, lcm.bit_count())):
            raise AssertionError(f"sampled cell of {size} generators has no count at its lcm degree")
        # One lcm has one set of facets and one class, so each distinct lcm
        # is ranked once.
        if lcm not in nerve:
            nerve[lcm] = {d + 1: r for d, r in _strand_homology(facets).items()}
            if not minimal:
                chain[lcm] = _top_ranks([g for g in masks if g | lcm == lcm], lcm, ranked)
        got = nerve[lcm]
        want = {size - 1: 1} if minimal else chain[lcm]
        if got != want:
            raise AssertionError(
                f"strand at the lcm of {size} sampled generators (degree {lcm.bit_count()}): "
                f"the nerve gives {got}, the table {want}"
            )
    if not minimal:
        _check_euler(entries, counts)
    _check_moments(counts, masks)
    table = BettiTable("of_ideal", entries)

    if len(masks) <= FULL_CHECK_LIMIT:
        oracle = taylor.taylor_betti_table(I)
        if table != oracle:
            raise AssertionError(f"table {table} differs from the Taylor oracle {oracle}")
    return table


def invariants(I: MonomialIdeal, table: BettiTable | None = None) -> InvariantSummary:
    """reg, pd and depth of S/I (Auslander-Buchsbaum) from the Betti table.

    ``table`` is I's table when the caller already has it; otherwise it
    is computed.
    """
    if I.is_zero():
        raise ValueError("the zero ideal has no invariant summary")
    if table is None:
        table = betti_table(I)
    return InvariantSummary.of_table(table, len(I.ambient))
