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
and the counts are the table.  Otherwise a depth-first search walks the
closed sets, and each class is read off its core (``_class_ranks``):

- a *forced* member owns a bit no other member of U covers, so it lies
  in every cell, and it shifts the strand's indices up by one;
- the *core* is the rest of U, restricted to the *needed* bits that the
  forced members miss; an empty core is a single class, one cell;
- a *free* core member has no needed bit, so the strand is a cone with
  no homology, and the class adds nothing;
- any other core (at most four members on the ideals measured so far)
  has its cells listed and ranked as sparse integer rows.

Everything is exact, and every table is checked, in this order: row 0
against the generator degrees; a sample of strands taken a second way,
through the nerve of the polarization's strand complex, once per
distinct lcm drawn; on a walked table, which does not read the subset
counts, the Euler characteristic of each degree against the counts'; the
degree moments of the subset counts; and, up to ``FULL_CHECK_LIMIT``
generators, the whole table against the Taylor oracle, which shares the
Taylor strand with this module as mathematics but not as code.

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
from functools import lru_cache
from math import comb
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
    counts when I is Taylor-minimal, otherwise the sum of the walked
    classes' ranks, and the checks of the module docstring."""
    if I.is_zero():
        return BettiTable("of_ideal", {})
    _check_generator_guard(I)
    _, gen_vecs = exponent_vectors(I)
    masks = thermometer_masks(gen_vecs)
    counts = subset_counts(masks)
    sample = _sample(masks)
    sampled = {lcm for _, lcm, _ in sample}
    walked: dict[int, dict[int, int]] = {}  # sampled lcm mask -> its class's nonzero ranks
    ranked: dict[tuple[int, ...], dict[int, int]] = {}  # see _class_ranks
    minimal = _taylor_minimal(masks)
    if minimal:
        entries = {(k - 1, j): c for (k, j), c in counts.items() if k}
    else:
        entries = {}
        for U, lcm in _lcm_classes(masks):
            ranks = _class_ranks([mask for k, mask in enumerate(masks) if U >> k & 1], lcm, ranked)
            j = lcm.bit_count()
            for i, r in ranks.items():
                entries[i, j] = entries.get((i, j), 0) + r
            if lcm in sampled:
                walked[lcm] = ranks

    by_degree = dict(Counter(g.degree() for g in I.generators))
    row0 = {j: c for (i, j), c in entries.items() if i == 0 and c}
    if row0 != by_degree:
        raise AssertionError(f"row 0 {row0} does not match generator degrees {by_degree}")

    nerve: dict[int, dict[int, int]] = {}  # sampled lcm mask -> its strand's ranks, by the nerve
    for size, lcm, facets in sample:
        if not counts.get((size, lcm.bit_count())):
            raise AssertionError(f"sampled cell of {size} generators has no count at its lcm degree")
        # One lcm has one set of facets, so each distinct lcm is ranked once.
        if lcm not in nerve:
            nerve[lcm] = {d + 1: r for d, r in _strand_homology(facets).items()}
        got = nerve[lcm]
        want = walked.get(lcm, {size - 1: 1})
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
    n = len(I.ambient)
    pd_ideal = table.pd()
    return InvariantSummary(
        reg=table.reg(),
        pd=pd_ideal,
        depth_of_quotient=n - (pd_ideal + 1),
    )
