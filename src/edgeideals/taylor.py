"""Independent Betti-number oracle built on the Taylor resolution.

The Taylor complex on the minimal generators (one basis element per
generator subset, in multidegree lcm of the subset) resolves S/I; its
strand in a fixed multidegree, after killing the nonunit entries,
computes the same graded Betti numbers as the minimal resolution.  The
engine in ``betti`` reads its tables off the same strands, but this
oracle shares only the monomial types with it: it reads the exponents
itself, groups all 2^m subsets by an integer lcm code of its own and
ranks dense boundary matrices by fraction-free (Bareiss) elimination
over the integers.  A strand that holds a single
subset S is one cell, counted at (|S| - 1, deg lcm S) with no matrix;
those cells are counted in one pass of C loops (``Counter`` and ``map``
over the codes), and only the subsets of a shared code are listed.

Also home to the Euler-characteristic identity: for each degree j the
alternating sum of β_{i,j}(S/I) equals the alternating subset count
Σ_{S ⊆ G(I)} (-1)^{|S|} [deg lcm(S) = j], which holds for any resolution.
Its subset side is T(-1, u), read off the subset counts T(t, u) of
``monomials.subset_counts``, so it lists no subsets and needs no size
bound.  The engine checks its split tables against the same identity
(``betti._check_euler``); tests and demos call this one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from operator import add

from .monomials import MonomialIdeal, exponent_vectors, subset_counts, thermometer_masks
from .tables import BettiTable, GuardError

TAYLOR_GUARD = 16  # generators; the oracle visits all 2^m subsets


def rank_over_q(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix by dense Bareiss elimination.

    Fraction-free: pivots are taken column by column (swapping rows as
    needed), and each row below the pivot p becomes
    (p·row − x·prow) // prev, where x is its entry in the pivot column and
    prev the previous pivot.  Every entry stays a minor of the input, so
    the division is exact and the rank is the rank over Q.  When p = prev,
    rows with x = 0 are left as they are.  A pivot row with p = −prev is
    negated first, as if its input row were, which keeps the rank and makes
    p = prev.
    """
    m = [list(row) for row in rows if any(row)]
    if not m:
        return 0
    rank, prev = 0, 1
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        ptail = m[rank][col:]
        if ptail[0] == -prev:
            ptail = [-a for a in ptail]
        p = ptail[0]
        for row in m[rank + 1:]:
            x = row[col]
            if x or p != prev:
                row[col:] = [(p * a - x * b) // prev for a, b in zip(row[col:], ptail)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def _subset_lcms(I: MonomialIdeal) -> list[int]:
    """lcm code of every generator subset, indexed by mask (bit k = generator k).

    The oracle's own encoding, read off ``Monomial.exponents`` rather than
    taken from ``monomials.exponent_vectors`` or ``thermometer_masks``,
    so that a fault in the engine's encoding cannot hide in the oracle
    too.  Each ambient variable gets a unary field as wide as its largest
    exponent (none outside the support), and exponent e sets the field's
    low e bits.  The code is injective, the lcm of a subset is the OR of
    its generators' codes, and its degree is the code's ``bit_count()``.
    The 2^m codes are built by doubling and hold W bits each, W being the
    total exponent width (the engine's mask width).
    """
    exponents = [g.exponents for g in I.generators]  # each generator read once
    width = dict.fromkeys(I.ambient, 0)
    for exp in exponents:
        for v, e in exp.items():
            width[v] = max(width[v], e)
    offset = dict(zip(width, accumulate(width.values(), initial=0)))  # fields in ambient order
    lcms = [0]
    for exp in exponents:
        g = 0
        for v, e in exp.items():
            g |= ((1 << e) - 1) << offset[v]
        lcms += [c | g for c in lcms]
    return lcms


@lru_cache(maxsize=TAYLOR_GUARD + 1)
def _subset_sizes(m: int) -> tuple[int, ...]:
    """|S| of every subset of m generators, indexed by mask."""
    return tuple(map(int.bit_count, range(1 << m)))


def taylor_betti_table(I: MonomialIdeal) -> BettiTable:
    """Betti table of I from Taylor strands (``of_ideal`` convention).

    Every subset is first counted as one cell by its size and lcm degree.
    The subsets of each code that more than one subset has are taken back
    out and ranked as a strand: the simplex on them relative to the
    subsets of smaller lcm, one dense boundary matrix per size.
    """
    if I.is_zero():
        return BettiTable("of_ideal", {})
    m = len(I.generators)
    if m > TAYLOR_GUARD:
        raise GuardError(f"Taylor oracle enumerates 2^{m} subsets; refusing beyond 2^{TAYLOR_GUARD}")
    lcms = _subset_lcms(I)
    sizes = _subset_sizes(m)
    # Every subset S is first counted as one cell at (|S|, deg lcm S), in C
    # loops over keys deg·(m + 1) + |S|.  The subsets of a shared code are
    # then taken back out and form a strand whose boundary is ranked.
    stride = m + 1
    cells = Counter(map(add, sizes, map(stride.__mul__, map(int.bit_count, lcms))))
    strands: dict[int, list[int]] = {}
    if len(set(lcms)) < len(lcms):
        shared = {code for code, n in Counter(lcms).items() if n > 1}
        for mask in compress(range(1 << m), map(shared.__contains__, lcms)):
            strands.setdefault(lcms[mask], []).append(mask)
            cells[sizes[mask] + stride * lcms[mask].bit_count()] -= 1
    # A lone subset S is its strand's only cell: β_{|S|-1, j} gets 1.  The
    # empty subset (key 0) is lone too and is dropped.
    entries = {(key % stride - 1, key // stride): c for key, c in cells.items() if c and key}

    for code, masks in strands.items():
        j = code.bit_count()
        by_size: dict[int, list[int]] = {}
        for mask in masks:
            by_size.setdefault(mask.bit_count(), []).append(mask)
        top = max(by_size)
        boundary_rank: dict[int, int] = {}
        for k in range(2, top + 1):
            if k not in by_size or (k - 1) not in by_size:
                boundary_rank[k] = 0
                continue
            lower_index = {mask: r for r, mask in enumerate(by_size[k - 1])}
            mat = [[0] * len(by_size[k]) for _ in by_size[k - 1]]
            for c, mask in enumerate(by_size[k]):
                sign = 1
                rest = mask
                while rest:
                    low = rest & -rest
                    target = mask ^ low
                    r = lower_index.get(target)
                    if r is not None:
                        mat[r][c] = sign
                    sign = -sign
                    rest ^= low
            boundary_rank[k] = rank_over_q(mat)
        # Homology of the strand: β_{k,b}(S/I) for k = |subset|; shift to the
        # ideal convention (i = k - 1).  ∂_1 lands in the empty subset, whose
        # lcm is 1 ≠ b, so it is zero on every strand here.
        for k, members in by_size.items():
            h = len(members) - boundary_rank.get(k, 0) - boundary_rank.get(k + 1, 0)
            if h:
                key = (k - 1, j)
                entries[key] = entries.get(key, 0) + h
    return BettiTable("of_ideal", entries)


@dataclass(frozen=True)
class EulerCheck:
    ok: bool
    per_degree: dict[int, tuple[int, int]]  # j -> (table side, subset side)


def euler_characteristic_check(I: MonomialIdeal, table) -> EulerCheck:
    """Compare alternating Betti sums per degree with alternating subset counts.

    ``table`` may use either convention; it is translated to S/I.  The
    subset side T(-1, u) counts the empty subset in degree 0, as β_{0,0}(S/I).
    """
    quotient = table.to_quotient()
    lhs: dict[int, int] = {}
    for (i, j), c in quotient.entries.items():
        lhs[j] = lhs.get(j, 0) + (c if i % 2 == 0 else -c)
    rhs: dict[int, int] = {}
    for (k, j), c in subset_counts(thermometer_masks(exponent_vectors(I)[1])).items():
        rhs[j] = rhs.get(j, 0) + (c if k % 2 == 0 else -c)
    per_degree = {
        j: (lhs.get(j, 0), rhs.get(j, 0)) for j in sorted(set(lhs) | set(rhs))
    }
    ok = all(a == b for a, b in per_degree.values())
    return EulerCheck(ok=ok, per_degree=per_degree)
