"""Independent Betti-number oracle built on the Taylor resolution.

The Taylor complex on the minimal generators (one basis element per
generator subset, in multidegree lcm of the subset) resolves S/I; its
strand in a fixed multidegree, after killing the nonunit entries,
computes the same graded Betti numbers as the minimal resolution.  The
engine in ``betti`` reads its tables off the same strands but shares no
code with this oracle, which groups all 2^m subsets by exponent vector
and eliminates dense matrices over ``Fraction``.  A strand that holds a
single subset S is one cell, counted at (|S| - 1, deg lcm S) with no
matrix.

Also home to the Euler-characteristic identity: for each degree j the
alternating sum of β_{i,j}(S/I) equals the alternating subset count
Σ_{S ⊆ G(I)} (-1)^{|S|} [deg lcm(S) = j], which holds for any resolution.
Its subset side is T(-1, u), read off the subset counts T(t, u) of
``monomials.subset_counts``, so it lists no subsets and needs no size
bound.  The engine's tables satisfy it by construction; tests and demos
check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .monomials import MonomialIdeal, exponent_vectors, subset_counts, thermometer_masks

TAYLOR_GUARD = 16  # generators; the oracle visits all 2^m subsets


def rank_over_q(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(m)):
            row = m[r]
            if row[col]:
                factor = row[col] * inv
                for c in range(col, ncols):
                    row[c] -= factor * prow[c]
        rank += 1
        if rank == len(m):
            break
    return rank


def _subset_lcms(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """Exponent-vector lcm for every generator subset mask."""
    _, gens = exponent_vectors(I)
    n = len(gens[0])
    m = len(gens)
    lcms: list[tuple[int, ...]] = [(0,) * n] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        lcms[mask] = tuple(map(max, lcms[mask ^ low], gens[low.bit_length() - 1]))
    return lcms


def taylor_betti_table(I: MonomialIdeal):
    """Betti table of I from Taylor strands (``of_ideal`` convention)."""
    from .betti import BettiTable, GuardError  # local import: the engine also imports us

    if I.is_zero():
        return BettiTable("of_ideal", {})
    m = len(I.generators)
    if m > TAYLOR_GUARD:
        raise GuardError(f"Taylor oracle enumerates 2^{m} subsets; refusing beyond 2^{TAYLOR_GUARD}")
    lcms = _subset_lcms(I)

    strands: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1, 1 << m):
        strands.setdefault(lcms[mask], []).append(mask)

    entries: dict[tuple[int, int], int] = {}
    for b, masks in strands.items():
        j = sum(b)
        if len(masks) == 1:
            # A lone subset S is the strand's only cell: β_{|S|-1, j} gets 1.
            key = (masks[0].bit_count() - 1, j)
            entries[key] = entries.get(key, 0) + 1
            continue
        by_size: dict[int, list[int]] = {}
        for mask in masks:
            by_size.setdefault(bin(mask).count("1"), []).append(mask)
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

    def mismatches(self) -> dict[int, tuple[int, int]]:
        return {j: pair for j, pair in self.per_degree.items() if pair[0] != pair[1]}


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
