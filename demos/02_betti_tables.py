"""Exact graded Betti tables from strand complexes.

The Betti number β_{i,b} at a multidegree b is the reduced homology rank
(one dimension down) of the complex of squarefree σ ⊆ supp(b) with
x^{b-σ} still in the ideal.  Summing over the lcm lattice of the
generators gives the full table, from which regularity, projective
dimension and depth read off.

Run:  python3 demos/02_betti_tables.py
"""

from itertools import combinations

from edgeideals import (
    Monomial,
    betti_table,
    candidate_degrees,
    euler_characteristic_check,
    invariants,
    parse_ideal,
    parse_monomial,
    polarize,
    taylor_betti_table,
)

I = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)")
print("I =", I)

print("\ncandidate multidegrees (lcms of generator subsets):")
for b in sorted(candidate_degrees(I)):
    print("  ", b)

b = parse_monomial("x1*x2^3*x3^2")
support = sorted(b.support())
strand = [
    sigma
    for r in range(len(support) + 1)
    for sigma in combinations(support, r)
    if Monomial({v: b.exponent(v) - (v in sigma) for v in support}) in I
]
print(f"\nstrand complex at {b}: {sorted(sorted(str(v) for v in f) for f in strand)}")

table = betti_table(I)
print("\nBetti table (columns i, rows j - i):")
print(table.render_grid())

inv = invariants(I)
print(f"\nreg = {inv.reg}, pd = {inv.pd}, depth(S/I) = {inv.depth_of_quotient}")

# Independent cross-checks: the Taylor-resolution oracle walks generator
# subsets instead of strand complexes, and polarization must not change
# the table at all.
assert taylor_betti_table(I).entries == table.entries
assert betti_table(polarize(I)).entries == table.entries
assert euler_characteristic_check(I, table).ok
print("\nTaylor oracle, polarization invariance and Euler identity all agree.")
