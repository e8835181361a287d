"""Betti splittings along a cycle edge of the polarized edge ideal.

Splitting off the polarized generator K of one cycle edge leaves J, the
polarization of the edge ideal of the graph minus that edge (a rooted
tree).  Because K is principal it has a linear resolution, so

    β_{i,j}(I) = β_{i,j}(J) + β_{i,j}(K) + β_{i-1,j}(J ∩ K)

holds at every (i, j), with the consequences
reg(I) = max{reg J, reg K, reg(J∩K) - 1} and
pd(I) = max{pd J, pd K, pd(J∩K) + 1}.  Because K = (k) is principal,
J ∩ K = k·(J : k), and the engine reads J∩K's table off the colon ideal
J : k.  split_and_check returns the pair, the identity's verdict and the
graph's closed-form prediction; the splitting argument puts J∩K's
invariants one step off the graph's: reg(J∩K) = reg_pred + 1 and
pd(J∩K) = pd_pred - 1.

Run:  python3 demos/04_betti_splitting.py
"""

from edgeideals import WeightedDigraph, split_and_check

D = WeightedDigraph(
    [("x1", 5), ("x2", 3), ("x3", 2), ("x4", 4)],
    [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")],
)

pair, verdict, prediction = split_and_check(D)

print("split edge:", "->".join(pair.split_edge))
print("K =", pair.K)
print("J =", pair.J)
print()
print("K has a linear resolution:", len({j - i for i, j in verdict.table_K.entries}) == 1)
print("identity holds at every (i, j):", verdict.is_splitting)
print("reg max-formula:", verdict.reg_formula_holds)
print("pd  max-formula:", verdict.pd_formula_holds)
print()
print(f"reg(J∩K) = {verdict.table_JK.reg()}  (splitting argument: {prediction.reg_pred + 1})")
print(f"pd(J∩K)  = {verdict.table_JK.pd()}  (splitting argument: {prediction.pd_pred - 1})")
print()
print("Betti table of the polarized edge ideal:")
print(verdict.table_I.render_grid())
