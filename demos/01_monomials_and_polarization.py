"""Monomial ideal arithmetic: minimal generators, lcm, intersection and
polarization.

Run:  python3 demos/01_monomials_and_polarization.py
"""

from edgeideals import (
    intersect,
    make_ideal,
    parse_ideal,
    parse_monomial,
    polarize,
)

# Ideals are written with '*' between variables and '^' for exponents.
I = parse_ideal("(x1*x2^3, x2*x3^2)")
print("I  =", I)

# make_ideal minimalizes: a generator divisible by another is dropped.
J = make_ideal(
    [parse_monomial("x1*x2"), parse_monomial("x1*x2*x3")],
    I.ambient,
)
print("minimalized:", J)

# lcm is the componentwise maximum of exponents.
u = parse_monomial("x1*x2^3")
v = parse_monomial("x2*x3^2")
print(f"lcm({u}, {v}) =", u.lcm(v))

# Intersections of monomial ideals come from pairwise lcms.
A = parse_ideal("(x1*x2^2, x3)")
B = parse_ideal("(x1*x2^2)")
print(f"{A} ∩ {B} =", intersect(make_ideal(A.generators, A.ambient), make_ideal(B.generators, A.ambient)))

# Polarization replaces x^a by a product of a distinct indexed variables,
# producing a squarefree ideal with the same graded Betti table.
W = parse_ideal("(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)")
print("\nweighted cycle ideal:", W)
print("its polarization:    ", polarize(W))
