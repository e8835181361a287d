"""Exact invariants of edge ideals of vertex-weighted oriented graphs.

Library layout:

- :mod:`edgeideals.monomials` — monomial/ideal arithmetic and polarization
- :mod:`edgeideals.digraphs`  — weighted oriented graphs, classes, edge ideals
- :mod:`edgeideals.simplicial` — complexes and exact homology ranks
- :mod:`edgeideals.betti`     — the Betti engine: subset counts, plus the lcm-class walk for shared classes
- :mod:`edgeideals.taylor`    — independent Taylor-resolution oracle
- :mod:`edgeideals.formulas`  — closed-form predictions and Betti splittings
- :mod:`edgeideals.cli`       — the ``eil`` command
"""

from .betti import (
    BettiTable,
    GuardError,
    InvariantSummary,
    betti_table,
    candidate_degrees,
    invariants,
    strand_complex,
)
from .digraphs import (
    GraphClass,
    GraphClassTag,
    HypothesisReport,
    WeightedDigraph,
    check_hypotheses,
    classify,
    components,
    delete_edge,
    delete_vertex,
    edge_ideal,
    normalize_source_weights,
    random_instance,
)
from .formulas import (
    FormulaPrediction,
    InvariantReport,
    SplitPair,
    SplittingVerdict,
    build_split,
    check_betti_splitting,
    has_linear_resolution,
    predict,
    split_and_check,
    verify_formula,
)
from .monomials import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    Variable,
    ideal_sum,
    intersect,
    lcm_of,
    make_ideal,
    multiply_external,
    parse_ideal,
    parse_monomial,
    polarize,
    polarize_monomial,
)
from .simplicial import SimplicialComplexOnSupport, reduced_homology_ranks
from .taylor import euler_characteristic_check, taylor_betti_table

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "FormulaPrediction",
    "GraphClass",
    "GraphClassTag",
    "GuardError",
    "HypothesisReport",
    "IdealSyntaxError",
    "InvariantReport",
    "InvariantSummary",
    "Monomial",
    "MonomialIdeal",
    "SimplicialComplexOnSupport",
    "SplitPair",
    "SplittingVerdict",
    "Variable",
    "WeightedDigraph",
    "betti_table",
    "build_split",
    "candidate_degrees",
    "check_betti_splitting",
    "check_hypotheses",
    "classify",
    "components",
    "delete_edge",
    "delete_vertex",
    "edge_ideal",
    "euler_characteristic_check",
    "has_linear_resolution",
    "ideal_sum",
    "intersect",
    "invariants",
    "lcm_of",
    "make_ideal",
    "multiply_external",
    "normalize_source_weights",
    "parse_ideal",
    "parse_monomial",
    "polarize",
    "polarize_monomial",
    "predict",
    "random_instance",
    "reduced_homology_ranks",
    "split_and_check",
    "strand_complex",
    "taylor_betti_table",
    "verify_formula",
]
