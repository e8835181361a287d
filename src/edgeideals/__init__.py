"""Exact invariants of edge ideals of vertex-weighted oriented graphs.

Library layout:

- :mod:`edgeideals.monomials` — monomial/ideal arithmetic and polarization
- :mod:`edgeideals.digraphs`  — weighted oriented graphs, their classes and weight hypothesis, edge ideals
- :mod:`edgeideals.simplicial` — exact homology ranks of face bitmasks
- :mod:`edgeideals.betti`     — the Betti engine: subset counts, plus recursive Betti splittings for non-minimal ideals
- :mod:`edgeideals.taylor`    — independent Taylor-resolution oracle
- :mod:`edgeideals.tables`    — the Betti table type and the sizing guards' error, shared by both
- :mod:`edgeideals.formulas`  — closed-form predictions and Betti splittings
- :mod:`edgeideals.cli`       — the ``eil`` command, which renders every output format
"""

from .betti import (
    BettiTable,
    GuardError,
    InvariantSummary,
    betti_table,
    candidate_degrees,
    invariants,
)
from .digraphs import (
    GraphClass,
    GraphClassTag,
    WeightedDigraph,
    check_hypotheses,
    classify,
    components,
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
    predict,
    split_and_check,
    verify_formula,
)
from .monomials import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    Variable,
    intersect,
    make_ideal,
    parse_ideal,
    parse_monomial,
    polarize,
    polarize_monomial,
)
from .taylor import euler_characteristic_check, taylor_betti_table

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "FormulaPrediction",
    "GraphClass",
    "GraphClassTag",
    "GuardError",
    "IdealSyntaxError",
    "InvariantReport",
    "InvariantSummary",
    "Monomial",
    "MonomialIdeal",
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
    "edge_ideal",
    "euler_characteristic_check",
    "intersect",
    "invariants",
    "make_ideal",
    "normalize_source_weights",
    "parse_ideal",
    "parse_monomial",
    "polarize",
    "polarize_monomial",
    "predict",
    "random_instance",
    "split_and_check",
    "taylor_betti_table",
    "verify_formula",
]
