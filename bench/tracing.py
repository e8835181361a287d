"""In-memory span tracing of the engine's layers, from outside the engine.

Each layer's entry point is rebound, in the module where its caller
looks it up, to a wrapper that records a span (name, start, end, parent,
operation) and a few counts taken from the call's arguments or result.
Nothing under ``src/`` changes; ``Tracer.close`` restores every binding.
"""

from __future__ import annotations

import time

# (module attribute holding the caller's binding, function name, span name).
# A function imported by name into several modules is rebound in each.
LAYER_BINDINGS = [
    ("simplicial", "exact_rank", "simplicial.exact_rank"),
    ("simplicial", "boundary_matrix", "simplicial.boundary_matrix"),
    ("betti", "homology_ranks_of_masks", "simplicial.homology"),
    ("betti", "nerve_face_masks", "simplicial.nerve"),
    ("betti", "_candidate_vectors", "betti.candidate_closure"),
    ("betti", "_strand_facets", "betti.strand_facets"),
    ("betti", "_strand_homology", "betti.strand_homology"),
    ("betti", "betti_table", "betti.betti_table"),
    ("formulas", "betti_table", "betti.betti_table"),
    ("cli", "betti_table", "betti.betti_table"),
    ("taylor", "euler_characteristic_check", "taylor.euler_check"),
    ("taylor", "_subset_lcms", "taylor.subset_lcms"),
    ("formulas", "polarize", "monomials.polarize"),
    ("fixtures", "polarize", "monomials.polarize"),
    ("formulas", "intersect", "monomials.intersect"),
    ("cli", "parse_ideal", "monomials.parse_ideal"),
    ("digraphs", "random_instance", "digraphs.random_instance"),
    ("digraphs", "classify", "digraphs.classify"),
    ("formulas", "classify", "digraphs.classify"),
    ("formulas", "predict", "formulas.predict"),
    ("formulas", "verify_formula", "formulas.verify_formula"),
    ("cli", "verify_formula", "formulas.verify_formula"),
    ("fixtures", "verify_formula", "formulas.verify_formula"),
    ("formulas", "check_betti_splitting", "formulas.check_betti_splitting"),
    ("cli", "main", "cli.main"),
]

# Span fields.
NAME, START, END, PARENT, OP, OK = range(6)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self, engine):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.euler_wanted: set[int] = set()  # betti_table spans asked to run the Euler check
        self._stack: list[int] = []
        self._op = -1
        self._restore = []
        for module_name, attr, span_name in LAYER_BINDINGS:
            module = getattr(engine, module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, False])
        self._stack.append(index)
        return index

    def end(self, index: int, ok: bool) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[OK] = ok
        self._stack.pop()

    def run_op(self, kind: str, call):
        """Run one benchmark operation under a root span ``op.<kind>``."""
        index = self.open(f"op.{kind}")
        self._op = index
        ok = False
        try:
            result = call()
            ok = True
            return result
        finally:
            self.end(index, ok)
            self._op = -1

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            ok = False
            try:
                if name == "simplicial.exact_rank":
                    rows = args[0]
                    cells = len(rows) * len(rows[0]) if rows else 0
                    tracer._count("simplicial.rank_cells", cells)
                    if cells > tracer.counts.get("simplicial.max_matrix_cells", 0):
                        tracer.counts["simplicial.max_matrix_cells"] = cells
                elif name == "betti.betti_table" and kwargs.get("check_euler", True):
                    tracer.euler_wanted.add(index)
                result = fn(*args, **kwargs)
                if name == "simplicial.nerve":
                    tracer._count("simplicial.nerve_faces", len(result))
                elif name == "betti.candidate_closure":
                    tracer._count("betti.candidates", len(result))
                elif name == "betti.strand_homology" and result:
                    tracer._count("betti.nonzero_strands")
                ok = True
                return result
            finally:
                tracer.end(index, ok)

        traced.__wrapped__ = fn
        return traced


def layer_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    spans nest strictly because the benchmark is single-threaded.
    """
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[index]
    return table


def path_counts(tracer: Tracer) -> dict[str, int]:
    """Strand homology paths and Euler self-checks, read from each span's children."""
    children: dict[int, set[str]] = {}
    for span in tracer.spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], set()).add(span[NAME])
    paths = {"direct": 0, "nerve": 0, "trivial": 0}
    euler_ran = euler_skipped = 0
    for index, span in enumerate(tracer.spans):
        kids = children.get(index, set())
        if span[NAME] == "betti.strand_homology":
            if "simplicial.nerve" in kids:
                paths["nerve"] += 1
            elif "simplicial.homology" in kids:
                paths["direct"] += 1
            else:
                paths["trivial"] += 1
        elif span[NAME] == "betti.betti_table" and span[OK] and index in tracer.euler_wanted:
            if "taylor.euler_check" in kids:
                euler_ran += 1
            else:
                euler_skipped += 1
    paths["euler_ran"] = euler_ran
    paths["euler_skipped"] = euler_skipped
    return paths


def tables_per_op_kind(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """op kind -> (operations, betti_table calls made inside them)."""
    out: dict[str, list[int]] = {}
    for span in tracer.spans:
        if span[PARENT] == -1 and span[NAME].startswith("op."):
            out.setdefault(span[NAME][3:], [0, 0])[0] += 1
    for span in tracer.spans:
        if span[NAME] == "betti.betti_table" and span[OP] >= 0:
            out[tracer.spans[span[OP]][NAME][3:]][1] += 1
    return {kind: (ops, tables) for kind, (ops, tables) in out.items()}


# Per-layer metric -> unit.  Self times are reported only for layers that all
# three workloads exercise; the others report call counts (their self times
# are in the printed layer table), so no metric reads a constant zero time.
LAYER_UNITS = {
    "simplicial.exact_rank.calls": "count",
    "simplicial.exact_rank.self_s": "s",
    "simplicial.rank_cells": "count",
    "simplicial.max_matrix_cells": "count",
    "simplicial.boundary_matrix.self_s": "s",
    "simplicial.nerve.self_s": "s",
    "simplicial.nerve_faces": "count",
    "simplicial.homology.self_s": "s",
    "betti.betti_table.calls": "count",
    "betti.betti_table.self_s": "s",
    "betti.candidates": "count",
    "betti.candidate_closure.self_s": "s",
    "betti.strand_facets.self_s": "s",
    "betti.strands": "count",
    "betti.strands_nonzero_ratio": "ratio",
    "betti.direct_strands": "count",
    "betti.nerve_strands": "count",
    "betti.tables_per_command": "count",
    "betti.tables_per_compute_input": "count",
    "taylor.euler_check.self_s": "s",
    "taylor.euler_check.ran": "count",
    "taylor.euler_check.skipped": "count",
    "taylor.subset_lcms.self_s": "s",
    "monomials.polarize.calls": "count",
    "monomials.intersect.calls": "count",
    "monomials.parse_ideal.calls": "count",
    "digraphs.random_instance.self_s": "s",
    "digraphs.classify.calls": "count",
    "digraphs.classify.self_s": "s",
    "digraphs.disconnected_share": "ratio",
    "formulas.predict.self_s": "s",
    "formulas.verify_formula.self_s": "s",
    "formulas.check_betti_splitting.calls": "count",
    "cli.main.calls": "count",
    "cli.stdout_bytes": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span- and count-based per-layer metrics of one traced pass."""
    table = layer_table(tracer)
    paths = path_counts(tracer)
    kinds = tables_per_op_kind(tracer)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    ops = sum(n for n, _ in kinds.values())
    tables = sum(t for _, t in kinds.values())
    compute_ops, compute_tables = kinds.get("compute_input", (0, 0))
    strands = calls("betti.strand_homology")
    return {
        "simplicial.exact_rank.calls": calls("simplicial.exact_rank"),
        "simplicial.exact_rank.self_s": self_s("simplicial.exact_rank"),
        "simplicial.rank_cells": tracer.counts.get("simplicial.rank_cells", 0),
        "simplicial.max_matrix_cells": tracer.counts.get("simplicial.max_matrix_cells", 0),
        "simplicial.boundary_matrix.self_s": self_s("simplicial.boundary_matrix"),
        "simplicial.nerve.self_s": self_s("simplicial.nerve"),
        "simplicial.nerve_faces": tracer.counts.get("simplicial.nerve_faces", 0),
        "simplicial.homology.self_s": self_s("simplicial.homology"),
        "betti.betti_table.calls": calls("betti.betti_table"),
        "betti.betti_table.self_s": self_s("betti.betti_table"),
        "betti.candidates": tracer.counts.get("betti.candidates", 0),
        "betti.candidate_closure.self_s": self_s("betti.candidate_closure"),
        "betti.strand_facets.self_s": self_s("betti.strand_facets"),
        "betti.strands": strands,
        "betti.strands_nonzero_ratio": tracer.counts.get("betti.nonzero_strands", 0) / strands if strands else 0.0,
        "betti.direct_strands": paths["direct"],
        "betti.nerve_strands": paths["nerve"],
        "betti.tables_per_command": tables / ops if ops else 0.0,
        "betti.tables_per_compute_input": compute_tables / compute_ops if compute_ops else 0.0,
        "taylor.euler_check.self_s": self_s("taylor.euler_check"),
        "taylor.euler_check.ran": paths["euler_ran"],
        "taylor.euler_check.skipped": paths["euler_skipped"],
        "taylor.subset_lcms.self_s": self_s("taylor.subset_lcms"),
        "monomials.polarize.calls": calls("monomials.polarize"),
        "monomials.intersect.calls": calls("monomials.intersect"),
        "monomials.parse_ideal.calls": calls("monomials.parse_ideal"),
        "digraphs.random_instance.self_s": self_s("digraphs.random_instance"),
        "digraphs.classify.calls": calls("digraphs.classify"),
        "digraphs.classify.self_s": self_s("digraphs.classify"),
        "formulas.predict.self_s": self_s("formulas.predict"),
        "formulas.verify_formula.self_s": self_s("formulas.verify_formula"),
        "formulas.check_betti_splitting.calls": calls("formulas.check_betti_splitting"),
        "cli.main.calls": calls("cli.main"),
    }
