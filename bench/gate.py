"""Output gate: every operation's output is checked outside the timed region.

Tables are compared with the independent Taylor oracle (up to
``TAYLOR_LIMIT`` generators), applicable reg/pd with the closed forms of
``formulas.predict``, and the canonical stdout of seed-independent
commands with digests recorded at the seed commit (``golden.json``).
Each check returns None when the output is right, a ``Refused`` message
when the command exited with a non-zero code, and any other message when
the output is wrong.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

TAYLOR_LIMIT = 16
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Refused(str):
    """The operation was refused or failed without producing an output."""


def _taylor(engine, ideal):
    if len(ideal.generators) > TAYLOR_LIMIT:
        return None
    return engine.taylor.taylor_betti_table(ideal)


def _exit_problem(out) -> str | None:
    code, _, err = out
    if code != 0:
        lines = err.strip().splitlines()
        return Refused(f"exit {code}: {lines[-1] if lines else ''}")
    return None


def _invariants_problem(engine, got: tuple[int, int, int], ideal, D=None, table=None) -> str | None:
    """(reg, pd, depth) against Taylor and, when D is given and applicable, the closed forms."""
    t = _taylor(engine, ideal)
    if t is not None:
        if table is not None and table != t.to_json_map():
            return "Betti table differs from Taylor"
        want = (t.reg(), t.pd(), len(ideal.ambient) - t.pd() - 1)
        if got != want:
            return f"(reg, pd, depth) = {got}, Taylor {want}"
    if D is not None:
        p = engine.formulas.predict(D)
        if p.applicable and got[:2] != (p.reg_pred, p.pd_pred):
            return f"(reg, pd) = {got[:2]}, closed form {(p.reg_pred, p.pd_pred)}"
    return None


def _graph_ideal(engine, D):
    return engine.digraphs.edge_ideal(engine.digraphs.normalize_source_weights(D))


def check_report(engine, D, report) -> str | None:
    """A ``verify_formula`` report."""
    c = report.computed
    if c is None:
        return f"engine skipped ({report.verdict})"
    return _invariants_problem(engine, (c.reg, c.pd, c.depth_of_quotient), _graph_ideal(engine, D), D)


def check_compute_input(engine, D, out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    payload = json.loads(out[1])
    c = payload["computed"]
    return _invariants_problem(
        engine, (c["reg"], c["pd"], c["depth"]), _graph_ideal(engine, D), D, payload["betti_table"]
    )


def check_compute_ideal(engine, argv, out, golden: bool) -> str | None:
    problem = _exit_problem(out) or (check_golden(argv, out) if golden else None)
    if problem:
        return problem
    payload = json.loads(out[1])
    c = payload["invariants"]
    ideal = engine.monomials.parse_ideal(argv[2])
    return _invariants_problem(engine, (c["reg"], c["pd"], c["depth"]), ideal, table=payload["betti_table"])


def check_splitting(engine, D, out) -> str | None:
    problem = _exit_problem(out)
    if problem:
        return problem
    payload = json.loads(out[1])
    mono = engine.monomials
    full = mono.polarize(_graph_ideal(engine, D))
    J = mono.parse_ideal(payload["J"], full.ambient)
    K = mono.parse_ideal(payload["K"], full.ambient)
    if set(J.generators) | set(K.generators) != set(full.generators) or set(J.generators) & set(K.generators):
        return "J and K do not partition the polarized generators"
    for label, ideal in {"I": full, "J": J, "K": K, "J∩K": mono.intersect(J, K)}.items():
        t = _taylor(engine, ideal)
        if t is not None and payload["tables"][label] != t.to_json_map():
            return f"table of {label} differs from Taylor"
    if not payload["identity_holds"]:
        return "splitting identity reported as failing"
    return None


def check_golden(argv, out) -> str | None:
    """Canonical stdout against the digest recorded at the seed commit."""
    problem = _exit_problem(out)
    if problem:
        return problem
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(" ".join(argv))
    if want is None:
        return "no golden digest recorded"
    if hashlib.sha256(out[1].encode("utf-8")).hexdigest() != want:
        return "stdout differs from the golden digest"
    return None
