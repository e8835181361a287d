"""The stdout of ``eil compute``, pinned byte for byte by sha256.

``--ideal`` runs on the README ideal and on the triangle ideal
(x1*x2, x2*x3, x1*x3), which is not Taylor-minimal; ``--input`` runs on
fixtures 3.4 and 3.6 and on the ``OC5`` graph of the splitting digests
(``random_instance`` seed 0, OrientedCycle 5, weights 2..3).  Each runs in
json and md.  Only stdout is pinned: the json format writes the grid to
stderr.  The payload holds no file path, so the digests do not depend on
where the graph file is written.
"""

import hashlib
import json

import pytest

from edgeideals.cli import EXIT_OK, main
from edgeideals.digraphs import random_instance
from edgeideals.fixtures import FIXTURES

README_IDEAL = "(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)"
TRIANGLE = "(x1*x2, x2*x3, x1*x3)"

GRAPHS = {
    "3.4": lambda: FIXTURES["3.4"].graph,
    "3.6": lambda: FIXTURES["3.6"].graph,
    "OC5": lambda: random_instance("OrientedCycle", cycle_len=5, weight_range=(2, 3)),
}

IDEAL_DIGESTS = {
    (README_IDEAL, "json"): "a9fce05656a5b512ba10ce16ee6291eec9ed16a38bede329c4f563214edb4d24",
    (README_IDEAL, "md"): "1c3d0a61c8ef4d191a076c8bb8aba361ea18cc92b7cd3f0d2d7bc6dd7600b27a",
    (TRIANGLE, "json"): "4eee13058858045175a06c6f2135b1f81366f987fc8393e232c303dbd596aa84",
    (TRIANGLE, "md"): "a4e177d5709c2db9cf18d528c4e75c123283ca89938dd22b8d0b5ab253c3ca71",
}

INPUT_DIGESTS = {
    ("3.4", "json"): "0d2f904e0287d24f8195c9fa168daae422662cbe7acbcead79d6d5ac4f667c9f",
    ("3.4", "md"): "54ca780720182fc1b508cac3ff1f9bf7889aa77316c2bb34a1c70290cd24b9a8",
    ("3.6", "json"): "1541fdc17c1f7b76d413a6aa4d039f9248463f965e0dd39733f6c3b6b537436a",
    ("3.6", "md"): "9d986c226f74efa7a80375457aa79baf35e28a37298aa90445aa08603394a098",
    ("OC5", "json"): "7fb135831a4ff038a382771ce56cf707938cc729c474279dc7124bbf98f71c1b",
    ("OC5", "md"): "6fb64ceeb89a2c337ae984233f9073c8d184a1c21c51be25f0671289bb5cf023",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ideal, fmt", sorted(IDEAL_DIGESTS), ids=str)
def test_compute_ideal_stdout_is_unchanged(ideal, fmt, capsys):
    assert main(["compute", "--ideal", ideal, "--format", fmt]) == EXIT_OK
    assert _digest(capsys.readouterr().out) == IDEAL_DIGESTS[ideal, fmt]


@pytest.mark.parametrize("graph, fmt", sorted(INPUT_DIGESTS), ids=str)
def test_compute_input_stdout_is_unchanged(graph, fmt, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPHS[graph]().to_json_dict()), encoding="utf-8")
    assert main(["compute", "--input", str(path), "--format", fmt]) == EXIT_OK
    assert _digest(capsys.readouterr().out) == INPUT_DIGESTS[graph, fmt]
