"""The stdout of ``eil splitting``, pinned byte for byte by sha256.

The graphs are the splitting graphs of the ``cli_mix`` benchmark
(``random_instance`` seed 0, weights 2..3: OrientedCycle 5, 6 and 7 and
UnicyclicAttached 5+4; and its known-defect graph, UnicyclicAttached 5+4
at weights 2..4, seed 3, whose polarization has 26 variables) and
fixture 2.9 split along its default edge and along x1 -> x2, each in
json and md.  The payload holds no file path, so the digests do not
depend on where the graph file is written.
"""

import hashlib
import json

import pytest

from edgeideals.cli import EXIT_OK, main
from edgeideals.digraphs import random_instance
from edgeideals.fixtures import FIXTURES

GRAPHS = {
    "OC5": lambda: random_instance("OrientedCycle", cycle_len=5, weight_range=(2, 3)),
    "OC6": lambda: random_instance("OrientedCycle", cycle_len=6, weight_range=(2, 3)),
    "OC7": lambda: random_instance("OrientedCycle", cycle_len=7, weight_range=(2, 3)),
    "UA5+4": lambda: random_instance(
        "UnicyclicAttached", cycle_len=5, extra_vertices=4, weight_range=(2, 3)
    ),
    "UA5+4 w2..4 s3": lambda: random_instance(
        "UnicyclicAttached", cycle_len=5, extra_vertices=4, weight_range=(2, 4), seed=3
    ),
    "2.9": lambda: FIXTURES["2.9"].graph,
}

DIGESTS = {
    ("OC5", None, "json"): "e1a503bbd95f87e2e0b8a145b8e438b3bbf00520402c2b0826f0c7eb698ae378",
    ("OC5", None, "md"): "e726104b66f3795c49fc2248d00d03f0c019e3d8f4364871a6002c1ba69921a7",
    ("OC6", None, "json"): "a36f730bbb9be69fc334da8c9d820e48016d621e696f379bea7feb1395b31827",
    ("OC6", None, "md"): "6ef3d19ba9f39eecc36bad4bc73a3a6521a46dbeac5ca5af6c77fcd79c543857",
    ("OC7", None, "json"): "38dfbcf2d5290d16b72c452899e0cd67b6ed7470177824fe2ac9e5643ec7d821",
    ("OC7", None, "md"): "869741080974d0853befd9aa58e111af2935f445501852a38dbc896a73288a6e",
    ("UA5+4", None, "json"): "ef3f0847e33fd1daf55211c7ac83e76745c6705e9cdce3857757c2dada587a34",
    ("UA5+4", None, "md"): "c428d481e666901a01c49efe2572f67f9e19d8373369e6a6dc8906f1d89fc0e0",
    ("UA5+4 w2..4 s3", None, "json"): "1dc2c947a9487851137ed9ed01e9ba610a3a550dcd89322c3492ffef6353dd22",
    ("UA5+4 w2..4 s3", None, "md"): "21674ffb358eed7c65d1ec93c53f442f64073d877e9a57389fc572014ebaaa8e",
    ("2.9", None, "json"): "a2b7eb21bb4476de75c6b00d592f3762387adb3d475c56274b9b57c40a89fcc9",
    ("2.9", None, "md"): "605c7c231a2740d83fe2ae481f55034d4cb70a4fba997659ce5bfeb3d396e99b",
    ("2.9", "x1,x2", "json"): "443c099a9d659bf73f5fb3d7c4f3f640662b99c2b73b9d8ad578354527d83941",
    ("2.9", "x1,x2", "md"): "9eb50e7dff83e8762693d069be9ab2cda9b04f15ef6626efc03b6c8e811a55e7",
}


@pytest.mark.parametrize("graph, edge, fmt", sorted(DIGESTS, key=str), ids=str)
def test_splitting_stdout_is_unchanged(graph, edge, fmt, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPHS[graph]().to_json_dict()), encoding="utf-8")
    argv = ["splitting", "--input", str(path), "--format", fmt]
    if edge is not None:
        argv += ["--edge", edge]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[graph, edge, fmt]
