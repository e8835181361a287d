"""The stdout of ``eil verify``, pinned byte for byte by sha256.

Each campaign is ``verify --count 12 --seed 7`` with the default cycle
and extra ranges: the four classes at weights 2..4 and 1..3 in json,
one of them again in md and one in csv.  Weights of 1 void the
hypotheses of the cyclic classes on most instances, so their 1..3
campaigns pin inapplicable verdicts too.  Two more rows add options to
those: the forest and disconnected unicyclic shapes that the bench
``campaign`` draws, with leaves that draw from 1..4 and sources set to
1.  Stdout carries no time; the elapsed time goes to stderr.
"""

import hashlib

import pytest

from edgeideals.cli import EXIT_OK, main

DIGESTS = {
    ("RootedForest", "2..4", "json"): "5a50c34afac372b94c86aab48be987119c205985f3d401007c95b044bf276e39",
    ("RootedForest", "1..3", "json"): "865485f1cc20fbc385aa03149538d8e57c1a8ce4d74c7b744c61c72e8d2c7bf1",
    ("OrientedCycle", "2..4", "json"): "337b0d310359b89f1756d5ec34a06763bd77d1f7a09fbf60371f57451ffca6a4",
    ("OrientedCycle", "1..3", "json"): "5e1affa84db15c0682f9be0de78764945d4266017046c3e959439b5033a917a4",
    ("UnicyclicAttached", "2..4", "json"): "adb78cc9d5443a2e57a9cb10e27ec1406fc2092b102602452f9e6467c78c2435",
    ("UnicyclicAttached", "1..3", "json"): "358191bdb302fbb87bea0cfc675ee927e74751cabc3b13787fc195e17660b7e8",
    ("UnicyclicGeneral", "2..4", "json"): "328a8c286eae13caa824724c924aaf0d0b9072e8c908a20f4e77a901c65af967",
    ("UnicyclicGeneral", "1..3", "json"): "45201fc28de07349dabe62ae7f8966670631ce1bc03f9be664e6fa9cc6181eca",
    ("UnicyclicGeneral", "1..3", "md"): "5619fa9772e6def0f8dd6e223953c37c64d93b80b114efebba9b0dc5d160b2f8",
    ("UnicyclicAttached", "2..4", "csv"): "9f2832f26ca6b5900c5e1ede2df80a71b5dd09ce51c97255088b6669cdf4aae6",
    ("RootedForest", "2..4", "json", "--extra 6..11"):
        "7bbd716af9fb88e1675441e2eb1cbb66ae0fb7a81dcf7a6cfe5e988fc8b4f6d2",
    ("UnicyclicGeneral", "2..4", "json", "--cycle 3..4 --extra 0..8 --count 40"):
        "b85c3b253439a0cd5a85bdcd808733ccf6851b90a0b0e6286b88538d5a0e2efd",
}


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
def test_verify_stdout_is_unchanged(key, capsys):
    class_tag, weights, fmt, *options = key
    argv = ["verify", "--class", class_tag, "--count", "12", "--seed", "7", "--weights", weights, "--format", fmt]
    assert main(argv + " ".join(options).split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
