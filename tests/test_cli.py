import json
import subprocess
import sys

import pytest

import edgeideals.betti as betti_mod
import edgeideals.cli as cli_mod
import edgeideals.formulas as formulas_mod
from edgeideals.cli import (
    EXIT_ASSERTION,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from edgeideals.fixtures import FIXTURES

C3_JSON = {
    "vertices": [
        {"name": "x1", "weight": 2},
        {"name": "x2", "weight": 2},
        {"name": "x3", "weight": 2},
    ],
    "edges": [["x1", "x2"], ["x2", "x3"], ["x3", "x1"]],
}


@pytest.fixture
def c3_path(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(C3_JSON))
    return str(path)


@pytest.fixture
def fixture_path(tmp_path):
    def _write(ident):
        path = tmp_path / f"g{ident}.json"
        path.write_text(json.dumps(FIXTURES[ident].graph.to_json_dict()))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_ideal_string_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--ideal", "(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["invariants"]["reg"] == 11
        assert payload["invariants"]["pd"] == 3

    def test_graph_input_reports_counterexample(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "compute", "--input", fixture_path("3.4"))
        assert code == EXIT_OK  # the verdict is data, not an error
        payload = json.loads(out)
        assert payload["computed"] == {"reg": 8, "pd": 6, "depth": 1}
        assert payload["predicted"]["reg"] == 7
        assert payload["predicted"]["pd"] == 7
        assert payload["predicted"]["applicable"] is False
        assert payload["verdict"] == "inapplicable-mismatch"
        assert "betti_table" in payload

    def test_parse_error_has_position(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--ideal", "(x1*^2)")
        assert code == EXIT_USAGE
        assert "position" in err

    @pytest.mark.parametrize("text", ["(1)", "(x_1_2)"])
    def test_malformed_ideal_is_a_usage_error(self, capsys, text):
        # the unit ideal and a reserved _<digits> base name are rejected
        # by the ideal constructors, not the parser
        code, out, err = run_cli(capsys, "compute", "--ideal", text)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("ideal parse error: ")

    def test_both_inputs_rejected(self, capsys, c3_path):
        code, _, err = run_cli(capsys, "compute", "--input", c3_path, "--ideal", "(x1)")
        assert code == EXIT_USAGE

    def test_empty_edge_graph_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices": [{"name": "a", "weight": 1}], "edges": []}')
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_USAGE
        assert "empty" in err

    def test_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("EIL_GUARD_GENS", "2")
        code, _, err = run_cli(capsys, "compute", "--ideal", "(x1, x2, x3)")
        assert code == EXIT_GUARD
        assert "guard" in err

    def test_markdown_format(self, capsys, c3_path):
        code, out, _ = run_cli(capsys, "compute", "--input", c3_path, "--format", "md")
        assert code == EXIT_OK
        assert "Invariant report" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent.json")
        assert code == EXIT_USAGE

    def test_each_command_builds_one_table(self, capsys, c3_path, monkeypatch):
        # one table per ideal: compute has one ideal; splitting has four
        # (I, J, K, J∩K) and polarizes the edge ideal once
        calls, polarized = [], []
        real, real_polarize = betti_mod.betti_table, formulas_mod.polarize

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def counting_polarize(*args, **kwargs):
            polarized.append(args)
            return real_polarize(*args, **kwargs)

        monkeypatch.setattr(betti_mod, "betti_table", counting)
        monkeypatch.setattr(cli_mod, "betti_table", counting)
        monkeypatch.setattr(formulas_mod, "betti_table", counting)
        monkeypatch.setattr(formulas_mod, "polarize", counting_polarize)
        for argv, tables in (
            (["compute", "--input", c3_path], 1),
            (["compute", "--ideal", "(x1*x2, x2*x3)"], 1),
            (["splitting", "--input", c3_path], 4),
        ):
            calls.clear()
            polarized.clear()
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            assert len(calls) == tables
        assert len(polarized) == 1

    def test_no_timing_flag_is_only_on_verify(self, capsys, c3_path):
        for argv in (["compute", "--input", c3_path], ["splitting", "--input", c3_path]):
            assert run_cli(capsys, *argv, "--no-timing")[0] == EXIT_USAGE


class TestRepro:
    @pytest.mark.parametrize("ident", ["2.9", "3.4", "3.6", "3.7"])
    def test_all_fixtures_pass(self, capsys, ident):
        code, out, _ = run_cli(capsys, "repro", ident)
        assert code == EXIT_OK
        assert "PASS" in out


class TestVerify:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "OrientedCycle", "--count", "3",
            "--cycle", "3..4", "--weights", "2..3", "--seed", "5", "--no-timing",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass_count"] == 3
        assert payload["fail_count"] == 0
        assert "elapsed_seconds" not in payload

    def test_byte_identical_under_fixed_seed(self, capsys):
        args = (
            "verify", "--class", "UnicyclicAttached", "--count", "2",
            "--cycle", "3..4", "--extra", "0..2", "--weights", "2..3",
            "--seed", "77", "--no-timing",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "RootedForest", "--count", "2",
            "--extra", "3..5", "--weights", "2..3", "--seed", "2",
            "--format", "csv", "--no-timing",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,class")
        assert len(lines) == 3

    def test_md_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "RootedForest", "--count", "2",
            "--extra", "3..4", "--weights", "2..3", "--seed", "2",
            "--format", "md", "--no-timing",
        )
        assert code == EXIT_OK
        assert out.startswith("# Verification campaign")

    def test_weight_floor_one_counts_inapplicable(self, capsys):
        # weight 1 at non-leaf vertices voids the hypotheses: those runs are
        # inapplicable, not failures, and the totals must still add up
        code, out, _ = run_cli(
            capsys, "verify", "--class", "UnicyclicAttached", "--count", "4",
            "--cycle", "3..4", "--extra", "1..2", "--weights", "1..2",
            "--seed", "5", "--no-timing",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        total = payload["pass_count"] + payload["fail_count"] + payload["inapplicable_count"]
        assert total == 4
        assert payload["fail_count"] == 0

    def test_invalid_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--class", "OrientedCycle", "--count", "1",
            "--cycle", "5..3", "--seed", "0",
        )
        assert code == EXIT_USAGE

    def test_cycle_minimum_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--class", "OrientedCycle", "--count", "1",
            "--cycle", "2..3", "--seed", "0",
        )
        assert code == EXIT_USAGE


class TestSplitting:
    def test_small_cycle_identity_holds(self, capsys, c3_path):
        code, out, _ = run_cli(capsys, "splitting", "--input", c3_path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["identity_holds"] is True
        assert payload["K_has_linear_resolution"] is True
        assert payload["split_edge"] == ["x3", "x1"]

    def test_explicit_edge(self, capsys, c3_path):
        code, out, _ = run_cli(capsys, "splitting", "--input", c3_path, "--edge", "x1,x2")
        assert code == EXIT_OK
        assert json.loads(out)["split_edge"] == ["x1", "x2"]

    def test_forest_rejected(self, capsys, tmp_path):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": [{"name": "a", "weight": 1}, {"name": "b", "weight": 2}],
            "edges": [["a", "b"]],
        }))
        code, _, err = run_cli(capsys, "splitting", "--input", str(path))
        assert code == EXIT_USAGE
        assert "cycle" in err

    def test_markdown(self, capsys, c3_path):
        code, out, _ = run_cli(capsys, "splitting", "--input", c3_path, "--format", "md")
        assert code == EXIT_OK
        assert "Betti splitting" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", "GRAPH"],
        ["verify", "--class", "OrientedCycle", "--count", "2", "--no-timing"],
        ["repro", "3.4"],
        ["splitting", "--input", "GRAPH"],
    ],
    ids=["compute", "verify", "repro", "splitting"],
)
def test_every_command_refuses_with_exit_3(capsys, monkeypatch, c3_path, argv):
    monkeypatch.setenv("EIL_GUARD_GENS", "2")
    code, out, err = run_cli(capsys, *[c3_path if a == "GRAPH" else a for a in argv])
    assert code == EXIT_GUARD
    assert out == ""
    assert err.count("sizing guard:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["x", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--ideal", "(x1*x2)"],
        ["compute", "--input", "GRAPH"],
        ["verify", "--class", "OrientedCycle", "--count", "1", "--no-timing"],
        ["repro", "3.4"],
        ["splitting", "--input", "GRAPH"],
    ],
    ids=["compute-ideal", "compute-input", "verify", "repro", "splitting"],
)
def test_malformed_guard_env_is_a_usage_error(capsys, monkeypatch, c3_path, argv, value):
    monkeypatch.setenv("EIL_GUARD_GENS", value)
    code, out, err = run_cli(capsys, *[c3_path if a == "GRAPH" else a for a in argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("environment error: EIL_GUARD_GENS") == 1
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "edgeideals", "repro", "2.9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "edgeideals", "compute", "--format", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
