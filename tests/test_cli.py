import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgeideals.betti as betti_mod
import edgeideals.cli as cli_mod
import edgeideals.formulas as formulas_mod
from edgeideals.cli import (
    EXIT_ASSERTION,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    CampaignConfig,
    main,
    report_json_dict,
    report_markdown,
    run_campaign,
)
from edgeideals.digraphs import GraphClassTag, WeightedDigraph
from edgeideals.fixtures import FIXTURES
from edgeideals.formulas import verify_formula
from edgeideals.monomials import MonomialIdeal, intersect

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


class TestReportRendering:
    def test_other_class_satisfies_the_hypotheses_but_is_not_promised(self):
        r = verify_formula(FIXTURES["3.6"].graph)
        payload = report_json_dict(r)
        assert payload["class"] == "Other"
        assert payload["hypotheses"] == {"satisfied": True, "violations": []}
        assert payload["predicted"]["applicable"] is False
        assert "- hypotheses satisfied: True\n" in report_markdown(r)

    def test_violations_are_listed(self):
        r = verify_formula(FIXTURES["3.4"].graph)
        assert report_json_dict(r)["hypotheses"] == {"satisfied": False, "violations": ["x6", "x7"]}
        assert "- hypotheses satisfied: False (violations: x6, x7)" in report_markdown(r)

    def test_report_json_shape(self):
        r = verify_formula(WeightedDigraph.from_json_dict(C3_JSON))
        d = report_json_dict(r)
        assert set(d) == {"graph", "class", "hypotheses", "computed", "predicted", "verdict"}
        assert d["predicted"]["applicable"] is True
        assert d["graph"] == C3_JSON

    def test_markdown_rendering(self):
        text = report_markdown(verify_formula(WeightedDigraph.from_json_dict(C3_JSON)))
        assert "verdict" in text and "predicted" in text


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

    def test_ideal_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--ideal", "(x1*x2^3, x2*x3^2, x3*x4^4, x4*x1^5)", "--format", "md"
        )
        assert code == EXIT_OK
        assert out.startswith("## Invariants of")
        assert "- reg = 11, pd = 3, depth(S/I) = 0" in out.splitlines()
        assert "\n```\n" in out and "total:" in out and out.rstrip().endswith("```")

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

    def test_compute_input_builds_one_edge_ideal(self, capsys, c3_path, monkeypatch):
        # verify_formula is handed the table, and reads the number of
        # variables off the graph, not off a second edge ideal
        built, real = [], cli_mod.edge_ideal

        def counting(D):
            built.append(D)
            return real(D)

        monkeypatch.setattr(cli_mod, "edge_ideal", counting)
        monkeypatch.setattr(formulas_mod, "edge_ideal", counting)
        assert run_cli(capsys, "compute", "--input", c3_path)[0] == EXIT_OK
        assert len(built) == 1

    def test_no_subcommand_takes_a_no_timing_flag(self, capsys, c3_path):
        # verify times itself on stderr, so no command needs the switch
        for argv in (
            ["compute", "--input", c3_path],
            ["repro", "3.4"],
            ["verify", "--class", "OrientedCycle", "--count", "1"],
            ["splitting", "--input", c3_path],
        ):
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
            "--cycle", "3..4", "--weights", "2..3", "--seed", "5",
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
            "--seed", "77",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("fmt", ["json", "md", "csv"])
    def test_elapsed_time_is_one_stderr_line_in_every_format(self, capsys, fmt):
        args = ("verify", "--class", "OrientedCycle", "--count", "2", "--seed", "3", "--format", fmt)
        runs = [run_cli(capsys, *args) for _ in range(2)]
        assert runs[0][:2] == runs[1][:2]
        assert "elapsed" not in runs[0][1]
        for _, _, err in runs:
            assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", err)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "RootedForest", "--count", "2",
            "--extra", "3..5", "--weights", "2..3", "--seed", "2",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,class")
        assert len(lines) == 3

    def test_md_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "RootedForest", "--count", "2",
            "--extra", "3..4", "--weights", "2..3", "--seed", "2",
            "--format", "md",
        )
        assert code == EXIT_OK
        assert out.startswith("# Verification campaign")

    def test_weight_floor_one_counts_inapplicable(self, capsys):
        # weight 1 at non-leaf vertices voids the hypotheses: those runs are
        # inapplicable, not failures, and the totals must still add up
        code, out, _ = run_cli(
            capsys, "verify", "--class", "UnicyclicAttached", "--count", "4",
            "--cycle", "3..4", "--extra", "1..2", "--weights", "1..2",
            "--seed", "5",
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

    def test_edgeless_graph_rejected(self, capsys, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"vertices": [{"name": "a", "weight": 2}], "edges": []}))
        code, out, err = run_cli(capsys, "splitting", "--input", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == ["splitting error: the formulas need at least one edge"]

    def test_identity_failure_exits_1(self, capsys, c3_path, monkeypatch):
        # J∩K without its first generator is a valid ideal but the wrong
        # J∩K, so the identity breaks; the failures must be reported
        monkeypatch.setattr(
            formulas_mod, "intersect", lambda J, K: MonomialIdeal(J.ambient, intersect(J, K).generators[1:])
        )
        code, out, _ = run_cli(capsys, "splitting", "--input", c3_path)
        assert code == EXIT_ASSERTION
        payload = json.loads(out)
        assert payload["identity_holds"] is False
        assert payload["identity_failures"]

    def test_markdown(self, capsys, c3_path):
        code, out, _ = run_cli(capsys, "splitting", "--input", c3_path, "--format", "md")
        assert code == EXIT_OK
        assert "Betti splitting" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", "GRAPH"],
        ["verify", "--class", "OrientedCycle", "--count", "2"],
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
        ["verify", "--class", "OrientedCycle", "--count", "1"],
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


@pytest.mark.parametrize(
    "name, weight, edge",
    [
        ("x1", 2.9, None),
        ("x1", True, None),
        ("x1", "3", None),
        ("a_1", 2, None),
        ("a", 2, "ab"),
        ("x1", 2, ["x3", "x1", "zzz"]),
    ],
    ids=["weight-2.9", "weight-true", "weight-string", "name-a_1", "edge-string", "edge-triple"],
)
@pytest.mark.parametrize("command", ["compute", "splitting"])
def test_malformed_graph_json_is_a_usage_error(capsys, tmp_path, command, name, weight, edge):
    # Neither a weight that int() would coerce, nor a name no variable can
    # have, nor an edge that is not a list of two names may reach the engine.
    graph = json.loads(json.dumps(C3_JSON).replace('"x1"', json.dumps(name)))
    graph["vertices"][0]["weight"] = weight
    if edge is not None:
        # With b declared, "ab" could pass for the edge a -> b, and
        # ["x3", "x1", "zzz"] for the cycle edge x3 -> x1.
        graph["vertices"].append({"name": "b", "weight": 2})
        graph["edges"][-1] = edge
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("graph input error:") == 1
    assert "Traceback" not in err


def test_consecutive_calls_print_what_fresh_calls_print(capsys, c3_path):
    # main builds its parser once per process; a usage error or --help in
    # between leaves it as it was.
    calls = [
        ["compute", "--input", c3_path, "--format", "md"],
        ["compute", "--format", "nope"],
        ["repro", "2.9"],
        ["--help"],
        ["verify", "--class", "OrientedCycle", "--count", "2"],
        ["splitting", "--help"],
        ["compute", "--ideal", "(x1*x2, x2*x3)"],
    ]

    def untimed(argv):
        # verify's one stderr line carries the wall-clock time
        code, out, err = run_cli(capsys, *argv)
        return code, out, re.sub(r"^elapsed: .*\n", "", err, flags=re.M)

    fresh = []
    for argv in calls:
        cli_mod.build_parser.cache_clear()
        fresh.append(untimed(argv))
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    parser = cli_mod.build_parser()
    assert [untimed(argv) for argv in calls] == fresh
    assert cli_mod.build_parser() is parser


def run_module(*argv):
    """``python -m edgeideals`` in a subprocess, with src/ on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "edgeideals", *argv], env=env, capture_output=True, text=True
    )


def test_module_entry_point_runs():
    proc = run_module("repro", "2.9")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_eil_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["eil"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_usage_error_exit_code():
    proc = run_module("compute", "--format", "nope")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["splitting", "--input", "GRAPH", "--edge", "x1,x2,x3"],
        ["verify", "--class", "OrientedCycle", "--count", "0"],
        ["verify", "--class", "OrientedCycle", "--weights", "0..3"],
        ["verify", "--class", "OrientedCycle", "--cycle", "3-5"],
        ["verify", "--class", "UnicyclicGeneral", "--extra=-3..-1"],
    ],
)
def test_bad_option_values_exit_2(capsys, c3_path, argv):
    code, out, err = run_cli(capsys, *[c3_path if a == "GRAPH" else a for a in argv])
    assert code == EXIT_USAGE
    assert out == "" and err


@pytest.mark.parametrize("tag", list(GraphClassTag), ids=lambda tag: tag.value)
def test_library_campaign_refuses_a_negative_extra_range(tag):
    # run_campaign skips the CLI's parsing, so the config checks itself
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(tag, 2, (3, 3), (-3, -1), (2, 3), 1))


@pytest.mark.parametrize(
    "tag, ranges, message",
    [
        (GraphClassTag.OTHER, ((3, 3), (0, 0), (2, 3)), "class Other"),
        (GraphClassTag.ORIENTED_CYCLE, ((5, 3), (0, 0), (2, 3)), "--cycle range '5..3' is empty"),
        (GraphClassTag.ROOTED_FOREST, ((0, 0), (4, 2), (2, 3)), "--extra range '4..2' is empty"),
        (GraphClassTag.UNICYCLIC_ATTACHED, ((3, 4), (1, 2), (3, 2)), "--weights range '3..2' is empty"),
    ],
    ids=["other-class", "empty-cycle", "empty-extra", "empty-weights"],
)
def test_library_campaign_refuses_a_config_verify_cannot_parse(tag, ranges, message):
    with pytest.raises(ValueError, match=message):
        CampaignConfig(tag, 2, *ranges, 1)
