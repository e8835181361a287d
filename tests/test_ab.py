"""The A/B summary of ``tools/ab.py`` on canned result lines, and its report
of a failed run on a fake checkout; no real bench run."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def result(ops_per_s, p50, failed=0, correct=True):
    metrics = {"setup_s": 0.03, "peak_rss_mb": 30.0, "ops_per_s": ops_per_s, "op_s.p50": p50,
               "op_s.p90": p50, "max_m_10s": 20}
    return {"correct": correct, "attempted": 13, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def rows_by_metric(pairs):
    return {row["metric"]: row for row in ab.summarize(pairs, END_TO_END)}


def test_a_clear_gain_holds_and_ties_count_for_neither():
    parent = [1500, 1450, 1520, 1480, 1490, 1510, 1470, 1500, 1460, 1530]
    pairs = [(result(a, 0.6), result(a * 1.15, 0.6)) for a in parent]
    rows = rows_by_metric(pairs)
    ops = rows["ops_per_s"]
    assert ops["wins"] == 10 and ops["pairs"] == 10 and ops["gain"]
    q1, median, q3 = ops["parent"]
    assert q1 < median == 1495 < q3
    assert abs(ops["worse_by"] + 0.15) < 1e-9  # 15 % better reads as -15 % worse
    # equal values on both sides: no wins, no gain, not worse
    for name in ("setup_s", "peak_rss_mb", "op_s.p50", "max_m_10s"):
        assert rows[name]["wins"] == 0 and not rows[name]["gain"] and rows[name]["worse_by"] == 0


def test_lower_is_better_and_eight_wins_of_ten_is_no_gain():
    parent = [0.60, 0.62, 0.61, 0.63, 0.60, 0.64, 0.59, 0.61, 0.62, 0.60]
    change = [p * 0.8 for p in parent[:8]] + [p * 1.1 for p in parent[8:]]
    rows = rows_by_metric([(result(1000, a), result(1000, b)) for a, b in zip(parent, change)])
    assert rows["op_s.p50"]["wins"] == 8 and not rows["op_s.p50"]["gain"]
    assert rows["op_s.p50"]["worse_by"] < 0


def test_a_gap_inside_the_parents_spread_is_no_gain():
    parent = [1000, 1400, 1100, 1300, 1200, 1000, 1400, 1100, 1300, 1200]
    rows = rows_by_metric([(result(a, 0.6), result(a + 30, 0.6)) for a in parent])
    assert rows["ops_per_s"]["wins"] == 10 and not rows["ops_per_s"]["gain"]


def test_more_failed_operations_void_a_gain():
    parent = [1500, 1450, 1520, 1480, 1490, 1510, 1470, 1500, 1460, 1530]
    rows = rows_by_metric([(result(a, 0.6), result(a * 1.15, 0.6, failed=1)) for a in parent])
    assert rows["ops_per_s"]["wins"] == 10 and not rows["ops_per_s"]["gain"]


def test_one_run_with_wrong_outputs_voids_every_gain():
    parent = [1500, 1450, 1520, 1480, 1490, 1510, 1470, 1500, 1460, 1530]
    pairs = [(result(a, 0.6), result(a * 1.15, 0.5, correct=index != 3)) for index, a in enumerate(parent)]
    rows = rows_by_metric(pairs)
    assert rows["ops_per_s"]["wins"] == 10 and rows["op_s.p50"]["wins"] == 10
    assert not any(row["gain"] for row in rows.values())
    # the same runs, all correct, claim both gains
    rows = rows_by_metric([(a, dict(b, correct=True)) for a, b in pairs])
    assert rows["ops_per_s"]["gain"] and rows["op_s.p50"]["gain"]


def test_fewer_than_ten_pairs_claim_no_gain():
    rows = rows_by_metric([(result(a, 0.6), result(a * 1.15, 0.5)) for a in (1500, 1450, 1520, 1480, 1490)])
    assert rows["ops_per_s"]["wins"] == 5 and not rows["ops_per_s"]["gain"]


def test_render_has_one_line_per_metric():
    pairs = [(result(1500, 0.6), result(1700, 0.5))]
    text = ab.render(ab.summarize(pairs, END_TO_END))
    assert len(text.splitlines()) == 1 + len(END_TO_END)


def test_a_failed_run_reports_its_pair_side_checkout_and_stderr_tail(tmp_path, capsys):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "print('MARKER-bench-broke', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    code = ab.main([str(tmp_path), str(tmp_path), "--workload", "campaign", "--seed", "1", "--pairs", "1"])
    assert code == ab.EXIT_RUN_FAILED and code != 1  # 1 means wrong outputs
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"pair 0 parent: bench/run.py in {tmp_path} failed (exit 3); last 20 lines of stderr:"
    assert err[1:] == [f"line {i}" for i in range(11, 30)] + ["MARKER-bench-broke"]


def test_a_timed_out_run_reports_its_partial_stderr():
    exc = subprocess.TimeoutExpired(["python3", "bench/run.py"], 340, stderr=b"half a line")
    report = ab.failure_report(3, "change", ROOT, exc)
    assert report.splitlines() == [
        f"pair 3 change: bench/run.py in {ROOT} failed (timed out after 340 s); last 1 lines of stderr:",
        "half a line",
    ]
