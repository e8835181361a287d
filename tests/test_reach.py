"""``tools/reach.py`` on two tiny rungs, written to a temporary record."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def test_two_tiny_rungs_append_one_record_and_leave_no_process(tmp_path, monkeypatch, capsys):
    out = tmp_path / "reach.json"
    out.write_text(json.dumps([{"commit": "earlier", "rungs": []}]), encoding="utf-8")
    monkeypatch.setattr(reach, "OUT", out)
    monkeypatch.setattr(reach, "START", 4)
    monkeypatch.setattr(reach, "TOP", 4)
    calls, real_run = [], subprocess.run

    def run(*args, **kwargs):
        calls.append("started")
        done = real_run(*args, **kwargs)
        calls[-1] = "returned"  # run() returns only once its child has exited and been reaped
        return done

    monkeypatch.setattr(reach.subprocess, "run", run)
    assert reach.main([]) == 0
    earlier, record = json.loads(out.read_text(encoding="utf-8"))
    assert earlier["commit"] == "earlier"
    assert isinstance(record["commit"], str) and record["commit"]
    rungs = record["rungs"]
    assert [(r["instance"], r["m"]) for r in rungs] == [
        ("OrientedCycle 4+0, weights 1..3, seed 1", 4),
        ("UnicyclicAttached 3+1, weights 1..3, seed 1", 4),
    ]
    for rung in rungs:
        assert set(rung) == {"instance", "m", "seconds", "peak_rss_mb", "reg", "pd"}
        assert 0 < rung["seconds"] < reach.LIMIT_S and rung["peak_rss_mb"] > 0
    # two rungs and one git call, each waited for: no child is left running
    assert calls == ["returned"] * 3
    assert len(capsys.readouterr().out.splitlines()) == 2
