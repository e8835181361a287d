"""The README's library example prints what its closing comment says, and
its Library table names only what the package has."""

import importlib
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import edgeideals

ROOT = Path(__file__).resolve().parent.parent


def test_readme_example_output_matches_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    expected = code.rstrip().splitlines()[-1]
    assert expected.startswith("# ")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected[2:] + "\n"


def library_rows():
    """(module, names in backticks) for each row of the README Library table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        module, contents = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((module.strip("`"), re.findall(r"`([^`]+)`", contents)))
    return rows


def test_every_name_in_the_library_table_resolves_on_its_module():
    rows = library_rows()
    assert [module for module, _ in rows] == [
        f"edgeideals.{name}" for name in ("monomials", "digraphs", "simplicial", "betti", "taylor", "formulas")
    ]
    for module, names in rows:
        mod = importlib.import_module(module)
        assert names, module
        for name in names:
            reduce(getattr, name.split("."), mod)


def test_every_name_in_all_resolves():
    assert len(edgeideals.__all__) == len(set(edgeideals.__all__))
    for name in edgeideals.__all__:
        getattr(edgeideals, name)
