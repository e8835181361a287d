"""The benchmark's own self-test runs clean against the current engine.

``bench/tracing.py`` rebinds engine names (``betti.nerve_face_masks``,
``betti.homology_ranks_of_masks``, ...) by attribute; renaming or inlining
one of them breaks the benchmark, and this test makes that a suite failure.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
