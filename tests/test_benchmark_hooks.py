"""The benchmark's generic self-tests, run as part of the suite.

``perfbench/selftest.py`` wraps and reads names of the package (for example
``tuning.fit_theta_m``), so a refactor that removes one of them fails here
and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_without_workloads_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py", "--workloads"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
