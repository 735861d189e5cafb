"""The benchmark's own smoke test, run as part of the suite.

``e2ebench/run.py --self-test`` runs every benchmark workload at smoke
size, traced and untraced, through ``cli.parse_config`` and ``cli.run``,
and checks every output against its oracle. A change that breaks what
the benchmark calls fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "e2ebench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "self-test passed" in proc.stdout
