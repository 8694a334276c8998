import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    # the benchmark sets up every workload (theta_basis included) and builds
    # PointwiseXi itself, so a change to a name or shape it uses fails here
    run = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
