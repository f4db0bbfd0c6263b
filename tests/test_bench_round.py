"""The kernels-warm benchmark's own round check, run against this tree.

`bench/kernels.py SEED` builds one seeded round, runs it through the rbw
library and compares every output with the references it computes
itself; it exits 1 and names each mismatch on stderr.  Running it here
makes a kernel change that breaks those references fail the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_kernels_round_passes_its_reference_check(seed):
    proc = subprocess.run([sys.executable, str(REPO / "bench" / "kernels.py"), str(seed)],
                          capture_output=True, text=True, timeout=120, cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
