"""The kernels-warm benchmark's own round check, run against this tree.

`bench/kernels.py SEED` builds one seeded round, runs it through the rbw
library and compares every output with the references it computes
itself; it exits 1 and names each mismatch on stderr.  Running it here
makes a kernel change that breaks those references fail the test suite.
A second check runs many seeded rounds in one process, so that the later
rounds meet the values that the library keeps from earlier ones.
"""

import json
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


WARM_ROUNDS = """
import json, random, sys
sys.path.insert(0, {bench!r})
import kernels
from rbw import symmetry_state

problems = []
for seed in range(1, 6):
    rng = random.Random(seed)
    for _ in range({rounds}):
        r = kernels.make_round(rng)
        problems += [f"seed {{seed}}: {{p}}" for p in kernels.check_round(r, kernels.run_round(r))]
print(json.dumps({{"problems": problems,
                  "splits": symmetry_state._spectral_split.cache_info()._asdict()}}))
"""


def test_rounds_on_warm_caches_pass_their_reference_check():
    # one process for every seed: later rounds reuse the spectral splits
    # that earlier rounds computed, as the timed rounds do
    code = WARM_ROUNDS.format(bench=str(REPO / "bench"), rounds=6)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["problems"] == []
    assert report["splits"]["hits"] > report["splits"]["misses"] > 0
