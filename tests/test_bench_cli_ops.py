"""The cli-mix benchmark's own reference checks, run against this tree.

`bench/cli_ops.cli_mix_round` builds one seeded round of `rbw` invocations,
each with the check its exit code, stdout and stderr must pass; the checks
compute their references from closed forms.  Running every op here through
`rbw.cli.main` makes a front-end change that breaks one of those references
(fewer selftest checks, a changed scenario line) fail the test suite.
"""

import random
import sys
from pathlib import Path

import pytest

from rbw import cli

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import cli_ops  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_mix_round_passes_its_reference_checks(seed, tmp_path, capsys):
    problems = []
    for op in cli_ops.cli_mix_round(random.Random(seed), tmp_path):
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        code = cli.main(op.argv)
        out, err = capsys.readouterr()
        if (why := op.check(code, out, err)) is not None:
            problems.append(f"{op.kind} {op.argv}: {why}")
    assert problems == []
