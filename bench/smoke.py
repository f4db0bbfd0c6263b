"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

From the root of a checkout, runs every workload briefly, untraced and
traced (cli-mix long enough for one round, which invokes every
subcommand), and checks that the last line of each run is the result
object, that it holds every metric BENCHMARK.json names for that mode,
each with its unit, and that no op failed (fail_frac = 0).
Then checks that the benchmark refuses to run, with a non-zero exit and no
result, in a directory holding only BENCHMARK.json and the benchmark's
files.  Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SECONDS = {"cli-mix": 30}      # others: 3
CLI_MIX_ROUND = 11             # ops in one cli-mix round, one per subcommand case


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd, "bench", "run.py")), "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS.get(workload, 3)), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, wanted: dict[str, str],
                 min_ops: int) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-1000:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not (result["correct"] and result["attempted"] >= min_ops and result["failed"] == 0):
        return (f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}: {proc.stderr[-1000:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()
           if isinstance(m.get("value"), (int, float))}
    if got != wanted:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            min_ops = (CLI_MIX_ROUND if workload == "cli-mix" else 1) * (1 + trace)
            failure = check_result(run(ROOT, workload, trace), wanted[trace], min_ops)
            problems += failure is not None
            print(f"{'FAIL' if failure else 'ok  '} {workload} --trace {trace}"
                  + (f": {failure}" if failure else ""))

    bare = ROOT / ".bench_run" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not any(
        line.startswith("{") for line in proc.stdout.splitlines())
    problems += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program "
          f"(exit {proc.returncode})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
