"""Benchmark of the rbw toolkit, driven from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program measured is the source in
src/.  Workloads (BENCHMARK.json says why each exists):

  cli-mix       every `rbw` subcommand in a fresh `python -m rbw.cli`
                process, small seeded inputs, seeded order
  sweep-grid    `rbw sweep` over 29k-31k seeded grid points, CSV written
                to a file
  kernels-warm  in-process rounds over the library (kernels.py), timed
                after import and one untimed warm-up round

One client in a closed loop: at most one op runs at a time and the next
starts when it ends.  Ops run until the next would end after S seconds,
and at least one runs; a cli-mix or sweep-grid round is a seeded batch of
ops, a kernels-warm round is one op.  Every output is checked against a
reference computed by the benchmark; an op fails on a wrong exit code, an
exception or an output out of tolerance.  Set-up time is a fresh
interpreter's `import rbw` (cli-mix, sweep-grid) or import plus one round
(kernels-warm), timed in SETUP_PROBES child processes spread over the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones.  With --trace 1 ops alternate between untraced and
traced, every public rbw function is wrapped in a span (tracing.py), and
the metrics are per layer, with the tracing overhead.  Lines above it give
the same numbers for people, and a record of the environment.  Inputs,
outputs and span files live in .bench_run/ in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cli_ops
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli-mix", "sweep-grid", "kernels-warm")
# Set-up is timed this many times per run, spread evenly over the run so
# that it samples the same host load as the ops it is compared with.
SETUP_PROBES = 9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-function timings reported by the traced run:
# (metric, span name, scale of seconds, per unit of counted work?, unit)
FUNCTION_METRICS = (
    ("mzi.sweep_rows.us_per_point", "mzi.sweep_rows", 1e6, True, "us"),
    ("mzi.write_sweep_csv.us_per_row", "mzi.write_sweep_csv", 1e6, True, "us"),
    ("mzi.run_pipeline.us_per_call", "mzi.run_pipeline", 1e6, False, "us"),
    ("contraction.jacobi_residual.us_per_triple", "contraction.jacobi_residual", 1e6, True,
     "us"),
    ("contraction.contract.us_per_call", "contraction.contract", 1e6, False, "us"),
    ("contraction.ccr_check.us_per_call", "contraction.ccr_check", 1e6, False, "us"),
    ("grouprep.load_group.ns_per_triple", "grouprep.load_group", 1e9, True, "ns"),
    ("grouprep.verify_irrep.us_per_call", "grouprep.verify_irrep", 1e6, False, "us"),
    ("symmetry_state.reconstruct_density.us_per_call", "symmetry_state.reconstruct_density",
     1e6, False, "us"),
    ("symmetry_state.eigendecompose.us_per_call", "symmetry_state.eigendecompose", 1e6,
     False, "us"),
    ("symmetry_state.outcome_probabilities.us_per_call",
     "symmetry_state.outcome_probabilities", 1e6, False, "us"),
    ("relsim.boost_event.ns_per_event", "relsim.boost_event", 1e9, False, "ns"),
    ("relsim.simultaneity_classes.us_per_call", "relsim.simultaneity_classes", 1e6, False,
     "us"),
    ("selftest.run_checks.ms", "selftest.run_checks", 1e3, False, "ms"),
)
IMPORT_FAMILIES = ("rbw", "numpy", "scipy")


class BenchError(Exception):
    """The benchmark cannot run here (no program, set-up failed)."""


@dataclass
class Child:
    seconds: float
    code: int
    rss_mb: float
    out: str
    err: str


@dataclass
class OpResult:
    seconds: float
    points: int
    failure: str | None
    traced: bool


class Run:
    """State of one benchmark run: scratch directory, child environment,
    op results and, when traced, span totals."""

    def __init__(self, seed: int, seconds: float, trace: bool, scratch: Path):
        self.seed, self.seconds, self.trace, self.scratch = seed, seconds, trace, scratch
        self.env = dict(os.environ, TMPDIR=str(scratch),
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
        self.results: list[OpResult] = []
        self.peak_rss_mb = 0.0
        self.totals = tracing.Totals()
        self.probe_argv: list[str] = []
        self.setup_times: list[float] = []
        self.imports: dict[str, list[float]] = {family: [] for family in IMPORT_FAMILIES}
        self.start = time.perf_counter()

    # ---------------------------------------------------------- children

    def child(self, argv: list[str], spawn_time: bool = False) -> Child:
        """Run one child process to completion, stdout and stderr to files."""
        env = dict(self.env)
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = tracing.now()
            if spawn_time:
                env["BENCH_SPAWN_T"] = repr(start)
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = tracing.now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                     out_path.read_text(), err_path.read_text())

    def probe_setup(self) -> None:
        """Time one fresh interpreter running the set-up probe when the run
        is due one; traced runs add -X importtime and keep the breakdown."""
        due = len(self.setup_times) * self.seconds / SETUP_PROBES
        if time.perf_counter() - self.start < due:
            return
        child = self.child((["-X", "importtime"] if self.trace else []) + self.probe_argv)
        if child.code != 0:
            raise BenchError(f"set-up probe exited {child.code}: {child.err[-2000:]}")
        self.setup_times.append(child.seconds)
        if self.trace:
            for family, ms in import_times_ms(child.err).items():
                self.imports[family].append(ms)

    # -------------------------------------------------------------- loops

    def schedule(self, make_round):
        """Yield the ops of successive rounds, each after any set-up probe it
        is due, until the next op would end after the time budget."""
        spent = []
        while True:
            for op in make_round():
                begin = time.perf_counter()
                self.probe_setup()
                yield op
                spent.append(time.perf_counter() - begin)
                if time.perf_counter() - self.start + statistics.fmean(spent) > self.seconds:
                    return

    def modes(self) -> tuple[bool, ...]:
        """Untraced only, or both with the order alternating op by op."""
        if not self.trace:
            return (False,)
        return (False, True) if len(self.results) % 4 == 0 else (True, False)

    def run_cli(self, make_round) -> None:
        self.probe_argv = ["-c", "import rbw"]
        self.probe_setup()
        rng = random.Random(self.seed)
        for op in self.schedule(lambda: make_round(rng, self.scratch)):
            for traced in self.modes():
                self.run_cli_op(op, traced)

    def run_cli_op(self, op: cli_ops.Op, traced: bool) -> None:
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        spans = self.scratch / "spans.npz"
        spans.unlink(missing_ok=True)
        if traced:
            child = self.child([str(BENCH / "boot.py"), str(spans)] + op.argv,
                               spawn_time=True)
        else:
            child = self.child(["-m", "rbw.cli"] + op.argv)
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        failure = op.check(child.code, child.out, child.err)
        if traced:
            if spans.exists():
                with np.load(spans) as saved:
                    self.totals.add(saved)
            else:
                failure = failure or f"no span file: {child.err[-500:]}"
        if failure:
            failure = f"{op.kind} {' '.join(op.argv)}: {failure}"
        self.results.append(OpResult(child.seconds, op.points, failure, traced))

    def run_kernels(self) -> None:
        self.probe_argv = [str(BENCH / "kernels.py"), str(self.seed)]
        self.probe_setup()
        sys.path.insert(0, str(SRC))
        import kernels
        import rbw
        if SRC.resolve() not in Path(rbw.__file__).resolve().parents:
            raise BenchError(f"rbw was imported from {rbw.__file__}, not from {SRC}")

        rng = random.Random(self.seed)
        warm_up = kernels.make_round(rng)
        problems = kernels.check_round(warm_up, kernels.run_round(warm_up))
        if problems:
            raise BenchError(f"warm-up round failed: {problems[:3]}")

        rec = tracing.Recorder()
        points = kernels.PIPELINES_PER_ROUND
        for r in self.schedule(lambda: [kernels.make_round(rng)]):
            for traced in self.modes():
                undo = []
                if traced:
                    rec.begin_op(len(self.results))
                    undo = tracing.install(rec)
                begin = time.perf_counter()
                try:
                    outputs = kernels.run_round(r)
                except Exception as exc:  # an op that raises counts as failed
                    outputs, failure = None, f"{type(exc).__name__}: {exc}"
                finally:
                    seconds = time.perf_counter() - begin
                    tracing.uninstall(undo)
                if outputs is not None:
                    failure = "; ".join(kernels.check_round(r, outputs)[:3]) or None
                self.results.append(OpResult(seconds, points, failure, traced))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.trace:
            path = self.scratch / "spans.npz"
            rec.save(path)
            with np.load(path) as saved:
                self.totals.add(saved)

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        ops = [r for r in self.results if not r.traced]
        ms = np.array([r.seconds * 1e3 for r in ops])
        busy = float(sum(r.seconds for r in ops))
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "op_ms_p75": (float(np.percentile(ms, 75)), "ms"),
            "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
            "ops_per_s": (len(ops) / busy, "1/s"),
            "points_per_s": (sum(r.points for r in ops) / busy, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = [r.seconds * 1e3 for r in self.results if r.traced]
        plain = [r.seconds * 1e3 for r in self.results if not r.traced]
        n = len(traced)
        metrics = {}
        for layer, row in self.totals.layer.items():
            metrics[f"{layer}.calls"] = (row["calls"] / n, "calls/op")
            metrics[f"{layer}.busy_ms"] = (row["busy_s"] * 1e3 / n, "ms/op")
            metrics[f"{layer}.self_ms"] = (row["self_s"] * 1e3 / n, "ms/op")
            metrics[f"{layer}.failed"] = (row["failed"], "count")
        for family, values in self.imports.items():
            metrics[f"startup.import_{family}_ms"] = (statistics.median(values), "ms")
        for name, span, scale, by_work, unit in FUNCTION_METRICS:
            metrics[name] = (self.totals.per_unit(span, scale, by_work), unit)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_ms"] = (overhead, "ms")
        metrics["trace.overhead_pct"] = (100.0 * overhead / statistics.median(plain), "%")
        return metrics

    def layer_table(self, metrics: dict[str, tuple[float, str]]) -> list[str]:
        """Where a traced op's time goes, layer by layer, from `per_layer`."""
        traced = [r.seconds * 1e3 for r in self.results if r.traced]
        mean = statistics.fmean(traced)
        lines = [f"# traced ops: {len(traced)}, mean {mean:.2f} ms/op",
                 f"# {'layer':<15}{'calls/op':>10}{'busy ms/op':>12}{'self ms/op':>12}"
                 f"{'self share':>11}{'failed':>8}"]
        outside = mean
        for layer in tracing.LAYERS:
            calls, busy, own, failed = (metrics[f"{layer}.{key}"][0]
                                        for key in ("calls", "busy_ms", "self_ms", "failed"))
            outside -= own
            lines.append(f"# {layer:<15}{calls:>10.1f}{busy:>12.3f}{own:>12.3f}"
                         f"{own / mean:>11.1%}{failed:>8}")
        lines.append(f"# {'(outside spans)':<15}{'':>22}{outside:>12.3f}{outside / mean:>11.1%}")
        return lines


# ----------------------------------------------------------------- helpers

def import_times_ms(importtime: str) -> dict[str, float]:
    """Cumulative import time of each family (a top package and its
    submodules) from `python -X importtime` output, counting only the
    outermost import of the family so nested imports count once."""
    lines = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$", line)
        if m:
            lines.append((len(m[3]) - 1, m[4], int(m[2])))
    totals = dict.fromkeys(IMPORT_FAMILIES, 0.0)
    stack: list[tuple[int, str]] = []     # ancestors of the current line
    # The output is post-order (a module after its imports); walked backwards
    # every module comes before its imports, one indent level deeper.
    for depth, name, cumulative_us in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        family = name.split(".", 1)[0]
        if family in totals and all(f != family for _, f in stack):
            totals[family] += cumulative_us / 1e3
        stack.append((depth, family))
    return totals


def environment_record() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "rbw").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (SRC / "rbw" / "cli.py").is_file():
            raise BenchError(f"no rbw source at {SRC}; run from the root of a checkout")
        scratch.mkdir(parents=True, exist_ok=True)
        run = Run(args.seed, args.seconds, bool(args.trace), scratch)
        if args.workload == "kernels-warm":
            run.run_kernels()
        else:
            run.run_cli(cli_ops.cli_mix_round if args.workload == "cli-mix"
                        else cli_ops.sweep_grid_round)
        metrics = run.per_layer() if run.trace else run.end_to_end()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [r.failure for r in run.results if r.failure]
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("# record " + json.dumps(environment_record()))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.results)} ops, fail_frac = {len(failures) / len(run.results):.4g}")
    if run.trace:
        print("\n".join(run.layer_table(metrics)))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(run.results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
