"""Run one rbw CLI invocation with every public rbw function traced.

    BENCH_SPAWN_T=<t> python bench/boot.py SPANS_FILE [rbw arguments ...]

BENCH_SPAWN_T is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so the `startup.import_rbw` span covers interpreter
start and `import rbw`.  The rbw source must be importable (PYTHONPATH).
Spans are written to SPANS_FILE when the CLI returns; the exit status is
the CLI's.
"""

import os
import sys

import tracing

rec = tracing.Recorder()
startup = rec.open("startup.import_rbw", start=float(os.environ["BENCH_SPAWN_T"]))
import rbw.cli  # noqa: E402  (timed by the span above)
rec.close(startup)

tracing.install(rec)
main_span = len(rec.start)
code = rbw.cli.main(sys.argv[2:])
if code != 0:
    rec.failed.append(main_span)
sys.stdout.flush()
rec.save(sys.argv[1])
sys.exit(code)
