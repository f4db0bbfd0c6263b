"""Spans around the public functions of each rbw module.

A span is one call of a public rbw function from outside its layer (the
benchmark, or another rbw module); calls within a layer, such as
`simultaneity_classes` calling `boost_event`, run inside their caller's
span and add none.  A span records its name ("<layer>.<function>"),
start and end on CLOCK_MONOTONIC (one clock for every process on the host,
so a child's spans line up with the time its parent started it), the index
of the span that was open when it began, the benchmark op it belongs to, a
count of the work it did, and whether it failed.  Spans stay in memory until
`Recorder.save`; `Totals` turns saved spans into per-layer numbers.

numpy is imported only where spans are saved or summed, so the CLI
bootstrap imports nothing heavy of its own before `import rbw`.
"""

from __future__ import annotations

import array
import functools
import inspect
import math
import sys
import time

LAYERS = ("startup", "cli", "catalog", "grouprep", "symmetry_state", "mzi",
          "relsim", "contraction", "selftest")

# Work counted at the function boundary, for per-unit timings.  A function
# missing here does one unit of work per call.
WORK = {
    "mzi.sweep_rows": lambda args, kwargs, result: len(result),
    "mzi.write_sweep_csv": lambda args, kwargs, result: len(args[0]),
    "grouprep.load_group": lambda args, kwargs, result: result.N ** 3,
    "contraction.jacobi_residual":
        lambda args, kwargs, result: math.comb(len(args[0].generators), 3),
}


# time.perf_counter reads CLOCK_MONOTONIC on Linux (checked at import), a
# clock shared by every process on the host.
now = time.perf_counter
if time.get_clock_info("perf_counter").implementation != "clock_gettime(CLOCK_MONOTONIC)":
    raise RuntimeError("span times need perf_counter to read CLOCK_MONOTONIC")


class Recorder:
    """Spans of one process, in the order they began.  Failures, work
    counts other than 1 and op boundaries are rare, so they are kept
    sparse and expanded by `save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed: list[int] = []            # indices of spans that raised
        self.work: dict[int, float] = {}       # index -> work, where not 1
        self.ops: list[tuple[int, int]] = []   # (op id, index of its first span)
        self.current = -1      # index of the open span, -1 at top level
        self.current_layer = ""

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int) -> None:
        """Spans from here on belong to op `op_id`."""
        self.ops.append((op_id, len(self.end)))

    def open(self, name: str, start: float | None = None) -> int:
        """Open a span by hand (the traced functions inline this)."""
        index = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self.current)
        self.end.append(math.nan)
        self.start.append(now() if start is None else start)
        self.current = index
        self.current_layer = name.split(".", 1)[0]
        return index

    def close(self, index: int) -> None:
        self.end[index] = now()
        self.current = self.parent[index]
        self.current_layer = ("" if self.current < 0
                              else self.names[self.name[self.current]].split(".", 1)[0])

    def save(self, path) -> None:
        import numpy as np
        n = len(self.end)
        op = np.zeros(n, dtype=np.int32)
        for op_id, first in self.ops:
            op[first:] = op_id
        failed = np.zeros(n, dtype=np.int8)
        failed[self.failed] = 1
        work = np.ones(n)
        work[list(self.work)] = list(self.work.values())
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 op=op, work=work, failed=failed)


def _traced(rec: Recorder, fn, layer: str, name: str):
    name_id = rec.name_id(name)
    work_of = WORK.get(name)
    add_name, add_parent, add_start = rec.name.append, rec.parent.append, rec.start.append
    ends = rec.end
    add_end = ends.append
    nan = math.nan

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Recorder.open/close inlined: this runs on every call of every
        # public rbw function while tracing.
        caller_layer = rec.current_layer
        if caller_layer == layer:
            return fn(*args, **kwargs)
        parent = rec.current
        index = len(ends)
        add_name(name_id)
        add_parent(parent)
        add_end(nan)
        rec.current, rec.current_layer = index, layer
        add_start(now())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            ends[index] = now()
            rec.failed.append(index)
            rec.current, rec.current_layer = parent, caller_layer
            raise
        ends[index] = now()
        rec.current, rec.current_layer = parent, caller_layer
        if work_of is not None:
            rec.work[index] = work_of(args, kwargs, result)
        return result

    return traced


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every public function of the imported rbw layer modules, at
    every name an rbw module binds it to (so `from .grouprep import
    load_group` in `rbw.cli` is wrapped too).  Returns what `uninstall`
    needs."""
    wrappers = {}
    for layer in LAYERS[1:]:
        module = sys.modules.get(f"rbw.{layer}")
        if module is None:        # rbw.cli is only imported by the CLI
            continue
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrappers[value] = _traced(rec, value, layer, f"{layer}.{attr}")
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "rbw" and not name.startswith("rbw."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return undo


def uninstall(undo) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


class Totals:
    """Per-layer and per-function sums over any number of span files."""

    def __init__(self):
        self.layer = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                              "failed": 0} for layer in LAYERS}
        self.function: dict[str, dict[str, float]] = {}

    def add(self, spans) -> None:
        import numpy as np
        names = [str(n) for n in spans["names"]]
        name = spans["name"]
        parent = spans["parent"]
        duration = spans["end"] - spans["start"]
        failed = spans["failed"]
        if np.isnan(duration).any():
            raise ValueError("span file holds a span that never closed")
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        own = duration - child
        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names],
                                 dtype=np.int64)
        layer = layer_of_name[name]

        # A span is outermost in its layer when no ancestor has its layer;
        # busy time sums only those, so recursion within a layer counts once.
        above = [0] * len(layer)          # bitmask of ancestor layers
        outermost = np.ones(len(layer), dtype=bool)
        layer_list = layer.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                above[i] = above[p] | (1 << layer_list[p])
                outermost[i] = not (above[i] >> layer_list[i]) & 1

        for k, layer_name in enumerate(LAYERS):
            mine = layer == k
            row = self.layer[layer_name]
            row["calls"] += int(mine.sum())
            row["busy_s"] += float(duration[mine & outermost].sum())
            row["self_s"] += float(own[mine].sum())
            row["failed"] += int(failed[mine].sum())
        # per-function timings count only calls that returned, since a call
        # that raised did an unknown part of its work
        ok = failed == 0
        calls = np.bincount(name[ok], minlength=len(names))
        seconds = np.bincount(name[ok], weights=duration[ok], minlength=len(names))
        work = np.bincount(name[ok], weights=spans["work"][ok], minlength=len(names))
        for i, n in enumerate(names):
            row = self.function.setdefault(n, {"calls": 0, "seconds": 0.0,
                                               "work": 0.0})
            row["calls"] += int(calls[i])
            row["seconds"] += float(seconds[i])
            row["work"] += float(work[i])

    def per_unit(self, function: str, scale: float, by_work: bool) -> float:
        """Mean duration of the function's returned calls times `scale`, per
        call or per unit of work; 0.0 when no call returned."""
        row = self.function.get(function)
        if not row or not row["calls"]:
            return 0.0
        return row["seconds"] * scale / (row["work"] if by_work else row["calls"])
