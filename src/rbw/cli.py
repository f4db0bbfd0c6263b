"""Command-line front-end; `rbw --help` shows `_USAGE`.

Each subcommand imports what it uses when it runs: `boost` and
`scenario` run on the math-only `relsim` (which loads `dataclasses`) and
`contract` on the exact `contraction`, so those three start without
numpy.  `group-check` and `reconstruct` check a document's table with
the stdlib-only `cayley` and load numpy only once it passes (`catalog`
builds a `builtin:` document with numpy, on request).  The others load
numpy; of them only `selftest` also loads `relsim`.  `json` is loaded
only to read or write a document: a group file, `--events`,
`--pipeline`, `--expectations`, and JSON output.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

from .errors import ContractViolation, RBWError, UsageError
from .tolerance import default_tolerance

__all__ = ["build_parser", "main"]

_USAGE = """\
One subcommand per module operation family:

    group-check   validate a multiplication table and its irreps
    reconstruct   density matrix from symmetry averages
    mzi           run one interferometer pipeline
    sweep         CSV of clicks and averages over a phase range
    boost         transform events between frames
    scenario      built-in five-observer report
    contract      bracket tables, the infinite-speed limit, commutators
    selftest      built-in verification suite

Exit status: 0 success, 1 bad usage or invalid input, 2 a numerical
contract was violated (residual over tolerance, failed check).  Of the
errors, only `rbw.errors.ContractViolation` exits 2; every other exits 1.
"""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like a number, so -0.6c, -1e-3, -.5, -inf and -nan
        # are values; argparse's own pattern takes only -2, -2.5 and -.5
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.I)

    # route argparse's own failures through the exit-code policy
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# -------------------------------------------------------------- formatting

def _fmt(value: float, precision: int) -> str:
    text = f"{float(value):.{precision}g}"
    return text.lstrip("-") if text in ("-0", "-0.0") else text


def _fmt_complex(z: complex, precision: int) -> str:
    re = _fmt(z.real, precision)
    im = _fmt(abs(z.imag), precision)
    sign = "-" if z.imag < 0 else "+"
    return f"{re} {sign} {im}i"


def _snap(value: float, scale: float, precision: int) -> float:
    """Zero out display noise: |value| below scale * 10^-precision."""
    return 0.0 if abs(value) < scale * 10.0 ** (-precision) else value


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}") + 0.0   # +0.0 folds -0.0 away
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit_json(document: dict, path: str | None, precision: int) -> None:
    import json
    text = json.dumps(_round_floats(document, precision), indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ------------------------------------------------------------------ inputs

def _load_json(path: str):
    import json
    try:
        with open(path, encoding="utf-8") as fh:       # RFC 8259: JSON is UTF-8
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer past 4300 digits
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _irreps(spec: str, name: str | None):
    """The group of `spec`, `builtin:<name>` or a JSON file path, and its
    irreps by name, only `name` if given.  The table is checked before
    numpy is imported, so a document that is not a group is refused
    without it."""
    if spec.startswith("builtin:"):
        from .catalog import builtin_document
        document = builtin_document(spec.split(":", 1)[1])
    else:
        document = _load_json(spec)
    from .cayley import check_table
    table = check_table(document)
    from .grouprep import GroupSpec, load_irrep, load_irreps
    group = GroupSpec(table)
    if name is None:
        return group, load_irreps(document, group)
    return group, {name: load_irrep(document, name, group)}


def parse_velocity(text: str, c: float) -> float:
    """km/s, or a multiple of the light speed with the suffix `c`."""
    body = text.strip()
    if body.endswith(("c", "C")):
        body = body[:-1].strip()
        if body in ("", "+", "-"):
            body += "1"
        try:
            return float(body) * c
        except ValueError:
            raise UsageError(f"bad velocity {text!r}") from None
    try:
        return float(body)
    except ValueError:
        raise UsageError(f"bad velocity {text!r}") from None


def _fraction(text: str, flag: str):
    """text as an exact Fraction; only `contract` reads rationals, so only
    it imports fractions (and, through it, decimal)."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} expects a rational number, got {text!r}") from None


# ------------------------------------------------------------- subcommands

def cmd_group_check(args) -> int:
    group, irreps = _irreps(args.group, args.irrep)
    from .grouprep import verify_irrep

    p = args.precision
    print(f"group ok: {group.N} elements, identity {group.identity!r}, "
          f"{len(irreps)} irrep(s)")
    reports = [verify_irrep(irreps[name]) for name in sorted(irreps)]
    for report in reports:
        print(f"irrep {report.name}: n={report.n} unitarity={_fmt(report.max_unitarity_residual, p)} "
              f"homomorphism={_fmt(report.max_homomorphism_residual, p)} "
              f"character-norm={_fmt(report.irreducibility_indicator, p)} "
              f"orthogonality={_fmt(report.orthogonality_residual, p)} "
              f"resolution={_fmt(report.resolution_residual, p)} "
              f"{'OK' if report.ok else 'FAIL'}")
        for note in report.failures:
            print(f"  - {note}")
    return 0 if all(report.ok for report in reports) else 2


def cmd_reconstruct(args) -> int:
    _, irreps = _irreps(args.group, args.irrep)
    from . import symmetry_state
    expectations = symmetry_state.load_expectations(
        _load_json(args.expectations), irreps[args.irrep])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = symmetry_state.reconstruct_density(expectations)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    _emit_json(symmetry_state.density_document(rho), args.output, args.precision)
    return 0


def _pipeline_from_args(args) -> tuple[float, list[mzi.Element]]:
    from . import mzi
    if args.pipeline:
        if args.k0 is not None or args.elements:
            raise UsageError("--pipeline excludes --k0/--elements")
        return mzi.load_pipeline(_load_json(args.pipeline))
    if args.k0 is None or not args.elements:
        raise UsageError("provide --pipeline FILE, or both --k0 and --elements")
    return mzi.load_pipeline(
        {"k0": args.k0, "elements": args.elements.split(",")})


def cmd_mzi(args) -> int:
    from . import mzi
    k0, elements = _pipeline_from_args(args)
    # run_pipeline, like sweep_rows, refuses k0 outside about 4.37e-309 to
    # 4.49e307, or a non-finite k0 * a, before computing anything
    result = mzi.run_pipeline(elements, k0)
    # sample before printing, so that a bad --shots or --seed prints no report
    sampled = mzi.sample_clicks(result.clicks, args.shots, args.seed) if args.shots else None
    p = args.precision
    print(f"k0 = {_fmt(k0, p)}")
    for label, ket in result.stages:
        amps = ", ".join(_fmt_complex(z, p) for z in ket)
        print(f"{label}: [{amps}]")
    print(f"clicks: D1={_fmt(result.clicks.p_D1, p)} D2={_fmt(result.clicks.p_D2, p)}")
    if args.shots:
        n1, n2 = sampled
        print(f"sampled {args.shots} shots (seed {args.seed}): D1={n1} D2={n2}")
    return 0


def cmd_sweep(args) -> int:
    import numpy as np
    from . import mzi
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    if not (math.isfinite(args.a_min) and math.isfinite(args.a_max)):
        raise UsageError("--a-min and --a-max must be finite")
    if not args.a_max >= args.a_min:
        raise UsageError("--a-max must not be below --a-min")
    grid = np.linspace(args.a_min, args.a_max, args.steps)
    rows = mzi.sweep_rows(args.k0, grid)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            mzi.write_sweep_csv(rows, fh, args.precision)
    else:
        mzi.write_sweep_csv(rows, sys.stdout, args.precision)
    return 0


def _print_boosted(out: relsim.SpacetimeEvent, boost: relsim.Boost,
                   precision: int, label: str = "") -> None:
    t = _snap(out.t, max(abs(out.t), abs(out.x) / boost.c), precision)
    x = _snap(out.x, max(abs(out.x), abs(out.t) * boost.c), precision)
    prefix = f"{label}: " if label else ""
    print(f"{prefix}T={_fmt(t, precision)} s, X={_fmt(x, precision)} km")


def cmd_boost(args) -> int:
    from . import relsim
    c = relsim.SPEED_OF_LIGHT if args.c is None else args.c
    velocity = parse_velocity(args.v, c)
    boost = relsim.Boost(v=velocity, c=c)
    if args.events:
        if args.t is not None or args.x is not None:
            raise UsageError("--events excludes --t/--x")
        events = relsim.load_events(_load_json(args.events))
        # boost everything before printing, so that an overflow prints no report
        moved = [relsim.boost_event(event, boost) for event in events]
        classes = relsim.simultaneity_classes(events, boost) if args.classes else []
        for out in moved:
            _print_boosted(out, boost, args.precision, out.label)
        if args.classes:
            print("simultaneity classes:")
            for cls in classes:
                labels = ", ".join(e.label for e in cls.events)
                time = _snap(cls.time, max(abs(e.x) / boost.c for e in cls.events),
                             args.precision)
                print(f"  T={_fmt(time, args.precision)} s: {labels}")
        return 0
    if args.t is None or args.x is None:
        raise UsageError("provide --t and --x, or --events FILE")
    event = relsim.SpacetimeEvent(t=args.t, x=args.x)
    _print_boosted(relsim.boost_event(event, boost), boost, args.precision)
    return 0


def cmd_scenario(args) -> int:
    from . import relsim
    report = relsim.corealness_chain()
    p = args.precision

    if args.json:
        document = {
            "velocity": report.boost.v,
            "light_speed": report.boost.c,
            "gamma": report.gamma,
            "events": {
                name: {"label": e.label,
                       "unprimed": {"t": e.t, "x": e.x},
                       "primed": {"t": report.boosted[name].t,
                                  "x": report.boosted[name].x}}
                for name, e in report.events.items()},
            "links": [{"a": l.a, "b": l.b, "frame": l.frame, "time": l.time,
                       "note": l.note} for l in report.links],
            "conclusions": list(report.conclusions),
            "lengths_km": dict(report.lengths),
        }
        _emit_json(document, None, p)
        return 0

    ratio = report.boost.v / report.boost.c
    print(f"boost: v = {_fmt(report.boost.v, p)} km/s ({_fmt(ratio, p)}c), "
          f"gamma = {_fmt(report.gamma, p)}")
    print()
    print("meeting events  (unprimed t s, x km | primed T s, X km):")
    for name, e in report.events.items():
        b = report.boosted[name]
        bt = _snap(b.t, max(abs(b.t), abs(b.x) / report.boost.c), p)
        print(f"  {name}  {e.label}: ({_fmt(e.t, p)}, {_fmt(e.x, p)})"
              f"  |  ({_fmt(bt, p)}, {_fmt(b.x, p)})")
    print()
    print("shared time slices:")
    for link in report.links:
        print(f"  {link.a} ~ {link.b} at {link.frame} time {_fmt(link.time, p)} s"
              f" ({link.note})")
    print()
    print("conclusions:")
    for line in report.conclusions:
        print(f"  - {line}")
    print()
    print("separations (km):")
    for key, value in report.lengths.items():
        print(f"  {key.replace('_', ' ')}: {_fmt(value, p)}")
    return 0


def cmd_contract(args) -> int:
    from . import contraction
    hbar = _fraction(args.hbar, "--hbar")
    mass = _fraction(args.m, "--m")
    if hbar <= 0 or mass <= 0:
        raise UsageError("--hbar and --m must be positive")
    c_value = None if args.c is None else _fraction(args.c, "--c")
    if c_value is not None and c_value <= 0:
        raise UsageError("--c must be positive")

    table = contraction.poincare_table()
    contracted = contraction.contract(table, hbar, mass)
    galilean = contraction.galilean_table()

    print(contraction.format_table(table))
    print()
    if c_value is not None:
        print(contraction.format_table(table, c=c_value))
        print()
    print(contraction.format_table(contracted))
    print()
    print(contraction.format_table(galilean))
    print()

    for label, tb in (("relativistic", table), ("contracted", contracted),
                      ("absolute-time", galilean)):
        res = contraction.jacobi_residual(tb)
        print(f"jacobi residual ({label}): {_fmt(res.residual, args.precision)}")
    print()

    gal_ccr = contraction.ccr_check(galilean, hbar, mass)
    print(f"absolute-time [P1,Q1] = "
          f"{contraction.format_combo(gal_ccr.pq[(1, 1)])} : {gal_ccr.verdict}")

    result = contraction.ccr_check(contracted, hbar, mass)
    print(f"[P1,Q2] = {contraction.format_combo(result.pq[(1, 2)])}")
    print(f"[P1,Q1] = {contraction.format_combo(result.pq[(1, 1)])}")
    if result.verdict == "CCR RECOVERED":
        coeff = contraction.format_poly(result.pq[(1, 1)]["I"])
        print(f"[P_i,Q_n] = {coeff} δ_in I : {result.verdict}")
        return 0
    print(f"[P_i,Q_n] : {result.verdict}")
    return 2


def cmd_selftest(args) -> int:
    from . import selftest
    if args.list:
        for check_id, description in selftest.all_checks().items():
            print(f"{check_id}: {description}")
        return 0
    only = args.only.split(",") if args.only is not None else None
    try:
        results = selftest.run_checks(only)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.check_id}: {r.detail}")
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 2


# --------------------------------------------------------------- dispatch

# the most digits Python's float formatting takes
_MAX_DIGITS = 2 ** 31 - 1


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 and at most {_MAX_DIGITS}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=_digits, default=12, metavar="DIGITS",
                        help="significant digits for numeric output (default 12)")

    parser = _Parser(prog="rbw", description=_USAGE,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                required=True)

    g = sub.add_parser("group-check", parents=[common])
    g.add_argument("--group", required=True, metavar="SRC",
                   help="JSON file, or builtin:trivial|z2|s3")
    g.add_argument("--irrep", metavar="NAME", help="check only this irrep")
    g.set_defaults(func=cmd_group_check)

    r = sub.add_parser("reconstruct", parents=[common])
    r.add_argument("--group", required=True, metavar="SRC")
    r.add_argument("--irrep", required=True, metavar="NAME")
    r.add_argument("--expectations", required=True, metavar="FILE",
                   help="JSON {irrep, values: {element: [re, im]}}")
    r.add_argument("--output", metavar="FILE", help="write JSON here instead of stdout")
    r.set_defaults(func=cmd_reconstruct)

    m = sub.add_parser("mzi", parents=[common])
    m.add_argument("--pipeline", metavar="FILE",
                   help="JSON {k0, elements: [source,bs,...]}")
    m.add_argument("--k0", type=float, metavar="K0", help="wave number")
    m.add_argument("--elements", metavar="LIST",
                   help="comma-separated, e.g. source,bs,mirrors,phase:0.3,bs,detector")
    m.add_argument("--shots", type=int, default=0, metavar="N",
                   help="also sample N detector clicks")
    m.add_argument("--seed", type=int, default=0, metavar="SEED")
    m.set_defaults(func=cmd_mzi)

    s = sub.add_parser("sweep", parents=[common])
    s.add_argument("--k0", type=float, required=True, metavar="K0")
    s.add_argument("--a-min", type=float, required=True, metavar="A")
    s.add_argument("--a-max", type=float, required=True, metavar="A")
    s.add_argument("--steps", type=int, required=True, metavar="N",
                   help="number of grid points, endpoints included")
    s.add_argument("--output", metavar="FILE", help="write CSV here instead of stdout")
    s.set_defaults(func=cmd_sweep)

    b = sub.add_parser("boost", parents=[common])
    b.add_argument("--v", required=True, metavar="V",
                   help="velocity in km/s, or with suffix c (e.g. 0.6c)")
    b.add_argument("--c", type=float, metavar="C",
                   help="light speed in km/s (default 300000)")
    b.add_argument("--t", type=float, metavar="T", help="event time in s")
    b.add_argument("--x", type=float, metavar="X", help="event position in km")
    b.add_argument("--events", metavar="FILE",
                   help="JSON {frame, events: [{label, t, x}]}")
    b.add_argument("--classes", action="store_true",
                   help="with --events: also print simultaneity classes")
    b.set_defaults(func=cmd_boost)

    n = sub.add_parser("scenario", parents=[common])
    n.add_argument("--json", action="store_true",
                   help="emit the report as a JSON document")
    n.set_defaults(func=cmd_scenario)

    k = sub.add_parser("contract", parents=[common])
    k.add_argument("--hbar", default="1", metavar="HBAR",
                   help="action scale as a rational, e.g. 1 or 1/2")
    k.add_argument("--m", default="1", metavar="M", help="mass as a rational")
    k.add_argument("--c", metavar="C",
                   help="also print the table at this finite light speed")
    k.set_defaults(func=cmd_contract)

    t = sub.add_parser("selftest", parents=[common])
    t.add_argument("--list", action="store_true",
                   help="enumerate checks without running them")
    t.add_argument("--only", metavar="IDS", help="comma-separated check ids")
    t.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        default_tolerance()      # a bad RBW_TOLERANCE fails before any output
        return args.func(args)
    # MemoryError: a grid too large to allocate, e.g. rbw sweep --steps=10**15
    except (RBWError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ContractViolation) else 1


if __name__ == "__main__":
    sys.exit(main())
