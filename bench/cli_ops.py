"""Seeded `rbw` invocations for the cli-mix and sweep-grid workloads.

Each op is the argument list of one fresh `python -m rbw.cli` process plus
the check its result must pass.  Values are passed as `--flag=value`, so
that argparse never reads a negative number such as -1e-05 as an option.  Input documents are generated here, from
the workload's random generator, into the run's scratch directory; every
reference value is computed here from closed forms, never by calling rbw.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

C = 300000.0                     # km/s, the CLI's default light speed
TOL = 1e-10                      # outputs are printed with 12 significant digits
SWEEP_TOL = 1e-11
CLI_MIX_SWEEP_STEPS = 100
# Sweep sizes are drawn from a narrow range, so that each op's time is set
# by the host and the program rather than by which sizes a seed drew.
SWEEP_GRID_STEPS = (29000, 31000)
SWEEPS_PER_ROUND = 3
MIN_SELFTEST_CHECKS = 33


@dataclass
class Op:
    kind: str
    argv: list[str]
    # (exit code, stdout, stderr) -> None when the output is right, else why not
    check: Callable[[int, str, str], str | None]
    points: int = 0              # interferometer phase points the op computes
    output: Path | None = None   # file the op writes, removed before each run


def _expect_exit(code: int, want: int) -> None:
    if code != want:
        raise AssertionError(f"exit code {code}, want {want}")


def _close(got: float, want: float, scale: float, what: str, tol: float = TOL) -> None:
    if not abs(got - want) <= tol * max(scale, 1e-300):
        raise AssertionError(f"{what} = {got!r}, want {want!r}")


def _as_check(fn: Callable[[int, str, str], None]):
    def check(code: int, out: str, err: str) -> str | None:
        try:
            fn(code, out, err)
        # a malformed output (a regex that finds nothing, a short file)
        # surfaces as one of these while it is parsed
        except (AssertionError, AttributeError, IndexError, KeyError, OSError,
                TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
    return check


# ------------------------------------------------------------------ groups

def s3_document(rng: random.Random) -> tuple[dict, dict[str, np.ndarray]]:
    """S3 from permutation composition, with its 2-dim irrep in a seeded
    orthonormal basis of the sum-zero plane.  Returns the document and the
    standard irrep's matrices."""
    perms = list(itertools.permutations(range(3)))
    label = {p: "p" + "".join(map(str, p)) for p in perms}

    def compose(p, q):                  # (p q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(3))

    def perm_matrix(p):
        m = np.zeros((3, 3))
        for j, i in enumerate(p):
            m[i, j] = 1.0
        return m

    def parity(p):
        return round(np.linalg.det(perm_matrix(p)))

    plane = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    basis = np.linalg.qr(plane)[0] @ rot
    standard = {label[p]: basis.T @ perm_matrix(p) @ basis for p in perms}

    def pairs(m):
        return [[[float(z), 0.0] for z in row] for row in m]

    doc = {
        "elements": [label[p] for p in perms],
        "mul": {f"{label[p]},{label[q]}": label[compose(p, q)] for p in perms for q in perms},
        "irreps": {
            "trivial": {"n": 1, "matrices": {label[p]: [[[1.0, 0.0]]] for p in perms}},
            "sign": {"n": 1, "matrices": {label[p]: [[[float(parity(p)), 0.0]]]
                                          for p in perms}},
            "standard": {"n": 2, "matrices": {g: pairs(m) for g, m in standard.items()}},
        },
    }
    return doc, standard


def _write(path: Path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


def group_check_builtin() -> Op:
    def check(code, out, err):
        _expect_exit(code, 0)
        lines = out.splitlines()
        if not lines[0].startswith("group ok: 6 elements"):
            raise AssertionError(lines[0])
        verdicts = [line.rsplit(" ", 1)[1] for line in lines if line.startswith("irrep ")]
        if verdicts != ["OK"] * 3:
            raise AssertionError(f"irrep verdicts {verdicts}")
    return Op("group-check", ["group-check", "--group", "builtin:s3"], _as_check(check))


def group_check_corrupted(rng: random.Random, tmp: Path) -> Op:
    """One table entry of a valid S3 document overwritten: no longer a
    group (a group table is a Latin square), so the CLI must exit 1."""
    doc, _ = s3_document(rng)
    key = rng.choice(sorted(doc["mul"]))
    doc["mul"][key] = rng.choice([g for g in doc["elements"] if g != doc["mul"][key]])

    def check(code, out, err):
        _expect_exit(code, 1)
        if not err.startswith("error: "):
            raise AssertionError(f"stderr {err[:80]!r}")
    return Op("group-check-corrupted",
              ["group-check", "--group", _write(tmp / "corrupted.json", doc)],
              _as_check(check))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def reconstruct(rng: random.Random, tmp: Path) -> Op:
    doc, standard = s3_document(rng)
    rho = random_density(np.random.default_rng(rng.getrandbits(64)), 2)
    averages = {g: complex(np.trace(rho @ m)) for g, m in standard.items()}
    values = {g: [z.real, z.imag] for g, z in averages.items()}
    output = tmp / "density.json"

    def check(code, out, err):
        _expect_exit(code, 0)
        result = json.loads(output.read_text())
        got = np.array([[complex(*z) for z in row] for row in result["matrix"]])
        _close(float(np.max(np.abs(got - rho))), 0.0, 1.0, "max |rho - seeded rho|")
        _close(sum(result["eigenvalues"]), 1.0, 1.0, "sum of eigenvalues")
    return Op("reconstruct",
              ["reconstruct", "--group", _write(tmp / "s3.json", doc), "--irrep", "standard",
               "--expectations", _write(tmp / "averages.json",
                                        {"irrep": "standard", "values": values}),
               "--output", str(output)],
              _as_check(check), output=output)


# ------------------------------------------------------------ interferometer

def mzi_run(rng: random.Random) -> Op:
    k0, a = rng.uniform(0.5, 8.0), rng.uniform(0.0, 1.0)
    shots, seed = rng.randint(100, 10000), rng.randint(0, 2 ** 31)

    def check(code, out, err):
        _expect_exit(code, 0)
        clicks = re.search(r"^clicks: D1=(\S+) D2=(\S+)$", out, re.M)
        _close(float(clicks[1]), math.cos(k0 * a) ** 2, 1.0, "p_D1")
        _close(float(clicks[2]), math.sin(k0 * a) ** 2, 1.0, "p_D2")
        sampled = re.search(rf"^sampled {shots} shots \(seed {seed}\): D1=(\d+) D2=(\d+)$",
                            out, re.M)
        if int(sampled[1]) + int(sampled[2]) != shots:
            raise AssertionError(f"sampled counts {sampled[0]!r}")
    return Op("mzi", ["mzi", f"--k0={k0!r}",
                      f"--elements=source,bs,mirrors,phase:{a!r},bs,detector",
                      f"--shots={shots}", f"--seed={seed}"],
              _as_check(check), points=1)


def check_sweep_csv(text: str, k0: float, a_min: float, a_max: float, steps: int) -> None:
    """Rows must match the closed forms cos^2(k0 a), sin^2(k0 a) and
    <T> = cos^2 e^{-i k0 a} + sin^2 e^{i k0 a} on np.linspace's grid."""
    header, _, body = text.partition("\n")
    if header != "a,p_D1,p_D2,ReT,ImT":
        raise AssertionError(f"header {header!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != (steps, 5):
        raise AssertionError(f"{rows.shape[0]} rows of {rows.shape[1]}, want {steps} of 5")
    a = np.linspace(a_min, a_max, steps)
    c, s = np.cos(k0 * a) ** 2, np.sin(k0 * a) ** 2
    t = c * np.exp(-1j * k0 * a) + s * np.exp(1j * k0 * a)
    worst = max(float(np.max(np.abs(rows[:, 0] - a) / np.maximum(np.abs(a), 1.0))),
                float(np.max(np.abs(rows[:, 1:] - np.column_stack([c, s, t.real, t.imag])))))
    if not worst <= SWEEP_TOL:
        raise AssertionError(f"sweep off its closed form by {worst:.3e}")


def sweep(rng: random.Random, steps: int, output: Path | None) -> Op:
    k0 = rng.uniform(0.5, 10.0)
    a_min = rng.uniform(-1.0, 1.0)
    a_max = a_min + rng.uniform(0.5, 3.0)
    argv = ["sweep", f"--k0={k0!r}", f"--a-min={a_min!r}", f"--a-max={a_max!r}",
            f"--steps={steps}"]
    if output is not None:
        argv += ["--output", str(output)]

    def check(code, out, err):
        _expect_exit(code, 0)
        check_sweep_csv(out if output is None else output.read_text(),
                        k0, a_min, a_max, steps)
    return Op("sweep", argv, _as_check(check), points=steps, output=output)


# ------------------------------------------------------------------- boosts

def lorentz(t: float, x: float, v: float) -> tuple[float, float]:
    """(t, x) seen from a frame moving at v km/s, in closed form."""
    g = 1.0 / math.sqrt(1.0 - (v / C) ** 2)
    return g * (t - v * x / C ** 2), g * (x - v * t)


_BOOSTED = re.compile(r"T=(\S+) s, X=(\S+) km$")


def _check_boosted(line: str, t: float, x: float, v: float) -> None:
    want_t, want_x = lorentz(t, x, v)
    got = _BOOSTED.search(line)
    _close(float(got[1]), want_t, max(abs(want_t), abs(want_x) / C), "T")
    _close(float(got[2]), want_x, max(abs(want_x), abs(want_t) * C), "X")


def boost_single(rng: random.Random) -> Op:
    beta = f"{rng.uniform(-0.95, 0.95):.4f}c"
    t, x = rng.uniform(-0.01, 0.01), rng.uniform(-3000.0, 3000.0)

    def check(code, out, err):
        _expect_exit(code, 0)
        _check_boosted(out.strip(), t, x, float(beta[:-1]) * C)
    return Op("boost", ["boost", f"--v={beta}", f"--t={t!r}", f"--x={x!r}"],
              _as_check(check))


def boost_events(rng: random.Random, tmp: Path) -> Op:
    """Events on four boosted-frame time slices, placed by the inverse
    transform: --classes must print exactly those four classes."""
    beta = f"{rng.uniform(-0.9, 0.9):.4f}c"
    v = float(beta[:-1]) * C
    slices = sorted(k * 1e-6 for k in rng.sample(range(-5000, 5000), 4))
    events, members = [], []
    for s, big_t in enumerate(slices):
        members.append(set())
        for _ in range(3):
            big_x = rng.uniform(-3000.0, 3000.0)
            t, x = lorentz(big_t, big_x, -v)
            label = f"ev{len(events)}"
            events.append({"label": label, "t": t, "x": x})
            members[s].add(label)
    rng.shuffle(events)
    scale = 3000.0 / C

    def check(code, out, err):
        _expect_exit(code, 0)
        lines = out.splitlines()
        for e, line in zip(events, lines):
            if not line.startswith(f"{e['label']}: "):
                raise AssertionError(f"line {line!r} for event {e['label']}")
            _check_boosted(line, e["t"], e["x"], v)
        if lines[len(events)] != "simultaneity classes:":
            raise AssertionError(f"line {lines[len(events)]!r}")
        classes = lines[len(events) + 1:]
        if len(classes) != len(slices):
            raise AssertionError(f"{len(classes)} classes, want {len(slices)}")
        for line, big_t, labels in zip(classes, slices, members):
            time, names = re.fullmatch(r"  T=(\S+) s: (.*)", line).groups()
            _close(float(time), big_t, max(abs(big_t), scale), "class time")
            if set(names.split(", ")) != labels:
                raise AssertionError(f"class {names!r}, want {sorted(labels)}")
    return Op("boost-events",
              ["boost", f"--v={beta}", "--events",
               _write(tmp / "events.json", {"frame": "lab", "events": events}), "--classes"],
              _as_check(check))


def scenario(as_json: bool) -> Op:
    def check(code, out, err):
        _expect_exit(code, 0)
        if as_json:
            report = json.loads(out)
            _close(report["gamma"], 1.25, 1.0, "gamma")
            primed = report["events"]["event2"]["primed"]
            _close(primed["t"], -0.0025, 0.0025, "event2 T")
            _close(primed["x"], 1250.0, 1250.0, "event2 X")
        elif "gamma = 1.25\n" not in out:
            raise AssertionError(out.splitlines()[0])
    return Op("scenario-json" if as_json else "scenario",
              ["scenario"] + (["--json"] if as_json else []), _as_check(check))


# ------------------------------------------------------------------ algebra

def contract(rng: random.Random) -> Op:
    hbar = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    mass = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    argv = ["contract", "--hbar", str(hbar), "--m", str(mass)]
    finite_c = rng.random() < 0.5
    if finite_c:
        argv += ["--c", str(Fraction(rng.randint(1, 400), rng.randint(1, 4)))]

    def check(code, out, err):
        _expect_exit(code, 0)
        residuals = re.findall(r"^jacobi residual \((.*)\): (\S+)$", out, re.M)
        if [r for _, r in residuals] != ["0", "0", "0"]:
            raise AssertionError(f"jacobi residuals {residuals}")
        if out.count("# poincare (10 generators)") != (2 if finite_c else 1):
            raise AssertionError("finite-c table missing or repeated")
        if not out.rstrip().endswith(": CCR RECOVERED"):
            raise AssertionError(out.rstrip().splitlines()[-1])
    return Op("contract", argv, _as_check(check))


def selftest() -> Op:
    def check(code, out, err):
        _expect_exit(code, 0)
        passed, total = map(int, re.fullmatch(r"(\d+)/(\d+) checks passed",
                                              out.rstrip().splitlines()[-1]).groups())
        if passed != total or total < MIN_SELFTEST_CHECKS:
            raise AssertionError(f"{passed}/{total} checks passed")
    return Op("selftest", ["selftest"], _as_check(check))


# ---------------------------------------------------------------- workloads

def cli_mix_round(rng: random.Random, tmp: Path) -> list[Op]:
    """Every subcommand once, in seeded order, with seeded small inputs."""
    ops = [group_check_builtin(), group_check_corrupted(rng, tmp), reconstruct(rng, tmp),
           mzi_run(rng), sweep(rng, CLI_MIX_SWEEP_STEPS, None), boost_single(rng),
           boost_events(rng, tmp), scenario(False), scenario(True), contract(rng), selftest()]
    rng.shuffle(ops)
    return ops


def sweep_grid_round(rng: random.Random, tmp: Path) -> list[Op]:
    """CSV sweeps of seeded size, grid and wave number, written to a file."""
    return [sweep(rng, rng.randint(*SWEEP_GRID_STEPS), tmp / "sweep.csv")
            for _ in range(SWEEPS_PER_ROUND)]
