"""The kernels-warm workload: in-process rounds over the rbw library.

One round runs four tasks, in an order drawn from the seed:

  algebra   poincare_table -> contract -> galilean_table, exact Jacobi on
            all three and on a sign-flipped control, ccr_check x2,
            format_table
  group     a generated dihedral group document -> load_group ->
            load_irreps -> verify_irrep / orthogonality_residual /
            resolution_identity, then seeded states through
            expectations_from_state -> reconstruct_density ->
            eigendecompose -> outcome_probabilities
  pipeline  scalar run_pipeline calls that record every stage ket
  boosts    events through simultaneity_classes, then each boosted
            event back through boost_event with the inverse boost

`make_round` builds a round's inputs from a random generator before the
round is timed; `run_round` makes the rbw calls, the part that is timed;
`check_round` compares every output with a reference computed here and
returns one message per mismatch.  The rbw modules are called through
their module attributes, so that the traced run's wrappers see every call.

Run as a script, it imports rbw and runs one round, which is what the
workload's set-up time measures:

    PYTHONPATH=src python bench/kernels.py SEED
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cli_ops import lorentz, random_density
from rbw import contraction, grouprep, mzi, relsim, symmetry_state

DIHEDRAL_ORDERS = (6, 8, 10, 12, 14, 16)
STATES_PER_ROUND = 20
PIPELINES_PER_ROUND = 120
K0_POOL = (1.0, 2.0, 3.5, 6.2832)
SLICES, EVENTS_PER_SLICE = 50, 40          # 2000 events per round
# Brackets whose sign flip breaks the Jacobi identity of the Poincare table.
FLIP_PAIRS = (("K1", "K2"), ("J1", "K2"), ("T1", "K1"), ("T0", "K3"))
C = relsim.SPEED_OF_LIGHT
TOL = 1e-10


# ------------------------------------------------------------------ inputs

def dihedral_document(n: int, rng: random.Random) -> dict:
    """Group document for the dihedral group of order 2n, with every
    irrep, element labels in a seeded order.

    r<k> stands for r^k and s<k> for s r^k, with r s = s r^-1; the 2-dim
    irreps are r -> diag(w^j, w^-j), s -> [[0, 1], [1, 0]], w = e^(2 pi i/n).
    """
    def product(x, y):
        (kx, ax), (ky, ay) = x, y
        if kx == "r":
            return ("r", (ax + ay) % n) if ky == "r" else ("s", (ay - ax) % n)
        return ("s", (ax + ay) % n) if ky == "r" else ("r", (ay - ax) % n)

    elements = [(kind, a) for kind in "rs" for a in range(n)]
    rng.shuffle(elements)
    label = {x: f"{x[0]}{x[1]}" for x in elements}
    mul = {f"{label[x]},{label[y]}": label[product(x, y)]
           for x in elements for y in elements}

    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    irreps = {}
    # 1-dim irreps: r -> rho, s -> sigma, with rho = -1 only when n is even
    for rho in ((1, -1) if n % 2 == 0 else (1,)):
        for sigma in (1, -1):
            irreps[f"one{rho:+d}{sigma:+d}"] = {
                "n": 1,
                "matrices": {label[(k, a)]: [[[float(rho ** a * (sigma if k == "s" else 1)), 0.0]]]
                             for k, a in elements}}
    for j in range(1, (n - 1) // 2 + 1):
        mats = {}
        for k, a in elements:
            w = cmath.exp(2j * math.pi * j * a / n)
            m = [[w, 0], [0, w.conjugate()]] if k == "r" else [[0, w.conjugate()], [w, 0]]
            mats[label[(k, a)]] = pairs(np.array(m, dtype=complex))
        irreps[f"two{j}"] = {"n": 2, "matrices": mats}
    return {"elements": [label[x] for x in elements], "mul": mul, "irreps": irreps}


@dataclass
class Round:
    order: list[str]
    hbar: Fraction
    mass: Fraction
    flip: tuple[str, str]
    group_doc: dict
    resolve_elements: list[str]
    states: list[tuple[str, np.ndarray, str]]     # (2-dim irrep, rho, element)
    pipelines: list[tuple[float, float, list]]     # (k0, a, elements)
    boost: relsim.Boost
    events: list[relsim.SpacetimeEvent]
    slice_times: list[float]


def make_round(rng: random.Random) -> Round:
    nrng = np.random.default_rng(rng.getrandbits(64))
    n = rng.choice(DIHEDRAL_ORDERS) // 2
    doc = dihedral_document(n, rng)
    two_dim = [name for name, irr in doc["irreps"].items() if irr["n"] == 2]
    states = [(rng.choice(two_dim), random_density(nrng, 2), rng.choice(doc["elements"]))
              for _ in range(STATES_PER_ROUND)]

    pipelines = []
    for _ in range(PIPELINES_PER_ROUND):
        a = rng.uniform(0.0, 1.0)
        pipelines.append((rng.choice(K0_POOL), a, [
            mzi.Element("source"), mzi.Element("bs"), mzi.Element("mirrors"),
            mzi.Element("phase", a), mzi.Element("bs"), mzi.Element("detector")]))

    # Events on SLICES boosted-frame time slices, placed by the inverse
    # transform, so each slice must come back as one simultaneity class.
    v = rng.uniform(-0.9, 0.9) * C
    slice_times = sorted(t * 1e-6 for t in rng.sample(range(-5000, 5000), SLICES))
    events = []
    for s, big_t in enumerate(slice_times):
        for e in range(EVENTS_PER_SLICE):
            t, x = lorentz(big_t, rng.uniform(-3000.0, 3000.0), -v)
            events.append(relsim.SpacetimeEvent(t=t, x=x, label=f"s{s}e{e}"))
    rng.shuffle(events)

    order = list(_TASKS)
    rng.shuffle(order)
    return Round(order=order,
                 hbar=Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                 mass=Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                 flip=rng.choice(FLIP_PAIRS), group_doc=doc,
                 resolve_elements=rng.sample(doc["elements"], 3),
                 states=states, pipelines=pipelines,
                 boost=relsim.Boost(v=v), events=events, slice_times=slice_times)


# ------------------------------------------------------------------- tasks
# Each task is split in two: the rbw calls, timed as part of the round, and
# the check of their outputs against references computed here, untimed.

def _algebra(r: Round):
    table = contraction.poincare_table()
    contracted = contraction.contract(table, r.hbar, r.mass)
    galilean = contraction.galilean_table()
    flipped = contraction.with_flipped_sign(table, *r.flip)
    return {
        "residuals": [contraction.jacobi_residual(t).residual
                      for t in (table, contracted, galilean, flipped)],
        "verdicts": [contraction.ccr_check(t, r.hbar, r.mass).verdict
                     for t in (contracted, galilean)],
        "text": contraction.format_table(contracted),
    }


def _check_algebra(r: Round, out, fails: list[str]) -> None:
    *exact, flipped = out["residuals"]
    if exact != [0.0, 0.0, 0.0]:
        fails.append(f"jacobi residuals {exact} on poincare, contracted, galilean")
    if not flipped > 0.0:
        fails.append(f"flipped control {r.flip} passed Jacobi")
    if out["verdicts"] != ["CCR RECOVERED", "NO CCR"]:
        fails.append(f"ccr verdicts {out['verdicts']}")
    if not out["text"].startswith("# contracted (11 generators)"):
        fails.append("format_table header")


def _group(r: Round):
    group = grouprep.load_group(r.group_doc)
    irreps = grouprep.load_irreps(r.group_doc, group)
    checks = {name: (grouprep.verify_irrep(irr), grouprep.orthogonality_residual(irr),
                     [grouprep.resolution_identity(irr, g) for g in r.resolve_elements])
              for name, irr in irreps.items()}
    states = []
    for name, rho, g in r.states:
        irr = irreps[name]
        rebuilt = symmetry_state.reconstruct_density(
            symmetry_state.expectations_from_state(rho, irr))
        states.append((rebuilt, symmetry_state.eigendecompose(rebuilt),
                       symmetry_state.outcome_probabilities(rebuilt, irr.matrix(g))))
    return {"group": group, "irreps": irreps, "checks": checks, "states": states}


def _check_group(r: Round, out, fails: list[str]) -> None:
    doc, irreps = r.group_doc, out["irreps"]
    if out["group"].N != len(doc["elements"]) or set(irreps) != set(doc["irreps"]):
        fails.append("group or irreps not loaded whole")
        return
    for name, (report, ortho, resolved) in out["checks"].items():
        if not report.ok:
            fails.append(f"{name}: {report.failures}")
        if not ortho <= TOL:
            fails.append(f"{name}: orthogonality residual {ortho:.3e}")
        for g, m in zip(r.resolve_elements, resolved):
            dev = float(np.max(np.abs(m - irreps[name].matrix(g))))
            if not dev <= TOL:
                fails.append(f"{name}: resolution residual {dev:.3e} at {g}")
    for (name, rho, g), (rebuilt, pairs, dist) in zip(r.states, out["states"]):
        dev = float(np.max(np.abs(rebuilt - rho)))
        if not dev <= TOL:
            fails.append(f"reconstruction off by {dev:.3e}")
        weights = np.array([w for w, _ in pairs])
        if not np.max(np.abs(weights - np.sort(np.linalg.eigvalsh(rho))[::-1])) <= TOL:
            fails.append(f"eigenweights {weights}")
        # sum_l p_l = 1 and sum_l lambda_l p_l = Tr(rho U), since U = sum_l lambda_l P_l
        u = np.asarray(irreps[name].matrix(g))
        total = sum(dist.probabilities)
        mean = sum(lam * p for lam, p in dist.pairs())
        if not (abs(total - 1.0) <= TOL and abs(mean - np.trace(rho @ u)) <= TOL):
            fails.append(f"outcome distribution of {g} in {name}")


def _pipeline(r: Round):
    return [mzi.run_pipeline(elements, k0) for k0, _, elements in r.pipelines]


def _check_pipeline(r: Round, out, fails: list[str]) -> None:
    for (k0, a, elements), result in zip(r.pipelines, out):
        c, s = math.cos(k0 * a) ** 2, math.sin(k0 * a) ** 2
        if not (abs(result.clicks.p_D1 - c) <= 1e-12 and abs(result.clicks.p_D2 - s) <= 1e-12
                and len(result.stages) == len(elements)):
            fails.append(f"pipeline k0={k0} a={a}: {result.clicks}")


def _boosts(r: Round):
    classes = relsim.simultaneity_classes(r.events, r.boost)
    inverse = r.boost.inverse()
    back = [relsim.boost_event(e, inverse) for cls in classes for e in cls.events]
    return classes, back


def _check_boosts(r: Round, out, fails: list[str]) -> None:
    classes, back = out
    moved = [e for cls in classes for e in cls.events]
    by_label = {e.label: e for e in r.events}
    if sorted(e.label for e in moved) != sorted(by_label):
        fails.append("simultaneity classes lost or repeated events")
        return
    worst = 0.0
    for m, b in zip(moved, back):
        e = by_label[m.label]
        want_t, want_x = lorentz(e.t, e.x, r.boost.v)
        t_scale = max(abs(want_t), abs(want_x) / C)
        x_scale = max(abs(want_x), abs(want_t) * C)
        worst = max(worst, abs(m.t - want_t) / t_scale, abs(m.x - want_x) / x_scale,
                    abs(b.t - e.t) / t_scale, abs(b.x - e.x) / x_scale)
    if not worst <= 1e-9:
        fails.append(f"boost or roundtrip off by {worst:.3e} relative")
    sizes = [len(cls.events) for cls in classes]
    times = [cls.time for cls in classes]
    if sizes != [EVENTS_PER_SLICE] * SLICES or not np.allclose(
            times, r.slice_times, rtol=0, atol=1e-12):
        fails.append(f"simultaneity classes: {len(classes)} classes, "
                     f"sizes {sorted(set(sizes))}")


_TASKS = {"algebra": (_algebra, _check_algebra), "group": (_group, _check_group),
          "pipeline": (_pipeline, _check_pipeline), "boosts": (_boosts, _check_boosts)}


def run_round(r: Round) -> dict:
    """The round's rbw calls, in its task order; the op that is timed."""
    return {task: _TASKS[task][0](r) for task in r.order}


def check_round(r: Round, outputs: dict) -> list[str]:
    """One message per output that misses its reference."""
    fails: list[str] = []
    for task, out in outputs.items():
        _TASKS[task][1](r, out, fails)
    return fails


if __name__ == "__main__":
    warm_up = make_round(random.Random(int(sys.argv[1])))
    problems = check_round(warm_up, run_round(warm_up))
    for line in problems:
        print(line, file=sys.stderr)
    sys.exit(1 if problems else 0)
