"""Lorentz boosts and the relativity of simultaneity in 1+1 dimensions.

Units are fixed to seconds and kilometers with c = 300000 km/s, so the
five-observer demonstration scenario works out to round numbers that
are exact in double precision.  Frames share their origin: t = T = 0 at
x = X = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import MixedFrames, SuperluminalVelocity
from .tolerance import resolve

__all__ = [
    "SPEED_OF_LIGHT",
    "SIMULTANEITY_TOLERANCE",
    "SpacetimeEvent",
    "Boost",
    "SimultaneityClass",
    "CoRealLink",
    "ScenarioReport",
    "gamma",
    "boost_event",
    "simultaneity_classes",
    "interval",
    "interval_class",
    "corealness_chain",
    "load_events",
    "events_document",
]

SPEED_OF_LIGHT = 300000.0          # km/s
SIMULTANEITY_TOLERANCE = 1e-12     # seconds, absolute


@dataclass(frozen=True)
class SpacetimeEvent:
    """A point event: time in seconds, position in kilometers."""

    t: float
    x: float
    frame: str = "lab"
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event coordinates must be finite: t={self.t}, x={self.x}")


@dataclass(frozen=True)
class Boost:
    """Relative velocity of the primed frame along +x, in km/s."""

    v: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if not (self.c > 0) or not math.isfinite(self.c):
            raise ValueError(f"speed of light must be finite and positive, got {self.c}")
        if not math.isfinite(self.v) or abs(self.v) >= self.c:
            raise SuperluminalVelocity(
                f"|v| = {abs(self.v)} km/s must be below c = {self.c} km/s")

    def inverse(self) -> "Boost":
        return Boost(v=-self.v, c=self.c)


@dataclass(frozen=True)
class SimultaneityClass:
    time: float
    events: tuple[SpacetimeEvent, ...]


@dataclass(frozen=True)
class CoRealLink:
    """Two events tied together by sharing a time slice in some frame."""

    a: str
    b: str
    frame: str
    time: float
    note: str = ""


@dataclass(frozen=True)
class ScenarioReport:
    boost: Boost
    gamma: float
    events: Mapping[str, SpacetimeEvent]          # unprimed coordinates
    boosted: Mapping[str, SpacetimeEvent]         # primed coordinates
    links: tuple[CoRealLink, ...]
    conclusions: tuple[str, ...]
    lengths: Mapping[str, float] = field(default_factory=dict)


# --------------------------------------------------------------- kinematics

def gamma(boost: Boost) -> float:
    beta = boost.v / boost.c
    return 1.0 / math.sqrt(1.0 - beta * beta)


def _toggle_prime(frame: str) -> str:
    return frame[:-1] if frame.endswith("'") else frame + "'"


def boost_event(event: SpacetimeEvent, boost: Boost,
                target_frame: str | None = None) -> SpacetimeEvent:
    """Coordinates of the same event in the frame moving at v:

        T = gamma (t - v x / c^2)        X = gamma (x - v t)

    The frame label gains a prime (or loses one) unless an explicit
    target label is given.
    """
    g = gamma(boost)
    t2 = g * (event.t - boost.v * event.x / (boost.c * boost.c))
    x2 = g * (event.x - boost.v * event.t)
    frame = _toggle_prime(event.frame) if target_frame is None else target_frame
    return SpacetimeEvent(t=t2, x=x2, frame=frame, label=event.label)


def _require_single_frame(events: Iterable[SpacetimeEvent]) -> str:
    frames = {e.frame for e in events}
    if len(frames) > 1:
        raise MixedFrames(f"events span several frames: {sorted(frames)}")
    return next(iter(frames)) if frames else ""


def simultaneity_classes(events: Sequence[SpacetimeEvent], boost: Boost,
                         tol: float = SIMULTANEITY_TOLERANCE
                         ) -> list[SimultaneityClass]:
    """Partition events by their time in the boosted frame.

    Events whose transformed times agree within an absolute tolerance
    (default 1e-12 s) fall in one class; classes come out ordered by
    time and hold the boosted events.
    """
    _require_single_frame(events)
    moved = sorted((boost_event(e, boost) for e in events), key=lambda e: e.t)
    classes: list[list[SpacetimeEvent]] = []
    for e in moved:
        if classes and abs(e.t - classes[-1][-1].t) <= tol:
            classes[-1].append(e)
        else:
            classes.append([e])
    return [SimultaneityClass(time=sum(e.t for e in group) / len(group),
                              events=tuple(group))
            for group in classes]


def interval(e1: SpacetimeEvent, e2: SpacetimeEvent,
             c: float = SPEED_OF_LIGHT) -> float:
    """Invariant c^2 dt^2 - dx^2 in km^2."""
    if e1.frame != e2.frame:
        raise MixedFrames(f"{e1.frame!r} vs {e2.frame!r}")
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    return (c * dt) ** 2 - dx ** 2


def interval_class(e1: SpacetimeEvent, e2: SpacetimeEvent,
                   c: float = SPEED_OF_LIGHT,
                   tol: float | None = None) -> str:
    """'timelike', 'spacelike' or 'null' by the sign of the invariant.

    Nullness is judged relative to the separation scale, so boosted
    light rays stay null despite floating-point drift.
    """
    s = interval(e1, e2, c)
    scale = (c * (e2.t - e1.t)) ** 2 + (e2.x - e1.x) ** 2
    if abs(s) <= resolve(tol) * max(scale, 1.0):
        return "null"
    return "timelike" if s > 0 else "spacelike"


# ----------------------------------------------------------------- scenario

def corealness_chain() -> ScenarioReport:
    """The built-in five-observer scenario.

    Two boys (Joe at x = 0, Bob at x = 1000 km) stand still in the
    unprimed frame; three girls (Sara at X = 0, Alice at X = 800 km,
    Kim at X = 1250 km) ride the primed frame at v = 0.6c.  Three
    meeting events, each computed here by an honest boost:

      event1  Joe meets Sara        (t=0, x=0)        = (T=0, X=0)
      event2  Kim passes Bob        (t=0, x=1000)     = (T=-0.0025, X=1250)
      event3  Bob meets Alice       (t=0.002, x=1000) = (T=0, X=800)

    Sharing a time slice in either frame chains the events together:
    1 with 2 at t = 0 and 1 with 3 at T = 0, so one event ends up tied
    to another lying in its own frame's past or future.
    """
    boost = Boost(v=0.6 * SPEED_OF_LIGHT)
    g = gamma(boost)

    events = {
        "event1": SpacetimeEvent(t=0.0, x=0.0, frame="boys", label="Joe meets Sara"),
        "event2": SpacetimeEvent(t=0.0, x=1000.0, frame="boys", label="Kim passes Bob"),
        "event3": SpacetimeEvent(t=0.002, x=1000.0, frame="boys",
                                 label="Bob meets Alice"),
    }
    boosted = {name: boost_event(e, boost, target_frame="girls")
               for name, e in events.items()}

    # narrative times within the simultaneity tolerance read as exact zero
    t3 = boosted["event3"].t
    t3 = 0.0 if abs(t3) <= SIMULTANEITY_TOLERANCE else t3

    links = (
        CoRealLink(a="event1", b="event2", frame="boys", time=0.0,
                   note="simultaneous on the boys' t = 0 slice"),
        CoRealLink(a="event1", b="event3", frame="girls", time=t3,
                   note="simultaneous on the girls' T = 0 slice"),
    )

    t2 = boosted["event2"].t
    conclusions = (
        f"Bob passes Alice at t = {events['event3'].t:g} s, T = {t3:g} s",
        f"Kim at T = 0 is co-real with Kim at T = {t2:g} s: her own past",
        f"Bob at t = 0 is co-real with Bob at t = {events['event3'].t:g} s: "
        f"his own future",
    )

    # Joe-Bob separation on the girls' T = 0 slice is event3's X; the
    # Kim-Alice separation on the boys' t = 0 slice needs Alice's
    # position there, found by boosting back from the girls' frame.
    inv = boost.inverse()
    alice_at_t0 = boost_event(
        SpacetimeEvent(t=-boost.v * 800.0 / boost.c ** 2, x=800.0, frame="girls",
                       label="Alice"),
        inv, target_frame="boys")
    kim_at_t0 = boost_event(
        SpacetimeEvent(t=-boost.v * 1250.0 / boost.c ** 2, x=1250.0, frame="girls",
                       label="Kim"),
        inv, target_frame="boys")
    lengths = {
        "joe_bob_boys": events["event2"].x - events["event1"].x,
        "joe_bob_girls": boosted["event3"].x,
        "kim_alice_girls": 1250.0 - 800.0,
        "kim_alice_boys": kim_at_t0.x - alice_at_t0.x,
    }

    return ScenarioReport(boost=boost, gamma=g, events=events, boosted=boosted,
                          links=links, conclusions=conclusions, lengths=lengths)


# ---------------------------------------------------------------- documents

def load_events(document: Mapping) -> list[SpacetimeEvent]:
    """Parse `{frame: name, events: [{label, t, x}]}`."""
    if not isinstance(document, Mapping):
        raise ValueError(f"event document must be a JSON object, got {type(document).__name__}")
    frame = document.get("frame", "lab")
    entries = document.get("events", [])
    if not isinstance(entries, list):
        raise ValueError("event document field 'events' must be a JSON array, "
                         f"got {type(entries).__name__}")
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(SpacetimeEvent(t=float(entry["t"]), x=float(entry["x"]),
                                      frame=frame,
                                      label=str(entry.get("label", f"event{i + 1}"))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad event entry {entry!r}: {exc}") from None
    if not out:
        raise ValueError("event document lists no events")
    return out


def events_document(events: Sequence[SpacetimeEvent]) -> dict:
    frame = _require_single_frame(events)
    return {"frame": frame,
            "events": [{"label": e.label, "t": e.t, "x": e.x} for e in events]}
