"""Lorentz boosts and the relativity of simultaneity in 1+1 dimensions.

Units are fixed to seconds and kilometers with c = 300000 km/s, so the
five-observer demonstration scenario works out to round numbers that
are exact in double precision.  Frames share their origin: t = T = 0 at
x = X = 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import documents
from .errors import MixedFrames, SuperluminalVelocity
from .tolerance import default_tolerance

__all__ = ["SPEED_OF_LIGHT", "SIMULTANEITY_TOLERANCE", "SpacetimeEvent", "Boost",
           "SimultaneityClass", "CoRealLink", "ScenarioReport", "gamma", "boost_event",
           "weak_boost_transform", "simultaneity_classes", "interval", "interval_class",
           "corealness_chain", "load_events", "events_document"]

SPEED_OF_LIGHT = 300000.0          # km/s
SIMULTANEITY_TOLERANCE = 1e-12     # seconds, absolute


@dataclass(frozen=True, slots=True)
class SpacetimeEvent:
    """A point event: time in seconds, position in kilometers.

    Events are slotted, so they have no instance dict.
    """

    t: float
    x: float
    frame: str = "lab"
    label: str = ""

    def __post_init__(self):
        _require_finite(self.t, self.x)


def _require_finite(t: float, x: float) -> None:
    if not (math.isfinite(t) and math.isfinite(x)):
        raise ValueError(f"event coordinates must be finite: t={t}, x={x}")


# the slots' own setters, which the frozen __setattr__ does not guard
_set_t, _set_x, _set_frame, _set_label = (
    getattr(SpacetimeEvent, name).__set__ for name in ("t", "x", "frame", "label"))
_isfinite = math.isfinite


@dataclass(frozen=True)
class Boost:
    """Relative velocity of the primed frame along +x, in km/s."""

    v: float
    c: float = SPEED_OF_LIGHT
    # derived once here, so that each boosted event costs no sqrt; kept out
    # of ==, hash and repr
    _gamma: float = field(init=False, repr=False, compare=False)
    _c2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c2 = _checked_light_speed_squared(self.c)
        if not math.isfinite(self.v) or abs(self.v) >= self.c:
            raise SuperluminalVelocity(
                f"|v| = {abs(self.v)} km/s must be below c = {self.c} km/s")
        beta = self.v / self.c
        object.__setattr__(self, "_gamma", 1.0 / math.sqrt(1.0 - beta * beta))
        object.__setattr__(self, "_c2", c2)

    def inverse(self) -> "Boost":
        return Boost(v=-self.v, c=self.c)


class SimultaneityClass(NamedTuple):
    time: float
    events: tuple[SpacetimeEvent, ...]


class CoRealLink(NamedTuple):
    """Two events tied together by sharing a time slice in some frame."""

    a: str
    b: str
    frame: str
    time: float
    note: str = ""


class ScenarioReport(NamedTuple):
    boost: Boost
    gamma: float
    events: Mapping[str, SpacetimeEvent]          # unprimed coordinates
    boosted: Mapping[str, SpacetimeEvent]         # primed coordinates
    links: tuple[CoRealLink, ...]
    conclusions: tuple[str, ...]
    lengths: Mapping[str, float]


# --------------------------------------------------------------- kinematics

def gamma(boost: Boost) -> float:
    """1 / sqrt(1 - (v/c)^2), computed once when the boost is made."""
    return boost._gamma


def _checked_light_speed_squared(c: float) -> float:
    """c * c for a finite, positive light speed, refused when the square
    underflows below the smallest normal float (c below about 1.5e-154
    km/s), where every boost would divide by 0."""
    if not (c > 0) or not math.isfinite(c):
        raise ValueError(f"speed of light must be finite and positive, got {c}")
    c2 = c * c
    if c2 < sys.float_info.min:
        raise ValueError(f"speed of light {c} is too small: c*c underflows to {c2}")
    return c2


@functools.lru_cache(maxsize=64)     # bounded: frame labels come from documents
def _toggle_prime(frame: str) -> str:
    return frame[:-1] if frame.endswith("'") else frame + "'"


def boost_event(event: SpacetimeEvent, boost: Boost,
                target_frame: str | None = None) -> SpacetimeEvent:
    """Coordinates of the same event in the frame moving at v:

        T = gamma (t - v x / c^2)        X = gamma (x - v t)

    The frame label gains a prime (or loses one) unless an explicit
    target label is given.  The event is built without the dataclass
    __init__: the constructor's finite check, then the four slots written
    directly.
    """
    g, v, t, x = boost._gamma, boost.v, event.t, event.x
    t, x = g * (t - v * x / boost._c2), g * (x - v * t)
    if not (_isfinite(t) and _isfinite(x)):
        _require_finite(t, x)        # raises, with the constructor's message
    out = object.__new__(SpacetimeEvent)
    _set_t(out, t)
    _set_x(out, x)
    _set_frame(out, _toggle_prime(event.frame) if target_frame is None else target_frame)
    _set_label(out, event.label)
    return out


def weak_boost_transform(t: float, x: float, v: float,
                         c: float) -> tuple[float, float]:
    """First-order boost T = t - v x / c^2, X = x - v t (no gamma).

    With c = inf this is the absolute-time transform (t, x - v t); at
    finite c the mixing of x into T is what survives into the
    contracted bracket between T and K.  Non-finite coordinates, in or
    out, are refused as boost_event refuses them.
    """
    _require_finite(t, x)
    shift = 0.0 if c == math.inf else v * x / _checked_light_speed_squared(c)
    out = t - shift, x - v * t
    _require_finite(*out)
    return out


def _require_single_frame(events: Iterable[SpacetimeEvent]) -> str:
    frames = {e.frame for e in events}
    if len(frames) > 1:
        raise MixedFrames(f"events span several frames: {sorted(frames)}")
    return next(iter(frames)) if frames else ""


def simultaneity_classes(events: Sequence[SpacetimeEvent],
                         boost: Boost) -> list[SimultaneityClass]:
    """Partition events by their time in the boosted frame.

    Events whose transformed times agree within SIMULTANEITY_TOLERANCE
    (1e-12 s, absolute) fall in one class; classes come out ordered by
    time and hold the boosted events.
    """
    frame = _toggle_prime(_require_single_frame(events))
    # boost_event's body, with its lookups made once for the whole frame
    g, v, c2, new = boost._gamma, boost.v, boost._c2, object.__new__
    moved = []
    for e in events:
        t, x = e.t, e.x
        t, x = g * (t - v * x / c2), g * (x - v * t)
        if not (_isfinite(t) and _isfinite(x)):
            _require_finite(t, x)        # raises, with the constructor's message
        out = new(SpacetimeEvent)
        _set_t(out, t)
        _set_x(out, x)
        _set_frame(out, frame)
        _set_label(out, e.label)
        moved.append(out)
    moved.sort(key=attrgetter("t"))
    classes: list[list[SpacetimeEvent]] = []
    for e in moved:
        if classes and abs(e.t - classes[-1][-1].t) <= SIMULTANEITY_TOLERANCE:
            classes[-1].append(e)
        else:
            classes.append([e])
    return [SimultaneityClass(time=sum([e.t for e in group]) / len(group),
                              events=tuple(group))
            for group in classes]


def interval(e1: SpacetimeEvent, e2: SpacetimeEvent,
             c: float = SPEED_OF_LIGHT) -> float:
    """Invariant c^2 dt^2 - dx^2 in km^2; a square past the float range is
    inf, and inf - inf is nan, never an OverflowError."""
    if e1.frame != e2.frame:
        raise MixedFrames(f"{e1.frame!r} vs {e2.frame!r}")
    _checked_light_speed_squared(c)
    ct, dx = c * (e2.t - e1.t), e2.x - e1.x
    return ct * ct - dx * dx


def interval_class(e1: SpacetimeEvent, e2: SpacetimeEvent,
                   c: float = SPEED_OF_LIGHT) -> str:
    """'timelike', 'spacelike' or 'null' by the sign of the invariant.

    Nullness is judged relative to the separation scale, so boosted
    light rays stay null despite floating-point drift.  An invariant or
    scale past the float range raises ValueError instead of being judged.
    """
    s = interval(e1, e2, c)
    ct, dx = c * (e2.t - e1.t), e2.x - e1.x
    scale = ct * ct + dx * dx
    if not (math.isfinite(s) and math.isfinite(scale)):
        raise ValueError(f"interval {s} km^2 over a scale of {scale} km^2 is not finite")
    if abs(s) <= default_tolerance() * max(scale, 1.0):
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

    # Joe-Bob separation on the girls' T = 0 slice is event3's X.  In the
    # girls' frame Alice rides at event3's X and Kim at event2's; their
    # separation on the boys' t = 0 slice needs both positions there,
    # found by boosting back from the girls' frame.
    riders = {"Alice": boosted["event3"].x, "Kim": boosted["event2"].x}
    inv = boost.inverse()
    at_t0 = {rider: boost_event(
                 SpacetimeEvent(t=-boost.v * x / boost.c ** 2, x=x, frame="girls",
                                label=rider),
                 inv, target_frame="boys").x
             for rider, x in riders.items()}
    lengths = {
        "joe_bob_boys": events["event2"].x - events["event1"].x,
        "joe_bob_girls": boosted["event3"].x,
        "kim_alice_girls": riders["Kim"] - riders["Alice"],
        "kim_alice_boys": at_t0["Kim"] - at_t0["Alice"],
    }

    return ScenarioReport(boost=boost, gamma=g, events=events, boosted=boosted,
                          links=links, conclusions=conclusions, lengths=lengths)


# ---------------------------------------------------------------- documents

def load_events(document: Mapping) -> list[SpacetimeEvent]:
    """Parse `{frame: name, events: [{label, t, x}]}`."""
    what = "event document"
    doc = documents.checked(document, dict, what)
    frame = documents.field(doc, "frame", what, str, "lab")
    out = []
    for i, entry in enumerate(documents.field(doc, "events", what, list, []), start=1):
        name = f"event {i}"
        entry = documents.checked(entry, dict, name)
        out.append(SpacetimeEvent(
            t=documents.field(entry, "t", name, float),
            x=documents.field(entry, "x", name, float),
            frame=frame,
            label=documents.checked(entry.get("label", f"event{i}"), str, f"{name}: label")))
    if not out:
        raise ValueError("event document lists no events")
    return out


def events_document(events: Sequence[SpacetimeEvent]) -> dict:
    frame = _require_single_frame(events)
    return {"frame": frame,
            "events": [{"label": e.label, "t": e.t, "x": e.x} for e in events]}
