"""Boosts, simultaneity, and the five-observer scenario."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from rbw import relsim
from rbw.errors import MixedFrames, SuperluminalVelocity
from rbw.relsim import (
    SPEED_OF_LIGHT,
    Boost,
    CoRealLink,
    ScenarioReport,
    SimultaneityClass,
    SpacetimeEvent,
    boost_event,
    corealness_chain,
    events_document,
    gamma,
    interval,
    interval_class,
    load_events,
    simultaneity_classes,
    weak_boost_transform,
)

C = SPEED_OF_LIGHT


def ev(t, x, frame="boys", label=""):
    return SpacetimeEvent(t=t, x=x, frame=frame, label=label)


# ------------------------------------------------------------------- gamma

def test_gamma_at_rest():
    assert gamma(Boost(v=0.0)) == 1.0


def test_gamma_point_six():
    assert gamma(Boost(v=0.6 * C)) == pytest.approx(1.25, rel=1e-15)


def test_gamma_point_eight():
    assert gamma(Boost(v=0.8 * C)) == pytest.approx(5.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("v", [C, -C, 1.1 * C, float("inf"), float("nan")])
def test_superluminal_rejected(v):
    with pytest.raises(SuperluminalVelocity):
        Boost(v=v)


# ------------------------------------------------------------------- boosts

def test_boost_first_reference_pair():
    out = boost_event(ev(0.0, 1000.0), Boost(v=0.6 * C))
    assert out.t == pytest.approx(-0.0025, rel=1e-15)
    assert out.x == pytest.approx(1250.0, rel=1e-15)
    assert out.frame == "boys'"


def test_boost_second_reference_pair():
    out = boost_event(ev(0.002, 1000.0), Boost(v=0.6 * C))
    assert out.t == pytest.approx(0.0, abs=1e-18)
    assert out.x == pytest.approx(800.0, rel=1e-15)


def test_identity_boost():
    e = ev(0.37, -42.0, label="probe")
    out = boost_event(e, Boost(v=0.0))
    assert out.t == e.t and out.x == e.x and out.label == "probe"


def test_frame_label_toggles():
    e = ev(0.0, 1.0, frame="lab'")
    assert boost_event(e, Boost(v=1000.0)).frame == "lab"
    assert boost_event(e, Boost(v=1000.0), target_frame="girls").frame == "girls"


def closed_form(e, v, c=C):
    """T = gamma (t - v x / (c c)), X = gamma (x - v t), gamma = 1/sqrt(1 - (v/c)^2)."""
    beta = v / c
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return g * (e.t - v * e.x / (c * c)), g * (e.x - v * e.t)


@pytest.mark.parametrize("seed,beta", enumerate([-0.99, -0.6, -1e-3, 0.0, 0.25, 0.6, 0.999999]))
@pytest.mark.parametrize("c", [C, 1.0])
def test_boosts_match_closed_form_bit_for_bit(seed, beta, c):
    # gamma and c*c are stored on the Boost, and the per-event arithmetic
    # keeps its order, so every coordinate has the closed form's bits
    rng = np.random.default_rng(seed)
    v = beta * c
    b = Boost(v=v, c=c)
    assert gamma(b) == 1.0 / math.sqrt(1.0 - (v / c) * (v / c))
    events = [ev(float(rng.uniform(-10, 10)), float(rng.uniform(-1e6, 1e6)) * c / C,
                 label=f"e{i}") for i in range(300)]
    for e in events:
        out = boost_event(e, b)
        assert (out.t, out.x) == closed_form(e, v, c)
        assert out.frame == "boys'" and out.label == e.label
    members = [m for cls in simultaneity_classes(events, b) for m in cls.events]
    by_label = {e.label: e for e in events}
    assert [m.t for m in members] == sorted(m.t for m in members)
    assert sorted(m.label for m in members) == sorted(by_label)
    for m in members:
        assert (m.t, m.x) == closed_form(by_label[m.label], v, c)
        assert m.frame == "boys'"


def test_simultaneity_classes_toggle_the_frame():
    b = Boost(v=0.6 * C)
    assert {m.frame for cls in simultaneity_classes([ev(0.0, 1.0, frame="girls'")], b)
            for m in cls.events} == {"girls"}
    assert simultaneity_classes([], b) == []


@pytest.mark.parametrize("v", [-0.6 * C, 0.6 * C])
def test_boosted_events_equal_public_constructor_events(v):
    b = Boost(v=v)
    e = ev(0.002, 1000.0, label="probe")
    for out in (boost_event(e, b), boost_event(e, b, target_frame="girls"),
                simultaneity_classes([e], b)[0].events[0]):
        public = SpacetimeEvent(t=out.t, x=out.x, frame=out.frame, label=out.label)
        assert out == public
        assert hash(out) == hash(public)
        assert repr(out) == repr(public)
        assert type(out) is SpacetimeEvent
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.t = 0.0


def test_boosted_events_are_slotted():
    e = ev(0.002, 1000.0, label="probe")
    for out in (e, boost_event(e, Boost(v=0.6 * C)),
                simultaneity_classes([e], Boost(v=0.6 * C))[0].events[0]):
        assert not hasattr(out, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.label = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del out.x
        for twin in (copy.copy(out), copy.deepcopy(out), pickle.loads(pickle.dumps(out))):
            assert twin == out and hash(twin) == hash(out) and repr(twin) == repr(out)
            assert type(twin) is SpacetimeEvent and not hasattr(twin, "__dict__")


@pytest.mark.parametrize("c", [1e-200, 1e-155, 5e-324])
def test_light_speed_whose_square_underflows_is_rejected(c):
    # c * c below the smallest normal float would make every boost divide by 0
    assert c * c < sys.float_info.min
    with pytest.raises(ValueError, match="c\\*c underflows"):
        Boost(v=0.0, c=c)
    with pytest.raises(ValueError, match="c\\*c underflows"):
        weak_boost_transform(1.0, 1.0, 0.0, c)


def test_smallest_light_speeds_still_boost():
    c = 2e-154
    assert c * c >= sys.float_info.min
    out = boost_event(ev(1.0, 1e-154), Boost(v=0.5 * c, c=c))
    assert math.isfinite(out.t) and math.isfinite(out.x)
    assert weak_boost_transform(1.0, 1e-154, 0.5 * c, c) == (1.0 - 0.5 * c * 1e-154 / (c * c),
                                                             1e-154 - 0.5 * c)


def test_overflowing_boost_raises_the_constructor_error():
    # T and X overflow to inf and -inf, which the public constructor rejects too
    e = ev(1e308, 0.0)
    b = Boost(v=0.99 * C)
    with pytest.raises(ValueError) as public:
        SpacetimeEvent(t=math.inf, x=-math.inf)
    for boost_it in (lambda: boost_event(e, b), lambda: simultaneity_classes([e], b)):
        with pytest.raises(ValueError) as info:
            boost_it()
        assert str(info.value) == str(public.value) == (
            "event coordinates must be finite: t=inf, x=-inf")


@pytest.mark.parametrize("t,x,v,c,coords", [
    (math.nan, 1.0, 0.5, C, "t=nan, x=1.0"),
    (1.0, math.inf, 0.5, C, "t=1.0, x=inf"),
    (1.0, 1.0, math.inf, C, "t=-inf, x=-inf"),
    (1.0, 1.0, math.nan, math.inf, "t=1.0, x=nan"),
    (0.0, 1e308, 1e10, 1.0, "t=-inf, x=1e+308"),
], ids=["nan-t", "inf-x", "inf-v", "nan-v-absolute-time", "overflowing-shift"])
def test_weak_boost_refuses_non_finite_coordinates(t, x, v, c, coords):
    # each of these returned NaN or infinite coordinates instead of raising
    with pytest.raises(ValueError) as info:
        weak_boost_transform(t, x, v, c)
    assert str(info.value) == f"event coordinates must be finite: {coords}"


@pytest.mark.parametrize("v", [0.0, -1234.5, 0.6 * C])
def test_boost_equality_hash_and_repr_see_only_v_and_c(v):
    assert Boost(v=v) == Boost(v=v)
    assert hash(Boost(v=v)) == hash(Boost(v=v))
    assert Boost(v=v) != Boost(v=v, c=2 * C)
    assert repr(Boost(v=v)) == f"Boost(v={v!r}, c={C!r})"
    assert dataclasses.replace(Boost(v=v), v=-v) == Boost(v=-v)
    assert gamma(dataclasses.replace(Boost(v=v), v=-v)) == gamma(Boost(v=v))


@pytest.mark.parametrize("seed", [0, 1])
def test_inverse_boost_roundtrip(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        e = ev(float(rng.uniform(-10, 10)), float(rng.uniform(-1e6, 1e6)))
        b = Boost(v=float(rng.uniform(-0.99, 0.99)) * C)
        back = boost_event(boost_event(e, b), b.inverse())
        scale = max(abs(e.t), abs(e.x) / C, 1e-9)
        assert abs(back.t - e.t) < 1e-9 * scale
        assert abs(back.x - e.x) < 1e-9 * scale * C


@pytest.mark.parametrize("seed", [2, 3])
def test_interval_preserved_by_boost(seed):
    rng = np.random.default_rng(seed)
    origin = ev(0.0, 0.0)
    for _ in range(200):
        e = ev(float(rng.uniform(-10, 10)), float(rng.uniform(-1e6, 1e6)))
        b = Boost(v=float(rng.uniform(-0.99, 0.99)) * C)
        before = interval(origin, e)
        moved = boost_event(e, b)
        after = (C * moved.t) ** 2 - moved.x ** 2
        scale = max(abs(before), (C * e.t) ** 2 + e.x ** 2)
        assert abs(after - before) < 1e-9 * scale


# ------------------------------------------------------------- simultaneity

def test_rest_frame_keeps_one_class():
    classes = simultaneity_classes([ev(0.0, 0.0), ev(0.0, 1000.0)], Boost(v=0.0))
    assert len(classes) == 1
    assert classes[0].time == 0.0


def test_boost_splits_simultaneity():
    classes = simultaneity_classes([ev(0.0, 0.0, label="event1"),
                                    ev(0.0, 1000.0, label="event2")],
                                   Boost(v=0.6 * C))
    assert len(classes) == 2
    assert classes[0].time == pytest.approx(-0.0025, rel=1e-12)
    assert classes[1].time == pytest.approx(0.0, abs=1e-15)
    assert classes[0].events[0].label == "event2"


def test_boost_aligns_different_times():
    classes = simultaneity_classes([ev(0.0, 0.0), ev(0.002, 1000.0)],
                                   Boost(v=0.6 * C))
    assert len(classes) == 1
    assert classes[0].time == pytest.approx(0.0, abs=1e-15)


def test_simultaneity_tolerance_zero_keeps_exact_ties():
    events = [ev(0.0, 0.0), ev(0.0, 1000.0), ev(1.0, 0.0)]
    classes = simultaneity_classes(events, Boost(v=0.0))
    assert [len(c.events) for c in classes] == [2, 1]


def test_mixed_frames_rejected():
    with pytest.raises(MixedFrames):
        simultaneity_classes([ev(0.0, 0.0, frame="boys"),
                              ev(0.0, 0.0, frame="girls")], Boost(v=0.0))
    with pytest.raises(MixedFrames):
        interval_class(ev(0, 0, frame="a"), ev(0, 1, frame="b"))


# ----------------------------------------------------------------- interval

def test_spacelike():
    assert interval_class(ev(0.0, 0.0), ev(0.0, 5.0)) == "spacelike"


def test_timelike():
    assert interval_class(ev(0.0, 0.0), ev(1.0, 0.0)) == "timelike"


def test_null():
    assert interval_class(ev(0.0, 0.0), ev(1.0, C)) == "null"


@pytest.mark.parametrize("seed", [4, 5])
def test_interval_class_boost_invariant(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        kind = rng.integers(3)
        dt = float(rng.uniform(0.1, 5.0))
        if kind == 0:
            e2 = ev(dt, C * dt)                                    # null
        elif kind == 1:
            e2 = ev(dt, C * dt * float(rng.uniform(0, 0.9)))       # timelike
        else:
            e2 = ev(dt, C * dt * float(rng.uniform(1.1, 5.0)))     # spacelike
        e1 = ev(0.0, 0.0)
        b = Boost(v=float(rng.uniform(-0.95, 0.95)) * C)
        before = interval_class(e1, e2)
        after = interval_class(boost_event(e1, b), boost_event(e2, b))
        assert before == after


def test_interval_past_the_float_range_is_inf_not_overflow_error():
    # (c dt) ** 2 raised OverflowError here; the plain product overflows to inf
    assert interval(ev(0, 0), ev(1, 1), c=1e200) == math.inf


def test_interval_class_rejects_a_negative_light_speed():
    # the square hid the sign: this was classified "timelike"
    for call in (interval, interval_class):
        with pytest.raises(ValueError, match="finite and positive, got -5"):
            call(ev(0, 0), ev(1, 1), c=-5)


def test_interval_class_rejects_a_zero_light_speed():
    # this was classified "spacelike"
    for call in (interval, interval_class):
        with pytest.raises(ValueError, match="finite and positive, got 0"):
            call(ev(0, 0), ev(1, 1), c=0)


@pytest.mark.parametrize("c", [math.nan, math.inf, 1e-160])
def test_interval_rejects_the_light_speeds_boost_rejects(c):
    with pytest.raises(ValueError) as boost:
        Boost(v=0.0, c=c)
    for call in (interval, interval_class):
        with pytest.raises(ValueError) as info:
            call(ev(0, 0), ev(1, 1), c=c)
        assert str(info.value) == str(boost.value)


@pytest.mark.parametrize("c", [-5, 0, math.nan, -math.inf])
def test_weak_boost_rejects_the_light_speeds_boost_rejects(c):
    with pytest.raises(ValueError, match="finite and positive") as boost:
        Boost(v=0.0, c=c)
    with pytest.raises(ValueError, match="finite and positive") as info:
        weak_boost_transform(1.0, 1.0, 0.0, c)
    assert str(info.value) == str(boost.value)


@pytest.mark.parametrize("e1,e2,c", [
    (ev(0, 0), ev(1, 1), 1e200),              # c dt overflows
    (ev(0, -1e308), ev(0, 1e308), C),         # dx overflows; inf <= tol * inf read "null"
], ids=["c-dt-overflow", "dx-overflow"])
def test_interval_class_refuses_a_non_finite_invariant(e1, e2, c):
    with pytest.raises(ValueError, match="not finite"):
        interval_class(e1, e2, c=c)


# ----------------------------------------------------------------- scenario

def test_scenario_reference_numbers():
    report = corealness_chain()
    assert report.gamma == pytest.approx(1.25, rel=1e-15)
    assert report.boost.v == pytest.approx(0.6 * C)

    b2 = report.boosted["event2"]
    assert (b2.t, b2.x) == (pytest.approx(-0.0025, rel=1e-12),
                            pytest.approx(1250.0, rel=1e-12))
    b3 = report.boosted["event3"]
    assert (b3.t, b3.x) == (pytest.approx(0.0, abs=1e-15),
                            pytest.approx(800.0, rel=1e-12))


def test_scenario_links_verified_by_boosts():
    report = corealness_chain()
    by_name = dict(report.events)
    for link in report.links:
        ea, eb = by_name[link.a], by_name[link.b]
        if link.frame == "boys":
            assert ea.t == pytest.approx(link.time, abs=1e-15)
            assert eb.t == pytest.approx(link.time, abs=1e-15)
        else:
            ba = report.boosted[link.a]
            bb = report.boosted[link.b]
            assert ba.t == pytest.approx(link.time, abs=1e-15)
            assert bb.t == pytest.approx(link.time, abs=1e-15)


def test_scenario_lengths():
    lengths = corealness_chain().lengths
    assert lengths["joe_bob_boys"] == pytest.approx(1000.0)
    assert lengths["joe_bob_girls"] == pytest.approx(800.0)
    assert lengths["kim_alice_girls"] == pytest.approx(450.0)
    assert lengths["kim_alice_boys"] == pytest.approx(360.0)


def test_scenario_rider_separation_comes_from_the_boosts(monkeypatch):
    # a boost that drifts X by one part in a million must move the riders'
    # separation with it, or the selftest compares a literal with 450
    def drifting(event, boost, target_frame=None):
        out = boost_event(event, boost, target_frame)
        return SpacetimeEvent(t=out.t, x=out.x * (1 + 1e-6), frame=out.frame,
                              label=out.label)
    monkeypatch.setattr(relsim, "boost_event", drifting)
    report = corealness_chain()
    boosted = report.boosted
    assert report.lengths["kim_alice_girls"] == boosted["event2"].x - boosted["event3"].x


@pytest.mark.parametrize("record,fields", [
    (SimultaneityClass, ("time", "events")),
    (CoRealLink, ("a", "b", "frame", "time", "note")),
    (ScenarioReport, ("boost", "gamma", "events", "boosted", "links", "conclusions",
                      "lengths")),
], ids=lambda v: getattr(v, "__name__", None))
def test_report_records_are_frozen_tuples(record, fields):
    assert record._fields == fields
    report = corealness_chain()
    made = {SimultaneityClass: simultaneity_classes(list(report.events.values()),
                                                    report.boost)[0],
            CoRealLink: report.links[0], ScenarioReport: report}[record]
    assert type(made) is record
    with pytest.raises(AttributeError):
        setattr(made, fields[0], None)


def test_scenario_chain_narrative():
    report = corealness_chain()
    assert any("Bob passes Alice" in c for c in report.conclusions)
    assert any("past" in c for c in report.conclusions)
    assert any("future" in c for c in report.conclusions)
    # event pairs 1-2 and 1-3 are spacelike separated: corealness by
    # simultaneity, not by causal contact
    e = report.events
    assert interval_class(e["event1"], e["event2"]) == "spacelike"
    assert interval_class(e["event1"], e["event3"]) == "spacelike"


# ---------------------------------------------------------------- documents

def test_event_document_roundtrip():
    doc = {"frame": "boys",
           "events": [{"label": "event1", "t": 0.0, "x": 0.0},
                      {"label": "event2", "t": 0.0, "x": 1000.0}]}
    events = load_events(doc)
    assert [e.label for e in events] == ["event1", "event2"]
    assert events[0].frame == "boys"
    assert events_document(events) == doc


def test_bad_event_documents():
    with pytest.raises(ValueError):
        load_events({"frame": "boys", "events": []})
    with pytest.raises(ValueError):
        load_events({"frame": "boys", "events": [{"t": 0.0}]})
    with pytest.raises(ValueError):
        load_events({"frame": "boys", "events": [{"t": float("nan"), "x": 0.0}]})
    for t in (True, "1", 10 ** 400):
        with pytest.raises(ValueError, match="'t' must be a finite number"):
            load_events({"frame": "boys", "events": [{"t": t, "x": 0.0}]})


@pytest.mark.parametrize("frame", [None, 0, 1.5, ["boys"], {"name": "boys"}, True])
def test_non_string_frame_rejected(frame):
    with pytest.raises(ValueError, match="'frame' must be a string"):
        load_events({"frame": frame, "events": [{"t": 0.0, "x": 0.0}]})


@pytest.mark.parametrize("label", [float("nan"), 7, None, ["a"], {"a": "b"}, False])
def test_non_string_label_rejected(label):
    with pytest.raises(ValueError, match="label must be a string"):
        load_events({"frame": "boys", "events": [{"label": label, "t": 0.0, "x": 0.0}]})


def test_nonfinite_event_rejected():
    with pytest.raises(ValueError):
        SpacetimeEvent(t=math.inf, x=0.0)
