"""The global tolerance and its RBW_TOLERANCE override."""

import math

import pytest

from rbw.errors import NotUnitary
from rbw.tolerance import DEFAULT_TOLERANCE, default_tolerance, exceeds, require

BAD = ["inf", "nan", "0", "-1"]


def test_default_and_override(monkeypatch):
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    assert default_tolerance() == DEFAULT_TOLERANCE
    monkeypatch.setenv("RBW_TOLERANCE", "1e-6")
    assert default_tolerance() == 1e-6


@pytest.mark.parametrize("raw", BAD)
def test_non_finite_or_non_positive_env_tolerance_rejected(monkeypatch, raw):
    # inf would pass every residual check and nan fail every one
    monkeypatch.setenv("RBW_TOLERANCE", raw)
    with pytest.raises(ValueError, match="RBW_TOLERANCE must be a finite positive number"):
        default_tolerance()


def test_unparseable_env_tolerance_rejected(monkeypatch):
    monkeypatch.setenv("RBW_TOLERANCE", "abc")
    with pytest.raises(ValueError, match="not a number"):
        default_tolerance()


# ------------------------------------------------------- exceeds and require

ONE_ULP_OVER = math.nextafter(DEFAULT_TOLERANCE, math.inf)


@pytest.mark.parametrize("residual, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0201, "0.0201"),
    # six digits would round it onto the tolerance, so it is shown in full
    (ONE_ULP_OVER, "1.0000000000000002e-10"),
])
def test_exceeds_and_require_refuse_what_is_not_within(monkeypatch, residual, shown):
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    note = f"r = {shown} exceeds the tolerance 1e-10"
    assert exceeds(residual, "r") == note
    with pytest.raises(ValueError) as info:
        require(residual, "r")
    assert type(info.value) is ValueError and str(info.value) == note
    with pytest.raises(NotUnitary) as info:
        require(residual, "r", NotUnitary)
    assert str(info.value) == note


@pytest.mark.parametrize("residual", [0.0, DEFAULT_TOLERANCE / 2, DEFAULT_TOLERANCE])
def test_exceeds_and_require_accept_the_tolerance_itself(monkeypatch, residual):
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    assert exceeds(residual, "r") is None
    require(residual, "r")


def test_exceeds_reads_the_override(monkeypatch):
    monkeypatch.setenv("RBW_TOLERANCE", "1e-6")
    assert exceeds(1e-6, "r") is None
    assert exceeds(2e-6, "r") == "r = 2e-06 exceeds the tolerance 1e-06"
