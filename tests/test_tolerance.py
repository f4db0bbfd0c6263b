"""The global tolerance and its RBW_TOLERANCE override."""

import pytest

from rbw.tolerance import DEFAULT_TOLERANCE, default_tolerance

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
