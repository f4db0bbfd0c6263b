"""The global tolerance and its per-call override."""

import pytest

from rbw.tolerance import DEFAULT_TOLERANCE, default_tolerance, resolve

BAD = ["inf", "nan", "0", "-1"]


def test_default_and_override(monkeypatch):
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    assert default_tolerance() == resolve(None) == DEFAULT_TOLERANCE
    monkeypatch.setenv("RBW_TOLERANCE", "1e-6")
    assert resolve(None) == 1e-6
    assert resolve(1e-3) == 1e-3


@pytest.mark.parametrize("raw", BAD)
def test_non_finite_or_non_positive_env_tolerance_rejected(monkeypatch, raw):
    # inf would pass every residual check and nan fail every one
    monkeypatch.setenv("RBW_TOLERANCE", raw)
    for call in (default_tolerance, lambda: resolve(None)):
        with pytest.raises(ValueError, match="RBW_TOLERANCE must be a finite positive number"):
            call()


@pytest.mark.parametrize("raw", BAD)
def test_non_finite_or_non_positive_call_tolerance_rejected(monkeypatch, raw):
    monkeypatch.delenv("RBW_TOLERANCE", raising=False)
    with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
        resolve(float(raw))


def test_unparseable_env_tolerance_rejected(monkeypatch):
    monkeypatch.setenv("RBW_TOLERANCE", "abc")
    with pytest.raises(ValueError, match="not a number"):
        default_tolerance()
    assert resolve(1e-9) == 1e-9
