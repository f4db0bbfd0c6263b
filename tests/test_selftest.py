"""The built-in verification suite itself."""

import re

import pytest

from rbw import catalog, selftest


def test_every_check_passes():
    results = selftest.run_checks()
    failed = [r for r in results if not r.ok]
    assert not failed, [f"{r.check_id}: {r.detail}" for r in failed]
    assert len(results) == len(selftest.all_checks())


def test_check_result_is_a_record_of_four_fields():
    assert selftest.CheckResult._fields == ("check_id", "description", "ok", "detail")
    assert selftest.CheckResult._field_defaults == {}
    first = next(iter(selftest.all_checks()))
    check_id, description, ok, _ = selftest.run_checks([first])[0]
    assert (check_id, description, ok) == (first, selftest.all_checks()[first], True)


def test_registry_hygiene():
    ids = list(selftest.all_checks())
    assert len(ids) == len(set(ids))
    for check_id, description in selftest.all_checks().items():
        assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)+", check_id)
        assert description.strip()


def test_subset_keeps_registry_order():
    ids = list(selftest.all_checks())
    picked = [ids[5], ids[1], ids[9]]
    results = selftest.run_checks(picked)
    assert [r.check_id for r in results] == sorted(picked, key=ids.index)


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match="unknown check ids"):
        selftest.run_checks(["no-such-check"])


def test_failures_are_reported_not_raised(monkeypatch):
    def explode():
        raise RuntimeError("broken fixture")
    monkeypatch.setitem(selftest._REGISTRY, "rel-gamma", ("gamma check", explode))
    results = selftest.run_checks(["rel-gamma"])
    assert len(results) == 1
    assert not results[0].ok
    assert "RuntimeError" in results[0].detail


def test_negative_control_fails_when_the_validator_crashes(monkeypatch):
    # only a group validation error counts as the corrupted table rejected
    def crash(document):
        raise TypeError("validator bug")
    monkeypatch.setattr(selftest, "load_group", crash)
    [result] = selftest.run_checks(["group-negative-control"])
    assert not result.ok
    assert result.detail == "TypeError: validator bug"


def test_s3_irreps_are_loaded_once_per_run(monkeypatch):
    # three group checks share one S3 document, built afresh for each run
    calls = []

    def counting(s3_irreps=catalog.s3_irreps):
        calls.append(None)
        return s3_irreps()
    monkeypatch.setattr(catalog, "s3_irreps", counting)
    for runs in (1, 2):
        assert all(r.ok for r in selftest.run_checks())
        assert len(calls) == runs


def test_close_rejects_a_result_of_the_wrong_shape():
    # broadcasting would pass [0.5] against [0.5, 0.5]
    with pytest.raises(selftest.CheckFailed, match="shape"):
        selftest._close([0.5], [0.5, 0.5])
