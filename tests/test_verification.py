import contextlib
import json
from collections import Counter

import pytest

import incmac.quadrature
import incmac.relations
import incmac.verification
from incmac.core import TIGHT, ShuParams
from incmac.verification import IDENTITY_TOLERANCES, run_verification, summarize


def test_default_battery_all_pass(battery):
    failures = [r for r in battery if not r.passed]
    assert failures == []


def test_expected_identity_coverage(battery):
    names = {r.identity for r in battery}
    assert {
        "ThreeForm", "Rec1", "Rec2", "dSdz", "dSdt", "RecSum",
        "Diff1_k1", "Diff1_k2", "Diff2_k1", "Diff2_k2",
        "PDE_exact", "PDE_fd",
        "GenGammaDef", "LeakyDef", "ImbDef", "GenGammaInv", "LeakyInv",
        "LargeTLimit", "LargeTGapBound",
        "SmallTRatio", "SmallTOrder", "SmallZTrend", "SmallZOrder",
        "LargeZWindow", "LargeZTrend", "ImbTrend",
    } == names


def test_grid_sizes(battery):
    per = {name: pts for name, pts, _, _ in summarize(battery)}
    assert per["ThreeForm"] == 7 * 4 * 4
    assert per["Rec1"] == 5 * 3 * 3
    assert per["PDE_exact"] == 5 * 3 * 3
    assert per["GenGammaDef"] == 27
    assert per["LeakyDef"] == 27
    assert per["ImbDef"] == 27


def test_records_serialize_to_json(battery):
    payload = [
        {"identity": r.identity, "nu": r.nu, "z": r.z, "t": r.t,
         "residual": r.residual, "scale": r.scale, "pass": r.passed}
        for r in battery
    ]
    text = json.dumps(payload)
    assert json.loads(text) == payload


def test_headline_tolerances_pinned():
    assert IDENTITY_TOLERANCES["ThreeForm"] == 1e-9
    assert IDENTITY_TOLERANCES["PDE_exact"] == 1e-7
    assert IDENTITY_TOLERANCES["Diff1_k2"] == 1e-4
    assert IDENTITY_TOLERANCES["GenGammaDef"] == 1e-8


def test_dense_grid_also_passes():
    records = run_verification("dense")
    assert all(r.passed for r in records)
    assert len(records) > 0


def test_unknown_grid_rejected():
    with pytest.raises(ValueError):
        run_verification("huge")


def test_sign_fault_is_localized(monkeypatch, battery):
    """A sign error in the order-shift derivative formula must be caught by
    the checks that compare against raw finite differences, while the
    recurrence checks that never use the formula keep passing."""

    def broken(p: ShuParams, tol=None):
        from incmac.core import TIGHT
        from incmac.relations import _S

        nu, z, t = p.order, p.argument, p.endpoint
        tol = tol or TIGHT
        # flipped sign on the shifted-order term
        return (nu / z) * _S(nu, z, t, tol) + _S(nu + 1.0, z, t, tol)

    monkeypatch.setattr(incmac.relations, "dS_dz", broken)
    monkeypatch.setattr(incmac.verification, "dS_dz", broken)
    records = run_verification()
    by_name = {}
    for r in records:
        by_name.setdefault(r.identity, []).append(r.passed)
    assert not all(by_name["dSdz"])  # formula vs finite difference
    assert not all(by_name["PDE_exact"])  # exact mode routes through it
    assert all(by_name["Rec1"])  # no z-derivative at all
    assert all(by_name["Rec2"])  # pinned to raw finite differences
    assert all(by_name["PDE_fd"])  # pinned to raw finite differences


def test_fail_fast_stops_after_failing_section(monkeypatch, battery):
    def broken(p, tol=None):
        return 0.0

    monkeypatch.setattr(incmac.relations, "dS_dz", broken)
    monkeypatch.setattr(incmac.verification, "dS_dz", broken)
    full = run_verification()
    stopped = run_verification(fail_fast=True)
    assert len(stopped) < len(full)
    assert any(not r.passed for r in stopped)


def _count_integrations(monkeypatch):
    """Count oracle integrations by (point, tolerances, form)."""
    counts = Counter()
    for name, form in (("_oracle_y_form", 5), ("_oracle_endpoint_form", 2)):
        real = getattr(incmac.quadrature, name)

        def counted(p, tol, real=real, form=form):
            counts[p, tol, form] += 1
            return real(p, tol)

        monkeypatch.setattr(incmac.quadrature, name, counted)
    return counts


def test_oracle_integrated_once_per_point_per_call(monkeypatch, battery):
    counts = _count_integrations(monkeypatch)
    records = run_verification("default")
    assert records == battery
    assert len(counts) > 1000
    assert set(counts.values()) == {1}


def test_oracle_memo_does_not_outlive_the_call(monkeypatch):
    counts = _count_integrations(monkeypatch)
    run_verification("default")
    first = dict(counts)
    assert first and set(first.values()) == {1}
    run_verification("default")
    assert counts == {key: 2 * n for key, n in first.items()}


def test_oracle_not_memoised_outside_verification(monkeypatch):
    counts = _count_integrations(monkeypatch)
    p = ShuParams(0.0, 3.0, 3.0)
    assert incmac.quadrature.shu_oracle(p, TIGHT) == incmac.quadrature.shu_oracle(p, TIGHT)
    assert counts == {(p, TIGHT, 5): 2}


def test_oracle_memo_leaves_records_unchanged(monkeypatch, battery):
    monkeypatch.setattr(incmac.verification, "_oracle_memo", contextlib.nullcontext)
    assert repr(run_verification("default")) == repr(battery)
