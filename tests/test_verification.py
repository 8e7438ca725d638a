import contextlib
import json
import math
from collections import Counter

import pytest

import incmac.quadrature
import incmac.relations
import incmac.verification
from incmac.core import TIGHT, MethodTag, NonConvergence, ShuParams
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

    def broken(p: ShuParams):
        from incmac.relations import _S

        nu, z, t = p.order, p.argument, p.endpoint
        # flipped sign on the shifted-order term
        return (nu / z) * _S(nu, z, t) + _S(nu + 1.0, z, t)

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
    real = incmac.quadrature._oracle

    def counted(p, tol, form):
        counts[p, tol, form] += 1
        return real(p, tol, form)

    monkeypatch.setattr(incmac.quadrature, "_oracle", counted)
    return counts


def _count_evaluations(monkeypatch):
    """Count the battery's evaluate calls by (point, tolerances), and keep
    the decision of each."""
    counts = Counter()
    decisions = []
    real = incmac.relations.evaluate

    def counted(p, tol):
        counts[p, tol] += 1
        ev, dec = real(p, tol)
        decisions.append(dec)
        return ev, dec

    monkeypatch.setattr(incmac.relations, "evaluate", counted)
    return counts, decisions


def _only(records, *identities):
    return [r for r in records if r.identity in identities]


def test_oracle_integrated_once_per_point_per_call(monkeypatch, battery):
    integrations = _count_integrations(monkeypatch)
    evaluations, _ = _count_evaluations(monkeypatch)
    records = run_verification("default")
    assert records == battery
    assert len(evaluations) > 1000
    assert set(evaluations.values()) == {1}
    assert set(integrations.values()) == {1}
    # form 5 is integrated only where a check compares the integrals
    # themselves: the three-form sweep and the large-endpoint limit
    form5 = {p for p, tol, form in integrations if form == 5}
    assert form5 == {ShuParams(r.nu, r.z, r.t) for r in _only(battery, "ThreeForm", "LargeTLimit")}
    assert len(form5) == 115


def test_no_battery_value_falls_back_to_the_oracle(monkeypatch):
    _, decisions = _count_evaluations(monkeypatch)
    run_verification("default")
    assert decisions
    assert [d for d in decisions if d.chosen is MethodTag.ORACLE5] == []


def test_integral_checks_do_not_take_evaluate(monkeypatch, battery):
    """A stand-in for evaluate 1e-6 off, the sign alternating with the
    integer part of the order, leaves the three-form sweep and the
    large-endpoint limit as they were, and fails the first recurrence."""
    real = incmac.relations.evaluate

    def off(p, tol):
        ev, dec = real(p, tol)
        return ev._replace(value=ev.value * (1.0 + 1e-6 * (-1) ** math.floor(p.order))), dec

    monkeypatch.setattr(incmac.relations, "evaluate", off)
    records = run_verification("default")
    kept = _only(battery, "ThreeForm", "LargeTLimit")
    assert len(kept) == 115
    assert _only(records, "ThreeForm", "LargeTLimit") == kept
    assert not all(r.passed for r in _only(records, "Rec1"))


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


def test_direct_integrals_must_converge(monkeypatch):
    # each kind of direct integral that hits the bisection cap raises, as
    # an oracle value does, instead of becoming a reference
    real = incmac.verification.integrate_adaptive
    integrands = []

    def recording(f, *args, **kwargs):
        if f.__code__ not in integrands:
            integrands.append(f.__code__)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(incmac.verification, "integrate_adaptive", recording)
    run_verification()
    assert len(integrands) == 5  # three round trips, the tail gap, the cosh trend
    for code in integrands:

        def capped(f, *args, code=code, **kwargs):
            res = real(f, *args, **kwargs)
            return res._replace(converged=res.converged and f.__code__ is not code)

        monkeypatch.setattr(incmac.verification, "integrate_adaptive", capped)
        with pytest.raises(NonConvergence):
            run_verification()


def test_oracle_memo_leaves_records_unchanged(monkeypatch, battery):
    monkeypatch.setattr(incmac.verification, "shared_work", contextlib.nullcontext)
    assert repr(run_verification("default")) == repr(battery)
