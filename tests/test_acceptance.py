"""End-to-end acceptance checks.

Each test runs one numbered criterion at its pinned tolerance and records
one PASS/FAIL line, printed in the pytest terminal summary.  The two
leading-term asymptotic criteria (6 and 8) centre their windows on the
first correction of a one-step endpoint Laplace expansion (integration by
parts once), computed here in closed form, never from the program:

- criterion 6: ``S/leading - 1 ~ c(z) = (nu - coth zeta)/(z sinh zeta)``,
  ``zeta = ln(z/2t)``.  ``c(z)`` is O(1/z^2) at every order (it tends to
  ``4t(nu - 1)/z^2``), so the deviation quarters, not halves, when the
  argument doubles;
- criterion 8: ``integral ~ approximant * (1 - cosh t/(z sinh^2 t))``, so the
  approximant sits ~7.5% high at argument 15, not within 5% of the integral.
"""

import math

import pytest

from incmac.cli import main as cli_main
from incmac.core import DomainError, ShuParams, Tolerances
from incmac.evaluator import closed_form_half, evaluate
from incmac.expansions import (
    _alternating_small_t,
    asympt_large_t,
    leading_imb_large_z,
    leading_large_z,
    series_small_t,
    series_small_z,
)
from incmac.gamma import macdonald_k, upper_incomplete_gamma
from incmac.quadrature import integrate_adaptive, shu_oracle, shu_oracle_cosh

from frozen import E1_1, GAMMA_M15_2, K0_3, S0_3_3, S_HALF_GRID

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _oracle(nu, z, t):
    return shu_oracle(ShuParams(nu, z, t), TIGHT).value


def _worst(battery, name):
    return max(r.relative for r in battery if r.identity == name)


def _records(battery, name):
    return [r for r in battery if r.identity == name]


def _report(acceptance_report, number, ok, detail):
    acceptance_report.append(f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {detail}")
    return ok


def test_criterion_1_three_form_consistency(battery, acceptance_report):
    worst = _worst(battery, "ThreeForm")
    ok = worst <= 1e-9 and len(_records(battery, "ThreeForm")) == 112
    _report(acceptance_report, 1, ok,
            f"three integral forms agree pairwise on the 7x4x4 grid; worst {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_2_identity_battery(battery, acceptance_report):
    limits = {
        "Rec1": 1e-6, "Rec2": 1e-6, "dSdz": 1e-6,
        "Diff1_k1": 1e-6, "Diff2_k1": 1e-6,
        "PDE_exact": 1e-7, "PDE_fd": 1e-5,
        "Diff1_k2": 1e-4, "Diff2_k2": 1e-4,
    }
    worsts = {name: _worst(battery, name) for name in limits}
    ok = all(worsts[name] <= lim for name, lim in limits.items())
    headline = max(worsts[n] for n in ("Rec1", "Rec2", "dSdz", "Diff1_k1", "Diff2_k1"))
    _report(acceptance_report, 2, ok,
            f"recurrence/differential/PDE residual battery on the 5x3x3 grid; "
            f"worst first-derivative {headline:.2e} (tol 1e-6), "
            f"PDE-exact {worsts['PDE_exact']:.2e} (tol 1e-7), "
            f"worst k=2 {max(worsts['Diff1_k2'], worsts['Diff2_k2']):.2e} (tol 1e-4)")
    for name, lim in limits.items():
        assert worsts[name] <= lim, f"{name}: {worsts[name]:.3e} > {lim}"


def test_criterion_3_macdonald_limit(battery, acceptance_report):
    worst_limit = _worst(battery, "LargeTLimit")
    gap_records = _records(battery, "LargeTGapBound")
    ratios = [r.residual for r in gap_records]
    ok = worst_limit <= 1e-12 and all(0.5 <= r <= 2.0 for r in ratios)
    _report(acceptance_report, 3, ok,
            f"endpoint 40 pins the Macdonald value to {worst_limit:.2e} (tol 1e-12); "
            f"leading correction brackets the tail gap within factor 2 "
            f"(gap/corr in [{min(ratios):.2f}, {max(ratios):.2f}])")
    assert ok


def test_criterion_4_small_endpoint_ratio_law(battery, acceptance_report):
    factors = [r.residual for r in _records(battery, "SmallTRatio")]
    order_ratio = _records(battery, "SmallTOrder")[0].residual
    ok = all(1.5 <= f <= 2.5 for f in factors) and order_ratio < 1.0
    _report(acceptance_report, 4, ok,
            f"small-endpoint deviation shrinks by {factors[0]:.2f} then {factors[1]:.2f} "
            f"per halving (window [1.5, 2.5]); order-3/order-1 deviation ratio "
            f"{order_ratio:.3f} < 1")
    assert ok


def test_criterion_5_small_argument_ratio_law(battery, acceptance_report):
    trend = _records(battery, "SmallZTrend")[0].residual
    order_ratio = _records(battery, "SmallZOrder")[0].residual
    ok = trend < 1.0 and order_ratio < 1.0
    _report(acceptance_report, 5, ok,
            f"order-0 log-law deviation ratio (1e-4 vs 1e-2) {trend:.3f} < 1; "
            f"order-1/order-3 absolute-gap ratio {order_ratio:.2e} < 1")
    assert ok


def _large_z_correction(nu, z, t):
    """First relative correction of the leading large-argument approximant."""
    zeta = math.log(z / (2.0 * t))
    return (nu - 1.0 / math.tanh(zeta)) / (z * math.sinh(zeta))


def test_criterion_6_large_argument_ratio_law(acceptance_report):
    with pytest.raises(DomainError):
        leading_large_z(ShuParams(0.0, 1.9, 1.0))
    dev12 = abs(_oracle(0, 12, 1) / leading_large_z(ShuParams(0.0, 12.0, 1.0)) - 1.0)
    dev24 = abs(_oracle(0, 24, 1) / leading_large_z(ShuParams(0.0, 24.0, 1.0)) - 1.0)
    factor = dev12 / dev24
    centre = _large_z_correction(0.0, 12.0, 1.0) / _large_z_correction(0.0, 24.0, 1.0)
    lo, hi = centre - 0.6, centre + 0.6
    ok = lo <= factor <= hi
    _report(acceptance_report, 6, ok,
            f"large-argument deviation factor z=12 -> z=24 measured {factor:.2f}, "
            f"first-correction centre {centre:.2f}, window [{lo:.2f}, {hi:.2f}] "
            f"(quadratic falloff); pole guard raises below z = 2t")
    assert ok, f"deviation factor {factor:.3f} outside [{lo:.3f}, {hi:.3f}]"


def test_criterion_7_related_function_round_trips(battery, acceptance_report):
    defs = {name: _worst(battery, name) for name in ("GenGammaDef", "LeakyDef", "ImbDef")}
    invs = {name: _worst(battery, name) for name in ("GenGammaInv", "LeakyInv")}
    ok = all(v <= 1e-8 for v in defs.values()) and all(v <= 1e-9 for v in invs.values())
    _report(acceptance_report, 7, ok,
            f"related-function conversions match their defining integrals "
            f"(worst {max(defs.values()):.2e}, tol 1e-8) and inverse relations "
            f"reproduce S (worst {max(invs.values()):.2e}, tol 1e-9)")
    assert ok


def test_criterion_8_truncated_cosh_asymptotic(acceptance_report):
    def ratio(z):
        def f(u):
            e = -z * math.cosh(u)
            return 0.5 * math.exp(e) if e > -745.0 else 0.0

        direct = integrate_adaptive(f, 1.0, 9.0, TIGHT).value
        return leading_imb_large_z(0.0, z, 1.0) / direct

    r15, r30 = ratio(15.0), ratio(30.0)
    moves_toward_one = abs(r30 - 1.0) < abs(r15 - 1.0)
    centre = 1.0 + math.cosh(1.0) / (15.0 * math.sinh(1.0) ** 2)
    lo, hi = centre - 0.05, centre + 0.05
    ok = lo <= r15 <= hi and moves_toward_one
    _report(acceptance_report, 8, ok,
            f"truncated-cosh approximant ratio measured {r15:.4f} at z=15 "
            f"(first-correction centre {centre:.4f}, window [{lo:.4f}, {hi:.4f}]) "
            f"and {r30:.4f} at z=30 "
            f"({'moves' if moves_toward_one else 'does not move'} toward 1)")
    assert moves_toward_one
    assert lo <= r15 <= hi, f"ratio {r15:.4f} outside [{lo:.4f}, {hi:.4f}]"


def test_criterion_9_figure_reproduction(tmp_path, acceptance_report):
    paths = {}
    for fig in (1, 2, 3, 4, 5, 6):
        out = tmp_path / f"fig{fig}.csv"
        assert cli_main(["figure", "--id", str(fig), "--out", str(out), "--points", "20"]) == 0
        paths[fig] = out
    rerun = tmp_path / "fig1_again.csv"
    assert cli_main(["figure", "--id", "1", "--out", str(rerun), "--points", "20"]) == 0

    problems = []

    def rows_of(fig):
        lines = paths[fig].read_text().splitlines()
        return [line.split(",") for line in lines[1:]]

    # fig 1: strictly increasing columns bounded by the Macdonald value
    for col, order in ((1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)):
        vals = [float(r[col]) for r in rows_of(1)]
        if not all(a < b for a, b in zip(vals, vals[1:])):
            problems.append(f"fig1 column {col} not increasing")
        if not all(v < macdonald_k(order, 3.0) for v in vals):
            problems.append(f"fig1 column {col} exceeds its bound")

    # fig 2: eventually decreasing in the argument
    for col in (1, 2, 3, 4):
        tail = [float(r[col]) for r in rows_of(2)[-6:]]
        if not all(a > b for a, b in zip(tail, tail[1:])):
            problems.append(f"fig2 column {col} tail not decreasing")

    # fig 3 at its smallest endpoint: better agreement at higher order
    first = rows_of(3)[0]
    dev_n1 = abs(float(first[3]) / float(first[4]) - 1.0)
    dev_n3 = abs(float(first[7]) / float(first[8]) - 1.0)
    if not dev_n3 < dev_n1:
        problems.append("fig3 overlay ordering violated")

    # fig 4 order-0 overlay: deviation shrinks toward small argument, and
    # the absolute order-1 gap stays below the order-3 gap
    r4 = rows_of(4)
    dev_first = abs(float(r4[0][1]) / float(r4[0][2]) - 1.0)
    dev_mid = abs(float(r4[8][1]) / float(r4[8][2]) - 1.0)
    if not dev_first < dev_mid:
        problems.append("fig4 order-0 deviation not improving toward small argument")
    gap1 = abs(float(r4[0][3]) - float(r4[0][4]))
    gap3 = abs(float(r4[0][7]) - float(r4[0][8]))
    if not gap1 < gap3:
        problems.append("fig4 absolute-gap ordering violated")

    # fig 5: gap to the constant overlay decreases and is ~0 by endpoint 40
    for col, order in ((1, 0.0), (3, 1.0)):
        kval = macdonald_k(order, 3.0)
        gaps = [(float(r[0]), abs(float(r[col]) - kval)) for r in rows_of(5)]
        resolvable = [g for t, g in gaps if t <= 25.0]
        if not all(a > b for a, b in zip(resolvable, resolvable[1:])):
            problems.append(f"fig5 column {col} gap not decreasing")
        if not all(g <= 1e-12 * kval for t, g in gaps if t >= 40.0):
            problems.append(f"fig5 column {col} gap not closed by endpoint 40")

    # fig 6: empty overlay cells at and below the pole, improving agreement
    # beyond it
    devs = []
    for r in rows_of(6):
        x = float(r[0])
        if x <= 6.0:
            if r[2] != "":
                problems.append("fig6 emitted an approximant inside the pole region")
        elif x >= 12.0:
            devs.append(abs(float(r[1]) / float(r[2]) - 1.0))
    if not all(a > b for a, b in zip(devs, devs[1:])):
        problems.append("fig6 overlay deviation not improving with the argument")

    if paths[1].read_bytes() != rerun.read_bytes():
        problems.append("fig1 reruns are not byte-identical")

    ok = not problems
    _report(acceptance_report, 9, ok,
            "figure CSVs: monotone/bounded sweep columns, overlay orderings, "
            "empty pole-region cells, byte-identical reruns"
            + ("" if ok else f" -- {problems}"))
    assert ok, problems


def test_criterion_10_frozen_constants_and_paths(acceptance_report):
    # re-derive each frozen constant with the tight-tolerance oracle
    rederived = {
        "S0_3_3": _oracle(0, 3, 3),
        "K0_3": macdonald_k(0.0, 3.0),
        "E1_1": upper_incomplete_gamma(0.0, 1.0),
        "GAMMA_M15_2": integrate_adaptive(
            lambda u: u**-2.5 * math.exp(-u), 2.0, math.inf, TIGHT, points=(3.0, 7.0, 27.0)
        ).value,
    }
    frozen = {"S0_3_3": S0_3_3, "K0_3": K0_3, "E1_1": E1_1, "GAMMA_M15_2": GAMMA_M15_2}
    drift = {k: _rel(rederived[k], frozen[k]) for k in frozen}

    # every applicable evaluator path must reproduce the midpoint constant
    p = ShuParams(0.0, 3.0, 3.0)
    paths = {
        "oracle_y": shu_oracle(p, TIGHT).value,
        "oracle_endpoint": shu_oracle(p, TIGHT, form=2).value,
        "oracle_cosh": shu_oracle_cosh(p, TIGHT).value,
        "series_small_t": series_small_t(p, TIGHT).value,
        "alternating_small_t": _alternating_small_t(p, TIGHT).value,
        "series_small_z": series_small_z(p, TIGHT).value,
        "front_end": evaluate(p, TIGHT)[0].value,
    }
    path_drift = {k: _rel(v, S0_3_3) for k, v in paths.items()}

    half_drift = {}
    for (nu, z, t), want in S_HALF_GRID.items():
        pt = ShuParams(nu, z, t)
        half_drift[(nu, z, t)] = max(
            _rel(shu_oracle(pt, TIGHT).value, want),
            _rel(closed_form_half(pt), want),
            _rel(evaluate(pt, TIGHT)[0].value, want),
        )

    # the large-endpoint path reproduces the Macdonald constant at large endpoint
    k_paths = _rel(asympt_large_t(ShuParams(0.0, 3.0, 1e3), TIGHT).value, K0_3)

    ok = (
        max(drift.values()) < 1e-11
        and max(path_drift.values()) < 1e-8
        and max(half_drift.values()) < 1e-8
        and k_paths < 1e-8
    )
    _report(acceptance_report, 10, ok,
            f"frozen constants re-derived (worst drift {max(drift.values()):.2e}) and "
            f"reproduced by every path (worst {max(max(path_drift.values()), max(half_drift.values()), k_paths):.2e}, tol 1e-8)")
    assert ok, (drift, path_drift, half_drift, k_paths)
