import math

import pytest

import incmac.quadrature
from incmac import core
from incmac.core import FLAG_UNDERFLOW, MethodTag, NonConvergence, ShuParams, Tolerances, shared_work
from incmac.evaluator import evaluate
from incmac.gamma import macdonald_k
from incmac.quadrature import integrate_adaptive, shu_oracle, shu_oracle_cosh

from frozen import (
    ORACLE_KERNEL,
    QUADRATURE_KERNEL,
    S0_3_3,
    S_EXPONENT_ROUNDING,
    S_FORM2_CLAMP,
    S_SMALL_Z_NEGATIVE_ORDER,
)

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)
# a target no sum of panel errors reaches: only the exits that give up remain
UNREACHABLE = Tolerances(abs_tol=5e-324, rel_tol=1e-300, max_depth=120)

_W = 1e-4
# name -> (integrand, a, b, tol, points) behind frozen.QUADRATURE_KERNEL
KERNEL_INTEGRANDS = {
    "bump_breakpoints": (lambda x: math.exp(-(((x - 1e-3) / _W) ** 2)), 0.0, 1.0, core.TIGHT, (2e-4, 1e-3, 1.8e-3)),
    "oscillating_error_floor": (lambda x: math.cos(30.0 * x) * math.exp(-x), 0.0, 2.0, core.TIGHT, ()),
    "exp_tail": (lambda x: math.exp(-x), 0.0, math.inf, core.TIGHT, ()),
    "gamma_tail_breakpoints": (lambda x: x * x * math.exp(-x), 1.0, math.inf, core.TIGHT, (2.0, 5.0, 25.0)),
    "depth_capped": (
        lambda x: math.exp(-x) / math.sqrt(x + 1e-12),
        0.0,
        1.0,
        Tolerances(abs_tol=5e-324, rel_tol=1e-14, max_depth=6),
        (),
    ),
}


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestIntegrateAdaptive:
    def test_constant(self):
        r = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-14)

    def test_exponential_tail(self):
        r = integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf, TIGHT)
        assert r.converged
        assert r.value == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_moment(self):
        r = integrate_adaptive(lambda x: x * math.exp(-x * x), 0.0, math.inf, TIGHT)
        assert r.value == pytest.approx(0.5, rel=1e-12)

    def test_breakpoints_capture_narrow_peak(self):
        # sharp bump at x = 1e-3 inside (0, 1); breakpoints bracketing the
        # feature keep it visible to the panel nodes, as the oracle seeds do
        w = 1e-4
        f = lambda x: math.exp(-(((x - 1e-3) / w) ** 2))
        r = integrate_adaptive(f, 0.0, 1.0, TIGHT, points=(2e-4, 1e-3, 1.8e-3))
        assert r.converged
        assert r.value == pytest.approx(w * math.sqrt(math.pi), rel=1e-10)

    def test_depth_cap_reports_not_converged(self):
        tol = Tolerances(abs_tol=1e-300, rel_tol=1e-13, max_depth=1)
        r = integrate_adaptive(lambda x: math.exp(-x) / math.sqrt(x + 1e-12), 0.0, 1.0, tol)
        assert not r.converged
        assert r.error_estimate > 0.0

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NonConvergence):
            integrate_adaptive(lambda x: math.nan, 0.0, 1.0, TIGHT)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, TIGHT)
        with pytest.raises(ValueError, match="lower bound must be finite"):
            integrate_adaptive(lambda x: x, -math.inf, 0.0, TIGHT)

    def test_error_estimate_covers_true_error(self):
        r = integrate_adaptive(lambda x: math.sin(x), 0.0, math.pi, Tolerances(rel_tol=1e-6))
        assert abs(r.value - 2.0) <= max(3.0 * r.error_estimate, 1e-14)

    def test_bisects_first_panel_with_largest_error(self, monkeypatch):
        # a stand-in panel whose error is its width, NaN left of 0.25: equal
        # errors tie, the first in panel order is bisected and the NaN never
        calls = []

        def panel(f, a, b):
            calls.append((a, b))
            return b - a, math.nan if a < 0.25 else b - a

        monkeypatch.setattr(incmac.quadrature, "_gk15", panel)
        tol = Tolerances(abs_tol=5e-324, rel_tol=1e-300, max_depth=4)
        r = integrate_adaptive(lambda x: 0.0, 0.0, 1.0, tol, points=(0.25, 0.5, 0.75))
        assert (r.value, r.subdivisions, r.converged) == (1.0, 4, False)
        assert calls[4:] == [
            (0.25, 0.375), (0.375, 0.5),
            (0.5, 0.625), (0.625, 0.75),
            (0.75, 0.875), (0.875, 1.0),
            (0.25, 0.3125), (0.3125, 0.375),
        ]


class TestKernelBitExact:
    @pytest.mark.parametrize("name", list(KERNEL_INTEGRANDS))
    def test_integrate_adaptive_frozen(self, name):
        f, a, b, tol, pts = KERNEL_INTEGRANDS[name]
        r = integrate_adaptive(f, a, b, tol, points=pts)
        assert (r.value.hex(), r.error_estimate.hex(), r.subdivisions, r.converged) == QUADRATURE_KERNEL[name]

    @pytest.mark.parametrize("point,form", list(ORACLE_KERNEL))
    def test_shu_oracle_frozen(self, point, form):
        ev = shu_oracle(ShuParams(*point), core.TIGHT, form)
        assert (ev.value.hex(), ev.error_estimate.hex(), ev.work) == ORACLE_KERNEL[point, form]


class TestResolutionExits:
    def test_no_panel_can_be_refined(self):
        # (1, 1 + 2 ulp) bisects once; neither half has a float inside it
        ulp = math.ulp(1.0)
        r = integrate_adaptive(lambda x: 1.0, 1.0, 1.0 + 2.0 * ulp, UNREACHABLE)
        assert r == incmac.quadrature.QuadratureResult(2.0 * ulp, 4.930380657631324e-30, 1, False)

    def test_unrefinable_panel_then_depth_cap(self):
        # the panel holding the jump reaches floating-point resolution and is
        # set aside; the loop then spends its depth on the others
        r = integrate_adaptive(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0, UNREACHABLE)
        assert r == incmac.quadrature.QuadratureResult(0.7000000000000001, 7.87197101183674e-15, 120, False)


def _gk15_loop(f, a, b):
    """QUADPACK's dqk15 as a loop over the node pairs: the reference the
    straight-line panel must reproduce bit for bit."""
    xgk, wgk, wg = incmac.quadrature._XGK, incmac.quadrature._WGK, incmac.quadrature._WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = fc * wgk[7]
    resabs = abs(resk)
    fv = []
    for j in range(7):
        dx = h * xgk[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        fv.append((f1, f2))
        resk += wgk[j] * (f1 + f2)
        resabs += wgk[j] * (abs(f1) + abs(f2))
    resg = fc * wg[3]
    for i, j in enumerate((1, 3, 5)):
        resg += wg[i] * (fv[j][0] + fv[j][1])
    reskh = 0.5 * resk
    resasc = wgk[7] * abs(fc - reskh)
    for j in range(7):
        resasc += wgk[j] * (abs(fv[j][0] - reskh) + abs(fv[j][1] - reskh))
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > core.TINY / (50.0 * core.EPS):
        err = max(core.EPS * 50.0 * resabs, err)
    return resk * h, err


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 1.0 / (1.0 + 25.0 * x * x),
        lambda x: math.sqrt(abs(x)),
        lambda x: math.sin(10.0 * x),
        lambda x: math.exp(-x),
        lambda x: math.exp(-(((x - 0.37) / 0.05) ** 2)),
        lambda x: math.log(abs(x) + 1e-3),
        lambda x: 1.0 if x < 0.3 else 0.0,
        lambda x: 1e-320 * x,
    ],
)
@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 0.01), (1e-3, 7.0), (0.29, 0.31), (-3.0, 250.0)])
def test_panel_matches_loop_reference(f, a, b):
    assert incmac.quadrature._gk15(f, a, b) == _gk15_loop(f, a, b)


@pytest.mark.parametrize("form", [2, 4, 5])
def test_panel_counter_sees_every_panel(form, monkeypatch):
    # perfbench counts panels by wrapping quadrature._gk15 by name; a
    # kernel that bound _gk15 early would hide its panels from the count
    panels = []
    real = incmac.quadrature._gk15

    def counting(f, a, b):
        panels.append((a, b))
        return real(f, a, b)

    monkeypatch.setattr(incmac.quadrature, "_gk15", counting)
    nu, z, t = 0.3, 2.0, 1.5
    _, lo, hi, pts = incmac.quadrature._FORMS[form][1](nu, z, t)
    # form 5 runs on (y0, inf), whose breakpoints integrate_adaptive maps
    if hi == math.inf:
        initial = 1 + len(incmac.quadrature._tail_seeds(lo, pts))
    else:
        initial = 1 + len({p for p in pts if lo < p < hi})
    ev = shu_oracle(ShuParams(nu, z, t), core.TIGHT, form)
    assert ev.work > 0
    assert len(panels) == initial + 2 * ev.work


class TestShuOracle:
    def test_large_endpoint_approaches_macdonald(self):
        p = ShuParams(0.0, 3.0, 1e4)
        assert _rel(shu_oracle(p, TIGHT).value, macdonald_k(0, 3)) < 1e-10

    def test_cosh_form_large_endpoint(self):
        p = ShuParams(1.0, 3.0, 1e4)
        assert _rel(shu_oracle_cosh(p, TIGHT).value, macdonald_k(1, 3)) < 1e-10

    def test_underflow_to_zero_flag(self):
        ev = shu_oracle(ShuParams(1.0, 3.0, 1e-300), TIGHT)
        assert ev.value == 0.0
        assert FLAG_UNDERFLOW in ev.flags

    def test_frozen_midpoint_both_forms(self):
        p = ShuParams(0.0, 3.0, 3.0)
        v5 = shu_oracle(p, TIGHT)
        v2 = shu_oracle(p, TIGHT, form=2)
        assert v5.method.value == "Oracle5"
        assert v2.method.value == "Oracle2"
        assert _rel(v5.value, v2.value) < 1e-11
        assert _rel(v5.value, S0_3_3) < 1e-11
        assert _rel(v2.value, S0_3_3) < 1e-11

    @pytest.mark.parametrize("form", [2, 4, 5])
    def test_form_two_keeps_its_clamped_interval(self, form):
        # c/760 >= t here, yet S is ~1e-272: form 2 used to return a
        # flagged 0.0 for an empty interval
        ((point, ref),) = S_FORM2_CLAMP.items()
        ev = shu_oracle(ShuParams(*point), TIGHT, form)
        assert abs(ev.value - ref) <= ev.error_estimate + 1e-12 * ref

    @pytest.mark.parametrize("form", [2, 4, 5])
    @pytest.mark.parametrize("point", list(S_SMALL_Z_NEGATIVE_ORDER))
    def test_small_argument_negative_order(self, point, form):
        ev = shu_oracle(ShuParams(*point), TIGHT, form)
        assert abs(ev.value - S_SMALL_Z_NEGATIVE_ORDER[point]) <= ev.error_estimate

    @pytest.mark.parametrize("form", [2, 4, 5])
    @pytest.mark.parametrize("point", list(S_EXPONENT_ROUNDING))
    def test_exponent_rounding_within_estimate(self, point, form):
        # the integrand's exponent is near -600 here, so its rounding alone
        # moves the integral by ~1e-13 relative; the estimate must count it
        ev = shu_oracle(ShuParams(*point), core.TIGHT, form)
        assert abs(ev.value - S_EXPONENT_ROUNDING[point]) <= ev.error_estimate

    @pytest.mark.parametrize("form", [2, 4, 5])
    @pytest.mark.parametrize("nu", [-1.0, 0.5, 2.0])
    def test_underflowed_argument_square_raises(self, nu, form):
        # 0.25 z^2 == 0.0 here: the value bound would take log(0) and form 2
        # divide by its empty clamp
        with pytest.raises(NonConvergence, match=r"z\^2/4 underflows"):
            shu_oracle(ShuParams(nu, 1e-170, 1.0), core.TIGHT, form)

    @pytest.mark.parametrize("nu", [-1.0, 0.5, 1.0, 2.0])
    def test_overflowed_x0_underflows_to_zero(self, nu):
        # z^2/4t overflows to inf at a subnormal endpoint, where the value
        # bound's (nu - 1) log(y) - y would be NaN at order >= 1
        p = ShuParams(nu, 3.0, 1e-310)
        for form in (2, 4, 5):
            ev = shu_oracle(p, core.TIGHT, form)
            assert (ev.value, ev.error_estimate, ev.flags) == (0.0, 0.0, (FLAG_UNDERFLOW,))
        ev, decision = evaluate(p, core.TIGHT)
        assert (ev.value, ev.error_estimate, ev.flags) == (0.0, 0.0, (FLAG_UNDERFLOW,))
        assert decision.chosen is MethodTag.ORACLE5

    @pytest.mark.parametrize("nu", [-1.0, 0.5, 2.0])
    def test_underflowed_endpoint_clamp_raises(self, nu):
        # 0.25 z^2 is subnormal and its 1/760 is 0.0: form 2 has no left
        # end and must not divide by it
        with pytest.raises(NonConvergence, match=r"z\^2/4/760 underflows"):
            shu_oracle(ShuParams(nu, 3e-161, 1.0), core.TIGHT, 2)

    def test_integrand_past_double_range_raises(self):
        # z^2/4t ~ 2e-322: form 5's integrand peaks near e^1110 there, past
        # the double range, though S = 2.1e160 is not; a typed error, not a
        # bare OverflowError
        with pytest.raises(NonConvergence, match="form-5 integrand exceeds the double range"):
            shu_oracle(ShuParams(-1.0, 3e-161, 1.0), core.TIGHT, 5)

    def test_integrand_past_double_range_where_y_peak_rounds_to_zero(self):
        # z^2/4t underflows to 0 and (nu - 1) + hypot(nu - 1, z) rounds to 0
        # at order < 1: a typed error, not log(0) in the value bound
        with pytest.raises(NonConvergence, match="form-5 integrand exceeds the double range"):
            shu_oracle(ShuParams(-2.5, 1e-111, 1e103), core.TIGHT, 5)

    @pytest.mark.parametrize("form", [2, 4, 5])
    def test_underflowing_y_peak_and_endpoint_raise_typed(self, form):
        # at order -1e17 the y-form peak and z^2/4t both round to 0, where
        # y^(nu-1) has no bound: a typed error, not log(0) in the peak
        with pytest.raises(NonConvergence, match="y-form peak is not finite"):
            shu_oracle(ShuParams(-1e17, 3e-154, 1e300), core.TIGHT, form)

    @pytest.mark.parametrize("order", [0.5, -1.5])
    def test_cosh_form_where_z_over_2t_underflows(self, order):
        # z/2t underflows to 0, so the lower end ln(z/2t) comes from the
        # logs of z and t; at t = 1e300, S is K_nu(z)
        ev = shu_oracle(ShuParams(order, 1e-160, 1e300), core.TIGHT, 4)
        assert abs(ev.value - macdonald_k(order, 1e-160)) <= ev.error_estimate

    @pytest.mark.parametrize("form", [2, 4])
    def test_y_peak_kept_positive_where_its_difference_rounds_to_zero(self, form):
        # the same point: the y-form peak is the rationalised root, and at
        # t = 1e103, S is K_nu(z)
        ev = shu_oracle(ShuParams(-2.5, 1e-111, 1e103), core.TIGHT, form)
        assert abs(ev.value - macdonald_k(-2.5, 1e-111)) <= ev.error_estimate

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            shu_oracle(ShuParams(0.0, 3.0, 3.0), TIGHT, form=3)

    def test_form_four_is_the_cosh_form(self):
        p = ShuParams(0.0, 3.0, 3.0)
        v4 = shu_oracle(p, TIGHT, form=4)
        assert v4 == shu_oracle_cosh(p, TIGHT)
        assert v4.method.value == "Oracle4"

    def test_cosh_form_integrated_per_call(self, monkeypatch):
        # form 4 under either name, integrated afresh even inside a
        # shared_work block, where no caller asks twice for one value
        counts = []
        real = incmac.quadrature._oracle

        def counted(p, tol, form):
            counts.append((p, tol, form))
            return real(p, tol, form)

        monkeypatch.setattr(incmac.quadrature, "_oracle", counted)
        p = ShuParams(0.0, 3.0, 3.0)
        with shared_work():
            assert shu_oracle_cosh(p, TIGHT) == shu_oracle_cosh(p, TIGHT)
            assert shu_oracle(p, TIGHT, form=4) == shu_oracle_cosh(p, TIGHT)
        assert counts == [(p, TIGHT, 4)] * 4

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
    def test_three_forms_at_one_point(self, nu):
        p = ShuParams(nu, 1.0, 0.7)
        v5 = shu_oracle(p, TIGHT).value
        v2 = shu_oracle(p, TIGHT, form=2).value
        v4 = shu_oracle_cosh(p, TIGHT).value
        assert _rel(v5, v2) < 1e-9
        assert _rel(v5, v4) < 1e-9

    @pytest.mark.parametrize(
        "nu,z,t1,t2",
        [(1.0, 3.0, 1.0, 3.0), (-0.5, 1.0, 0.2, 1.0), (2.0, 8.0, 3.0, 10.0), (0.0, 0.5, 0.2, 10.0)],
    )
    def test_additivity_in_endpoint(self, nu, z, t1, t2):
        # S(t2) - S(t1) equals the defining integrand integrated on (t1, t2)
        s_diff = (
            shu_oracle(ShuParams(nu, z, t2), TIGHT).value
            - shu_oracle(ShuParams(nu, z, t1), TIGHT).value
        )
        c = 0.25 * z * z

        def f(tau):
            e = -tau - c / tau - (nu + 1.0) * math.log(tau)
            return math.exp(e) if e > -745.0 else 0.0

        piece = 0.5 * (0.5 * z) ** nu * integrate_adaptive(f, t1, t2, TIGHT).value
        assert _rel(s_diff, piece) < 1e-10

    def test_monotone_in_endpoint_and_bounded_by_k(self):
        for nu in (0.0, 2.0):
            kval = macdonald_k(nu, 3.0)
            previous = 0.0
            for t in (0.2, 1.0, 3.0, 10.0):
                v = shu_oracle(ShuParams(nu, 3.0, t), TIGHT).value
                assert previous < v < kval
                previous = v

    def test_nonconvergence_carries_partial(self):
        tol = Tolerances(abs_tol=1e-300, rel_tol=1e-14, max_depth=1)
        with pytest.raises(NonConvergence) as exc:
            shu_oracle(ShuParams(0.0, 3.0, 3.0), tol)
        assert exc.value.partial == pytest.approx(S0_3_3, rel=1e-3)

    def test_error_estimate_honest_across_grid(self):
        # |loose - tight| <= 3x the loose estimate everywhere on the
        # verification grid
        loose = Tolerances(abs_tol=1e-300, rel_tol=1e-8)
        for nu in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            for z in (0.5, 1.0, 3.0, 8.0):
                for t in (0.2, 1.0, 3.0, 10.0):
                    e1 = shu_oracle(ShuParams(nu, z, t), loose)
                    e2 = shu_oracle(ShuParams(nu, z, t), TIGHT)
                    assert abs(e1.value - e2.value) <= max(
                        3.0 * e1.error_estimate, 1e-15 * abs(e2.value)
                    ), (nu, z, t)


def test_half_order_closed_form_against_oracle():
    # the erfc-based closed form is only trusted because of this comparison
    from incmac.evaluator import closed_form_half

    from frozen import S_HALF_GRID

    for (nu, z, t), frozen in S_HALF_GRID.items():
        oracle = shu_oracle(ShuParams(nu, z, t), TIGHT).value
        closed = closed_form_half(ShuParams(nu, z, t))
        assert _rel(oracle, frozen) < 1e-10
        assert _rel(closed, frozen) < 1e-10
