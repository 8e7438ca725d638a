import ast
import importlib
import inspect
import math
import random
from collections import Counter

import pytest

import incmac.expansions
from incmac.core import (
    DEFAULT_TOLERANCES,
    DomainError,
    MethodTag,
    NearPoleWarning,
    NonConvergence,
    ShuParams,
    TINY,
    Tolerances,
)
from incmac.evaluator import evaluate, evaluate_grid
from incmac.expansions import (
    _alternating_small_t,
    _log_tail_bound,
    _tricomi_bracket,
    _tricomi_small_t,
    asympt_large_t,
    leading_imb_large_z,
    leading_large_z,
    leading_small_t,
    leading_small_z,
    series_small_t,
    series_small_z,
)
from incmac.gamma import _upper_gamma_orders, macdonald_k, upper_incomplete_gamma
from incmac.quadrature import integrate_adaptive, shu_oracle, shu_oracle_cosh
from incmac.verification import _tail_gap

from frozen import (
    S0_3_3,
    SERIES_KERNEL,
    S_ABOVE_X0_PLUS_1,
    S_LARGE_X0,
    S_EXPONENT_ROUNDING,
    S_HIGH_PRECISION,
    S_LARGE_T_CANCELLING,
    S_SERIES_SMALL_T,
    S_SERIES_SMALL_Z_K,
    S_SMALL_Z_SPLIT,
    S_SPLIT_SEEDED,
    S_SPLIT_TAIL,
    S_TRICOMI,
)

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _oracle(nu, z, t):
    return shu_oracle(ShuParams(nu, z, t), TIGHT).value


class TestSeriesSmallT:
    def test_home_regime_against_oracle(self):
        ev = _alternating_small_t(ShuParams(1.0, 3.0, 0.2), TIGHT)
        assert _rel(ev.value, _oracle(1, 3, 0.2)) < 1e-9

    def test_frozen_midpoint(self):
        ev = _alternating_small_t(ShuParams(0.0, 3.0, 3.0), TIGHT)
        assert _rel(ev.value, S0_3_3) < 1e-8

    def test_tail_bound_is_honest(self):
        ev = _alternating_small_t(ShuParams(2.0, 3.0, 0.5), TIGHT)
        assert abs(ev.value - _oracle(2, 3, 0.5)) <= 3.0 * ev.error_estimate + 1e-15 * abs(ev.value)

    def test_reduces_to_leading_term_at_tiny_endpoint(self):
        # at order 1 the k = 0 term is exactly the leading small-t form;
        # the full sum differs from it by O(t)
        p = ShuParams(1.0, 3.0, 0.02)
        ev = _alternating_small_t(p, TIGHT)
        k0_term = 0.25 * (2.0 / 3.0) * math.exp(-0.25 * 9.0 / 0.02) * 2.0  # (1/2)(2/z) e^-x0
        assert _rel(k0_term, leading_small_t(p)) < 1e-14
        assert abs(ev.value / leading_small_t(p) - 1.0) < 0.1

    def test_work_reported(self):
        ev = _alternating_small_t(ShuParams(1.0, 3.0, 0.2), TIGHT)
        assert 0 < ev.work <= 200

    def test_underflowed_gamma_factors_bound_lost_terms(self):
        # every Gamma(nu - k, x0) of this sum underflows to 0.0 (x0 = 591.5),
        # yet S = 3.2e-297 is a normal double: no term may be lost, and the
        # value must land within its estimate of the reference, which must
        # meet the relative target
        point = (-25.517296979498347, 45.25141063150784, 0.8655368185527998)
        nu, z, t = point
        x0 = 0.25 * z * z / t
        ev = _alternating_small_t(ShuParams(*point), Tolerances(abs_tol=5e-324, rel_tol=1e-12))
        assert all(upper_incomplete_gamma(nu - k, x0) == 0.0 for k in range(ev.work + 1))
        ref = S_EXPONENT_ROUNDING[point]
        assert abs(ev.value - ref) <= ev.error_estimate <= 1e-12 * ref

    def test_estimate_covers_error_against_high_precision(self):
        # the exponent of each per-order gamma, up to ~700 here, once
        # rounded uncounted; now the prefactor's is counted once
        misses = []
        for point, ref in S_SERIES_SMALL_T.items():
            ev = _alternating_small_t(ShuParams(*point), TIGHT)
            if not abs(ev.value - ref) <= ev.error_estimate:
                misses.append((point, ev.value, ev.error_estimate))
        assert misses == []

    def test_first_term_bounds_the_sum(self):
        # e^(-z^2/4y) <= 1 under the integral over y >= x0 = z^2/4t leaves
        # S <= (1/2)(z/2)^-nu Gamma(nu, x0), the series' first term, the
        # ceiling its early exit in evaluate measures the lost accuracy by
        rng = random.Random(18)
        checked = 0
        while checked < 60:
            nu = rng.uniform(-30.0, 30.0)
            z = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
            t = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
            x0 = 0.25 * z * z / t
            if not 2.0 <= x0 <= 400.0:
                continue
            gamma_part = upper_incomplete_gamma(nu, x0)
            ref = shu_oracle(ShuParams(nu, z, t), TIGHT)
            if not (gamma_part > 1e-290 and ref.value > 1e-290):
                continue
            cap = math.exp(-nu * math.log(0.5 * z) - math.log(2.0) + math.log(gamma_part))
            assert ref.value - ref.error_estimate <= cap * (1.0 + 1e-12), (nu, z, t)
            checked += 1


class TestTricomiSmallT:
    @pytest.mark.parametrize("point", sorted(S_TRICOMI))
    def test_within_estimate_of_reference(self, point):
        # every former oracle fallback meets the tight target; at order
        # 28.102, above x0 + 1 = 3.72, the recurrence run at the order
        # itself lost about 3e-10 to rounding and rejected the point, which
        # the reflected point's closed recurrence now meets
        ev = _tricomi_small_t(ShuParams(*point), TIGHT)
        assert abs(ev.value - S_TRICOMI[point]) <= ev.error_estimate
        assert ev.rejection(TIGHT) is None

    def test_within_estimate_where_the_alternating_series_meets_the_target(self):
        # wherever it returns; at (14.04, 1.02, 0.055), above x0 + 1 = 5.74,
        # the reflected point's start, (sqrt(x0) + ln(4/rel)/(4 sqrt t))^2,
        # passes _MAX_START, and series_small_t, which runs the alternating
        # sum first there, meets the target
        raised = []
        for point, ref in S_SERIES_SMALL_T.items():
            p = ShuParams(*point)
            try:
                ev = _tricomi_small_t(p, TIGHT)
            except NonConvergence as exc:
                assert "needs a start index above 1024" in str(exc)
                raised.append(point)
                ev = series_small_t(p, TIGHT)
                assert ev.rejection(TIGHT) is None, point
            assert abs(ev.value - ref) <= ev.error_estimate, point
        assert raised == [(14.04141613276638, 1.0241703959067527, 0.055369372820416464)]

    @pytest.mark.parametrize("x0_lo, x0_hi, seed, least", [(2.0, 700.0, 21, 270), (0.01, 2.0, 22, 120)])
    def test_wide_box_differential(self, x0_lo, x0_hi, seed, least):
        # 300 seeded points with |nu| <= 30, z^2/4t log-uniform on [2, 700],
        # or on [0.01, 2], where the start index grows like 1/x0, and t
        # log-uniform on [1e-3, 200]: wherever the sum meets the target it
        # agrees with forms 5 and 4 within its estimate plus theirs, and its
        # estimate is never NaN.  Below x0 = 2, with A_n carried down from
        # A_start by steps of 2, the rounding of A_start reached every step
        # uncounted, and the estimate missed at 2 of the 300
        rng = random.Random(seed)
        accepted = 0
        for _ in range(300):
            nu = rng.uniform(-30.0, 30.0)
            x0 = math.exp(rng.uniform(math.log(x0_lo), math.log(x0_hi)))
            t = math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
            p = ShuParams(nu, math.sqrt(4.0 * t * x0), t)
            try:
                ev = _tricomi_small_t(p, TIGHT)
            except NonConvergence:
                continue
            assert not math.isnan(ev.error_estimate), p
            if ev.rejection(TIGHT):
                continue
            accepted += 1
            for ref in (shu_oracle(p, TIGHT), shu_oracle_cosh(p, TIGHT)):
                assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, (p, ref.method)
        assert accepted >= least

    def test_closing_step_brackets_h0(self):
        # 300 seeded points with |nu| <= 30 and x0 log-uniform on [0.01,
        # 700], kept where nu <= x0 + 1: at t = 0 the sums are 1, so the
        # recurrence closed at U(0, nu + 1, x0) = 1 brackets h_0 = U(1, nu +
        # 1, x0) alone; that bracket, widened by its rounding, holds the
        # first value of gamma._upper_gamma_orders within that value's bound
        rng = random.Random(34)
        checked = 0
        while checked < 300:
            nu = rng.uniform(-30.0, 30.0)
            x0 = math.exp(rng.uniform(math.log(0.01), math.log(700.0)))
            if nu > x0 + 1.0:
                continue
            h0, e0 = next(_upper_gamma_orders(nu, x0))
            start = 8
            while True:
                hl, hh, rounding, work = _tricomi_bracket(nu, x0, 0.0, start)
                assert work == 2 * start + 1
                if hh - hl <= 1e-13 * hh or start > 1 << 14:
                    break
                start *= 2
            assert hl - rounding - e0 <= h0 <= hh + rounding + e0, (nu, x0, start)
            checked += 1

    @pytest.mark.parametrize("point", sorted(S_ABOVE_X0_PLUS_1))
    def test_above_x0_plus_1_within_estimate_of_reference(self, point):
        # where nu > x0 + 1 the closing step cancels, so the sum is read at
        # the reflected point, K_nu(z) - S_-nu(z, x0): series_small_t meets
        # the tight target within its estimate of the reference, and so does
        # the positive-term sum wherever it returns; at t = 0.044 and 0.0011
        # the reflected start, which grows as t falls, passes _MAX_START
        p = ShuParams(*point)
        ref = S_ABOVE_X0_PLUS_1[point]
        ev = series_small_t(p, incmac.core.TIGHT)
        assert ev.rejection(incmac.core.TIGHT) is None
        assert abs(ev.value - ref) <= ev.error_estimate
        try:
            ev = _tricomi_small_t(p, incmac.core.TIGHT)
        except NonConvergence as exc:
            assert p.endpoint < 0.05 and "needs a start index above 1024" in str(exc)
        else:
            assert ev.rejection(incmac.core.TIGHT) is None
            assert abs(ev.value - ref) <= ev.error_estimate

    @pytest.mark.parametrize("tol", [incmac.core.TIGHT, DEFAULT_TOLERANCES], ids=["TIGHT", "DEFAULT"])
    def test_large_x0_within_estimate_of_reference(self, tol):
        # x0 in [100, 2000] and |nu| <= 150, where the exponent's rounding
        # is most of the estimate: each small-endpoint sum lies within its
        # estimate of the reference; at box B's two points, where the old
        # bound on that rounding alone was 1.1e-12 of the value, the
        # positive-term sum meets the tight target
        for point, ref in S_LARGE_X0.items():
            p = ShuParams(*point)
            for fn in (series_small_t, _tricomi_small_t, _alternating_small_t):
                ev = fn(p, tol)
                assert abs(ev.value - ref) <= ev.error_estimate, (point, fn)
        for point in list(S_LARGE_X0)[:2]:
            assert _tricomi_small_t(ShuParams(*point), tol).rejection(tol) is None

    def test_above_x0_plus_1_agrees_with_form_4(self):
        # 200 seeded points with nu > x0 + 1, x0 log-uniform on [0.01, 30]
        # and t on [1e-3, 100]: wherever series_small_t, which runs the
        # alternating sum first there, or the reflected positive-term sum
        # meets the target, it agrees with form 4 within both estimates
        rng = random.Random(39)
        accepted = {series_small_t: 0, _tricomi_small_t: 0}
        for _ in range(200):
            x0 = math.exp(rng.uniform(math.log(0.01), math.log(30.0)))
            t = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
            p = ShuParams(rng.uniform(x0 + 1.0, 30.0), math.sqrt(4.0 * t * x0), t)
            ref = shu_oracle_cosh(p, TIGHT)
            for fn in accepted:
                try:
                    ev = fn(p, TIGHT)
                except NonConvergence:
                    continue
                if ev.rejection(TIGHT):
                    continue
                accepted[fn] += 1
                assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, (p, fn)
        assert accepted[series_small_t] == 200
        assert accepted[_tricomi_small_t] >= 120

    def test_overflowing_sum_raises_naming_the_point(self):
        # sum_n t^n U_n/U_0, about e^t, passes the double range at t = 850,
        # nu <= x0 + 1 = 9.0: the value was inf with a NaN estimate
        p = ShuParams(8.5, 165.0, 850.0)
        with pytest.raises(NonConvergence, match=r"sum exceeds the double range at ShuParams\(order=8.5, "):
            _tricomi_small_t(p, TIGHT)

    def test_reflected_point_past_the_underflow_returns_k(self):
        # at t = 882 the sum at the order itself passed the double range;
        # above x0 + 1 = 12.6 the reflected S_-nu(z, x0) is a flagged zero,
        # so the value is K_nu(z), with TINY added to the estimate
        p = ShuParams(29.45003793017056, 202.59283805234966, 881.9254053650693)
        ev = _tricomi_small_t(p, TIGHT)
        assert ev.value == macdonald_k(p.order, p.argument)
        assert ev.rejection(TIGHT) is None
        assert abs(ev.value - asympt_large_t(p, TIGHT).value) <= ev.error_estimate

    def test_subnormal_x0_raises_naming_the_point(self):
        # x0 = 1.4e-320: (sqrt(t) + reach)^2 raised a bare OverflowError
        with pytest.raises(NonConvergence, match=r"z\^2/4t underflows to .* at z = 2.8e-161, t = 0.0142;"):
            _tricomi_small_t(ShuParams(-1.0, 2.8e-161, 0.0142), TIGHT)

    def test_work_counts_recurrence_steps_and_terms(self):
        # one pass from start index 36, (sqrt(3) + ln(4e12)/(4 sqrt(3)))^2
        # = 35.05 rounded up: 36 recurrence steps and 36 terms, and the
        # step to n = 0 that gives h_0 (order 0 <= x0 + 1 = 4), counted once
        ev = _tricomi_small_t(ShuParams(0.0, 6.0, 3.0), TIGHT)
        assert ev.work == 73
        assert ev.method is MethodTag.SERIES_SMALL_T


class TestSeriesSmallZ:
    def test_home_regime_against_oracle(self):
        ev = series_small_z(ShuParams(1.0, 0.1, 2.0), TIGHT)
        assert _rel(ev.value, _oracle(1, 0.1, 2)) < 1e-9

    def test_converges_beyond_home_regime(self):
        ev = series_small_z(ShuParams(0.0, 3.0, 3.0), TIGHT)
        assert _rel(ev.value, S0_3_3) < 1e-8

    def test_leading_truncation_consistent_at_tiny_argument(self):
        # k = 0 truncation: K_0(z) - Gamma(0, t)/2 matches the full sum
        z, t = 1e-6, 1.0
        full = series_small_z(ShuParams(0.0, z, t), TIGHT).value
        k0_only = macdonald_k(0.0, z) - 0.5 * upper_incomplete_gamma(0.0, t)
        assert _rel(full, k0_only) < 1e-10

    def test_overflowing_partial_sum_raises(self):
        # the terms (z^2/4)^k/k! Gamma(-nu-k, t) pass the double range
        # before a gamma factor overflows; the sum must not return
        with pytest.raises(NonConvergence):
            series_small_z(ShuParams(9.095578363365775, 29.841925040658623, 0.0005032682251735685), TIGHT)

    def test_k_form_where_z_over_2t_underflows(self):
        # z/2t underflows to 0, so the prefactor's log comes from the logs
        # of z and t; at t = 1e300 the sum vanishes next to K_nu(z)
        ev = series_small_z(ShuParams(0.5, 1e-160, 1e300), Tolerances(abs_tol=1e-300, rel_tol=0.0))
        assert abs(ev.value - macdonald_k(0.5, 1e-160)) <= ev.error_estimate

    def test_k_form_estimate_covers_error_against_high_precision(self):
        misses = []
        for point, ref in S_SERIES_SMALL_Z_K.items():
            ev = series_small_z(ShuParams(*point), TIGHT)
            if not abs(ev.value - ref) <= ev.error_estimate:
                misses.append((point, ev.value, ev.error_estimate))
        assert misses == []

    def test_cancellation_shows_in_estimate_at_small_endpoint(self):
        # at t = 0.02 the summands grow enormous before the k! wins; the
        # estimate, counted from the peak partial sum, must confess it
        # (7.8e-11 against a 1e-12 target) rather than return quiet noise
        tol = Tolerances()
        assert series_small_z(ShuParams(0.0, 1.0, 0.02), tol).rejection(tol) == "TAIL_TOO_LARGE"


def _at_both_tolerances(refs):
    """(point, tol) over sorted(refs) at TIGHT, ids point0, point1, ...,
    and at DEFAULT_TOLERANCES, ids point0-DEFAULT_TOLERANCES, ..."""
    return [
        pytest.param(point, tol, id=f"point{i}{suffix}")
        for i, point in enumerate(sorted(refs))
        for tol, suffix in ((TIGHT, ""), (DEFAULT_TOLERANCES, "-DEFAULT_TOLERANCES"))
    ]


class TestSeriesSmallZNegativeOrder:
    """The split form at negative non-integer order: no K, no cancellation
    against it."""

    NEAR_INTEGER = (-1.9919421798402084, 0.037746421311855016, 0.000409201433594809)

    @pytest.mark.parametrize("point,tol", _at_both_tolerances(S_SMALL_Z_SPLIT))
    def test_frozen_within_estimate(self, point, tol):
        ev = series_small_z(ShuParams(*point), tol)
        assert ev.method is MethodTag.SERIES_SMALL_Z
        assert abs(ev.value - S_SMALL_Z_SPLIT[point]) <= ev.error_estimate

    @pytest.mark.parametrize("point,tol", _at_both_tolerances(S_SPLIT_SEEDED))
    def test_seeded_within_estimate(self, point, tol):
        # orders up to 30 and endpoints down to 1e-4, where the lower
        # gammas step down from one Kummer sum past order 0
        ev = series_small_z(ShuParams(*point), tol)
        assert ev.method is MethodTag.SERIES_SMALL_Z
        assert abs(ev.value - S_SPLIT_SEEDED[point]) <= ev.error_estimate

    def test_stops_below_abs_tol_in_units_of_its_prefactor(self):
        # S is 7.5e-12 here, so DEFAULT_TOLERANCES' target is its abs_tol,
        # 1e-12: the sum stops once its terms fall below abs_tol, as both
        # upper-gamma sums do, where the relative stop alone took 6 terms;
        # the error is 0.99 of the estimate
        point = (-28.128896554481763, 0.0029440810421574965, 0.0006833938201624302)
        ev = series_small_z(ShuParams(*point), DEFAULT_TOLERANCES)
        assert ev.work <= 3
        assert abs(ev.value - S_SPLIT_SEEDED[point]) <= ev.error_estimate <= DEFAULT_TOLERANCES.target(ev.value)

    def test_near_integer_order_returned_only_within_estimate(self):
        # the sum and the I term both grow like 1/sin(m pi) here; the
        # estimate must show their cancellation, so evaluate either returns
        # a value that meets it or rejects the candidate
        p = ShuParams(*self.NEAR_INTEGER)
        ref = S_SMALL_Z_SPLIT[self.NEAR_INTEGER]
        ev, dec = evaluate(p, TIGHT)
        if dec.chosen is MethodTag.SERIES_SMALL_Z:
            assert abs(ev.value - ref) <= ev.error_estimate
        else:
            assert any(tag is MethodTag.SERIES_SMALL_Z for tag, _ in dec.candidates_tried)
        direct = series_small_z(p, TIGHT)
        assert abs(direct.value - ref) <= direct.error_estimate

    @pytest.mark.parametrize("point,tol", _at_both_tolerances(S_SPLIT_TAIL))
    def test_tail_bound_covers_terms_rising_towards_the_pole(self, point, tol):
        # past z = 1 the terms fell below target and rose again as m - k
        # neared 0; stopping there left out 1.5-4.2x the estimate
        p = ShuParams(*point)
        ref = S_SPLIT_TAIL[point]
        split = incmac.expansions._split_small_z(-p.order, p.argument, p.endpoint, tol)
        assert abs(split.value - ref) <= split.error_estimate
        ev = series_small_z(p, tol)
        assert abs(ev.value - ref) <= ev.error_estimate

    def test_computes_no_k(self, monkeypatch):
        def no_k(*args):
            raise AssertionError("K computed on the negative non-integer branch")

        monkeypatch.setattr(incmac.expansions, "_macdonald_k_eval", no_k)
        ev = series_small_z(ShuParams(-2.3, 0.5, 1.7), TIGHT)
        assert abs(ev.value - S_SMALL_Z_SPLIT[-2.3, 0.5, 1.7]) <= ev.error_estimate

    @pytest.mark.parametrize("t", [720.0, 2000.0])
    def test_overflowing_lower_gamma_sums_fall_back_to_k_form(self, t):
        # e^t overflows in the split form's Kummer sums, which raise; the K
        # form then returns a value within its estimate of forms 4 and 5
        p = ShuParams(-2.5, 0.5, t)
        with pytest.raises(NonConvergence):
            incmac.expansions._split_small_z(2.5, 0.5, t, TIGHT)
        ev = series_small_z(p, TIGHT)
        assert ev.rejection(TIGHT) is None
        for ref in (shu_oracle(p, TIGHT, 5), shu_oracle_cosh(p, TIGHT)):
            assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, ref.method

    @pytest.mark.parametrize("nu", [-3.0, 0.0, 2.5])
    def test_integer_and_nonnegative_orders_keep_k_form(self, nu, monkeypatch):
        # these orders still subtract the sum from K_nu(z); the split form
        # has no I_m term at integer order
        calls = []
        real = incmac.expansions._macdonald_k_eval

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(incmac.expansions, "_macdonald_k_eval", counted)
        ev = series_small_z(ShuParams(nu, 0.5, 1.7), TIGHT)
        assert calls == [(nu, 0.5)]
        ref = shu_oracle(ShuParams(nu, 0.5, 1.7), TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate


class TestAsymptLargeT:
    def test_correction_invisible_at_t40(self):
        ev = asympt_large_t(ShuParams(1.0, 3.0, 40.0), TIGHT)
        assert _rel(ev.value, macdonald_k(1.0, 3.0)) < 1e-15

    def test_resolvable_correction_at_t12(self):
        ev = asympt_large_t(ShuParams(0.0, 3.0, 12.0), TIGHT)
        oracle = _oracle(0, 3, 12)
        kval = macdonald_k(0.0, 3.0)
        # the K form converges at any endpoint, so this bound, set when
        # the sum was asymptotic in t, is loose
        assert _rel(ev.value, oracle) < 5e-9
        assert abs(ev.value - oracle) < abs(kval - oracle)
        assert abs(ev.value - oracle) <= 3.0 * ev.error_estimate

    @pytest.mark.parametrize("point", [p for p in S_HIGH_PRECISION if p[2] >= 30.0])
    def test_tail_bound_against_high_precision(self, point):
        ev = asympt_large_t(ShuParams(*point), TIGHT)
        assert abs(ev.value - S_HIGH_PRECISION[point]) <= ev.error_estimate

    @pytest.mark.parametrize("point", list(S_LARGE_T_CANCELLING))
    def test_cancelling_outer_sum_within_estimate(self, point):
        # the sum's rounding scales with its peak partial sum, not with the
        # small correction it cancels down to
        ev = asympt_large_t(ShuParams(*point), TIGHT)
        assert abs(ev.value - S_LARGE_T_CANCELLING[point]) <= ev.error_estimate

    def test_outer_tail_counts_the_inner_sum_above_one(self):
        # the former asymptotic sum stopped after 2 outer terms here, and
        # counting |coef_2| alone for the omitted ones put the value 1.07x
        # its estimate off both reference forms
        p = ShuParams(-5.59751630241308, 2.4913205667508254, 31.256334059703725)
        ev = asympt_large_t(p, Tolerances(abs_tol=5e-324, rel_tol=1e-8))
        r5, r4 = shu_oracle(p, TIGHT, 5), shu_oracle(p, TIGHT, 4)
        assert abs(r5.value - r4.value) <= r5.error_estimate + r4.error_estimate
        for ref in (r5, r4):
            assert abs(ev.value - ref.value) <= ev.error_estimate

    def test_outer_coefficient_underflowing_to_zero(self):
        # the second coefficient of the former asymptotic sum, e^-716 times
        # -z^2/4t = -1.9e-15, underflowed to 0.0; S is K to far below the
        # estimate
        ev = asympt_large_t(ShuParams(30.0, 1e-6, 130.0), TIGHT)
        assert abs(ev.value - macdonald_k(30.0, 1e-6)) <= ev.error_estimate

    def test_one_implementation_with_the_k_form(self):
        # where both candidates run the K form, at order >= 0 or an integer,
        # they agree bit for bit in value, estimate and work, or raise the
        # same error, and differ only in their tag; 107 of these points sum
        # terms, the rest return K alone
        rng = random.Random(35)
        for _ in range(300):
            nu = rng.uniform(0.0, 30.0) if rng.random() < 0.5 else float(rng.randint(-30, 30))
            t = math.exp(rng.uniform(math.log(30.0), math.log(100.0)))
            x0 = math.exp(rng.uniform(math.log(1e-8), math.log(2.0)))
            p = ShuParams(nu, math.sqrt(4.0 * t * x0), t)
            got = []
            for fn in (asympt_large_t, series_small_z):
                try:
                    ev = fn(p, TIGHT)
                except (NonConvergence, OverflowError) as exc:
                    got.append((type(exc), str(exc)))
                else:
                    got.append((ev.value.hex(), ev.error_estimate.hex(), ev.work, ev.flags, ev.method))
            if len(got[0]) == 5:
                assert got[0][4] is MethodTag.ASYMPT_LARGE_T and got[1][4] is MethodTag.SERIES_SMALL_Z, p
                got = [g[:4] for g in got]
            assert got[0] == got[1], p

    def test_agrees_with_small_argument_series(self):
        # at negative non-integer order and z <= 1 the small-argument series
        # takes its split form, which needs no K; at t >= 30 the two forms
        # agree within their joint error
        rng = random.Random(2020)
        for _ in range(300):
            p = ShuParams(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 30.0), rng.uniform(30.0, 40.0))
            a, b = asympt_large_t(p, TIGHT), series_small_z(p, TIGHT)
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, p

    def test_leading_correction_scale(self):
        # the first correction term dominates the K - S gap within factor 2
        for t in (15.0, 20.0, 30.0):
            for nu in (0.0, 1.0, 2.0):
                corr = 0.5 * 1.5**nu * math.exp(-t) / t ** (nu + 1.0)
                c = 0.25 * 9.0

                def f(tau, nu=nu):
                    e = -tau - c / tau - (nu + 1.0) * math.log(tau)
                    return math.exp(e) if e > -745.0 else 0.0

                gap = 0.5 * 1.5**nu * integrate_adaptive(
                    f, t, t + 740.0, TIGHT, points=(t + 1.0, t + 5.0, t + 25.0)
                ).value
                assert 0.5 * corr <= gap <= 2.0 * corr


class TestLeadingSmallT:
    def test_direct_formula_value(self):
        want = math.exp(-2.0) / 2.0
        assert _rel(leading_small_t(ShuParams(1.0, 2.0, 0.5)), want) < 1e-14

    def test_better_at_higher_order(self):
        def dev(nu):
            p = ShuParams(nu, 3.0, 0.05)
            return abs(_oracle(nu, 3.0, 0.05) / leading_small_t(p) - 1.0)

        assert dev(3.0) < dev(1.0)

    def test_first_order_convergence(self):
        def dev(t):
            p = ShuParams(2.0, 3.0, t)
            return abs(_oracle(2.0, 3.0, t) / leading_small_t(p) - 1.0)

        assert dev(0.01) < dev(0.1)
        assert 1.5 <= dev(0.1) / dev(0.05) <= 2.5
        assert 1.5 <= dev(0.05) / dev(0.025) <= 2.5

    # the exponential underflows to 0, or to a subnormal (1.72e-320 here)
    @pytest.mark.parametrize("point", [(0.0, 3.0, 1e-300), (0.0, 54.0, 1.0)])
    def test_underflow_returns_zero(self, point):
        assert leading_small_t(ShuParams(*point)) == 0.0


class TestLeadingRange:
    """The other approximants' exponentials go through core._exp_value as
    leading_small_t's does; each case raised a bare math range error or
    returned a subnormal."""

    @pytest.mark.parametrize(
        "call,args",
        [(leading_small_z, (ShuParams(200.0, 1e-5, 1.0),)), (leading_imb_large_z, (800.0, 1e-3, 2.0))],
    )
    def test_overflow_raises_typed_error(self, call, args):
        with pytest.raises(OverflowError, match="exceeds the double range at .*> ln DBL_MAX"):
            call(*args)

    @pytest.mark.parametrize(
        "call,args",
        [(leading_large_z, (ShuParams(0.0, 53.0, 1.0),)), (leading_imb_large_z, (0.0, 462.0, 1.0))],
    )
    def test_underflow_returns_zero(self, call, args):
        assert call(*args) == 0.0


class TestLeadingSmallZ:
    def test_order_zero_log(self):
        assert _rel(leading_small_z(ShuParams(0.0, math.exp(-1.0), 1.0)), 1.0) < 1e-14

    def test_even_in_order(self):
        a = leading_small_z(ShuParams(-1.5, 0.3, 1.0))
        b = leading_small_z(ShuParams(1.5, 0.3, 1.0))
        assert a == b

    def test_integer_order_value(self):
        # order 2 at z = 0.01: 2 Gamma(2) / z^2
        assert _rel(leading_small_z(ShuParams(2.0, 0.01, 3.0)), 2e4) < 1e-13

    def test_gap_grows_with_order(self):
        # figure-style observable: the absolute approximation gap is far
        # smaller at order 1 than at order 4 for the same small argument
        def gap(nu):
            return abs(_oracle(nu, 0.01, 3.0) - leading_small_z(ShuParams(nu, 0.01, 3.0)))

        assert gap(1.0) < gap(4.0)


class TestLeadingLargeZ:
    def test_two_displayed_forms_agree(self):
        nu, z, t = 1.0, 10.0, 1.0
        zeta = math.log(0.5 * z / t)
        alt = math.exp(nu * zeta - z * math.cosh(zeta)) / (2.0 * z * math.sinh(zeta))
        assert _rel(leading_large_z(ShuParams(nu, z, t)), alt) < 1e-14

    def test_oracle_window_and_improvement(self):
        r12 = _oracle(0, 12, 1) / leading_large_z(ShuParams(0.0, 12.0, 1.0))
        r20 = _oracle(0, 20, 1) / leading_large_z(ShuParams(0.0, 20.0, 1.0))
        assert 0.9 < r12 < 1.1
        assert abs(r20 - 1.0) < abs(r12 - 1.0)

    def test_better_at_lower_order(self):
        def dev(nu):
            return abs(_oracle(nu, 12.0, 1.0) / leading_large_z(ShuParams(nu, 12.0, 1.0)) - 1.0)

        assert dev(0.0) < dev(3.0)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            leading_large_z(ShuParams(0.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            leading_large_z(ShuParams(0.0, 1.9, 1.0))
        with pytest.warns(NearPoleWarning):
            leading_large_z(ShuParams(0.0, 2.3, 1.0))

    def test_positive_on_domain(self):
        assert leading_large_z(ShuParams(2.0, 9.0, 1.0)) > 0.0


class TestLeadingImbLargeZ:
    def test_direct_formula_value(self):
        want = math.exp(-15.0 * math.cosh(1.0)) / (30.0 * math.sinh(1.0))
        assert _rel(leading_imb_large_z(0.0, 15.0, 1.0), want) < 1e-14

    def test_even_in_order(self):
        assert leading_imb_large_z(1.0, 5.0, 1.0) == leading_imb_large_z(-1.0, 5.0, 1.0)

    def test_sinh_pole_guard(self):
        with pytest.raises(DomainError):
            leading_imb_large_z(0.0, 5.0, 0.0)
        with pytest.raises(DomainError):
            leading_imb_large_z(0.0, 5.0, -1.0)

    def test_approaches_integral_as_z_grows(self):
        def ratio(z):
            def f(u):
                e = -z * math.cosh(u)
                return 0.5 * math.exp(e) if e > -745.0 else 0.0

            direct = integrate_adaptive(f, 1.0, 8.0, TIGHT).value
            return leading_imb_large_z(0.0, z, 1.0) / direct

        assert abs(ratio(30.0) - 1.0) < abs(ratio(15.0) - 1.0)


def test_series_agree_with_oracle_across_full_grid():
    # both convergent evaluators, everywhere their reported tails are
    # tight, not just in their home regimes
    from incmac.core import NonConvergence

    checked = 0
    for nu in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
        for z in (0.5, 1.0, 3.0, 8.0):
            for t in (0.2, 1.0, 3.0, 10.0):
                oracle = _oracle(nu, z, t)
                for fn in (series_small_t, _alternating_small_t, series_small_z):
                    try:
                        ev = fn(ShuParams(nu, z, t), TIGHT)
                    except NonConvergence:
                        continue
                    if ev.error_estimate <= 1e-10 * abs(ev.value) and not ev.flags:
                        assert _rel(ev.value, oracle) < 1e-8, (fn.__name__, nu, z, t)
                        checked += 1
    assert checked > 100  # the gate must not be quietly filtering everything


def test_leading_approximants_positive_on_their_domains():
    for nu in (-1.5, 0.0, 0.5, 2.0):
        for z in (0.5, 3.0, 9.0):
            for t in (0.1, 1.0, 4.0):
                p = ShuParams(nu, z, t)
                assert leading_small_t(p) > 0.0
                if z < 1.0:
                    assert leading_small_z(p) > 0.0
                if z > 2.5 * t:
                    assert leading_large_z(p) > 0.0
                assert leading_imb_large_z(nu, z, t) > 0.0


@pytest.mark.parametrize("name,point,tol", list(SERIES_KERNEL))
def test_series_kernel_frozen(name, point, tol):
    ev = getattr(incmac.expansions, name)(ShuParams(*point), getattr(incmac.core, tol))
    assert (ev.value.hex(), ev.error_estimate.hex(), ev.work, ev.flags) == SERIES_KERNEL[name, point, tol]


def _exits(monkeypatch):
    """Record each answer of expansions._negligible."""
    answers = []
    real = incmac.expansions._negligible

    def spy(log_bound, kval):
        answers.append(real(log_bound, kval))
        return answers[-1]

    monkeypatch.setattr(incmac.expansions, "_negligible", spy)
    return answers


def _full_sum(monkeypatch, fn, *args):
    """fn(*args) with the early exit of both K-based candidates turned off."""
    with monkeypatch.context() as m:
        m.setattr(incmac.expansions, "_negligible", lambda log_bound, kval: False)
        try:
            return fn(*args)
        except (NonConvergence, OverflowError):
            return None


def test_k_alone_exactly_where_the_correction_rounds_away(monkeypatch):
    # K is returned alone only where the bound on K - S is negligible: there
    # the whole correction sum, with its estimate, rounds to exactly K and
    # K's estimate, and K lies within its estimate of forms 4 and 5
    rng = random.Random(24)

    def points(nu_lo, t_lo, t_hi):
        return [
            (
                rng.uniform(nu_lo, 30.0),
                math.exp(rng.uniform(math.log(1e-6), math.log(2.0))),
                math.exp(rng.uniform(math.log(t_lo), math.log(t_hi))),
            )
            for _ in range(400)
        ]

    kform = points(-1.0, 1e-4, 30.0)
    # negative orders too, where the ceiling in the tail bound exceeds 1
    large = points(-30.0, 30.0, 3000.0)
    answers = _exits(monkeypatch)
    for fn, pts in (
        (lambda p: incmac.expansions._k_form(*p, incmac.core.TIGHT), kform),
        (lambda p: asympt_large_t(ShuParams(*p), incmac.core.TIGHT), large),
    ):
        returned = fired = 0
        for p in pts:
            answers.clear()
            try:
                ev = fn(p)
            except (NonConvergence, OverflowError):
                assert not any(answers), p
                continue
            returned += 1
            if any(answers):
                fired += 1
                full = _full_sum(monkeypatch, fn, p)
                assert full is not None, p
                got = (ev.value.hex(), ev.error_estimate.hex(), ev.method, ev.flags)
                assert got == (full.value.hex(), full.error_estimate.hex(), full.method, full.flags), p
                for ref in (shu_oracle(ShuParams(*p), TIGHT), shu_oracle_cosh(ShuParams(*p), TIGHT)):
                    assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, p
        assert 2 * fired >= returned, (fired, returned)


def test_k_alone_below_order_minus_one(monkeypatch):
    # the tail bound holds at every order, so the K form returns K alone
    # below order -1 too, and only where the whole sum rounds to K
    rng = random.Random(29)
    answers = _exits(monkeypatch)
    fired = 0
    for _ in range(300):
        p = (
            rng.uniform(-30.0, -1.0),
            math.exp(rng.uniform(math.log(1e-6), math.log(2.0))),
            math.exp(rng.uniform(0.0, math.log(3000.0))),
        )
        answers.clear()
        try:
            ev = incmac.expansions._k_form(*p, incmac.core.TIGHT)
        except (NonConvergence, OverflowError):
            assert not any(answers), p
            continue
        if any(answers):
            fired += 1
            full = _full_sum(monkeypatch, incmac.expansions._k_form, *p, incmac.core.TIGHT)
            assert ev.work == 0 and full is not None, p
            assert (ev.value.hex(), ev.error_estimate.hex()) == (full.value.hex(), full.error_estimate.hex()), p
    assert fired >= 50


def _tail_bound_point(rng, branch):
    # a seeded (nu, z, t) on one branch of _log_tail_bound: nu >= -1 with
    # x0 = z^2/4t below t, nu >= -1 with x0 >= t, -t < nu + 1 < 0, and
    # nu + 1 <= -t
    while True:
        t = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
        z = math.exp(rng.uniform(math.log(1e-3), math.log(80.0)))
        x0 = 0.25 * z * z / t
        if branch < 2:
            nu = rng.uniform(-1.0, 30.0)
            if (x0 < t) == (branch == 0):
                return nu, z, t
        elif branch == 2:
            nu = rng.uniform(-1.0 - t, -1.0)
            if -t < nu + 1.0 < 0.0:
                return nu, z, t
        elif t < 29.0:
            return rng.uniform(-30.0, -1.0 - t), z, t


@pytest.mark.parametrize("branch", range(4))
def test_tail_bound_holds_on_each_branch(branch):
    # K - S, integrated directly over (t, inf), never exceeds the bound the
    # large-endpoint gate and the K form's K-alone exit both test
    rng = random.Random(36 + branch)
    for _ in range(100):
        p = _tail_bound_point(rng, branch)
        gap = _tail_gap(*p)
        assert 0.0 < gap <= math.exp(_log_tail_bound(*p)), p


def test_large_t_refuses_where_its_first_coefficient_underflows():
    # the leading correction e^-771 underflows, while the tail bound e^-349,
    # which counts the ceiling of Gamma(300, 30) 30^-299 e^30 ~ e^422, is far
    # above S < e^-4800: a sum of zeros once returned K_300(700) ~ 1.5e-278.
    # The K form's terms, about x0^k/k! at x0 = 4083, pass the double range
    with pytest.raises(NonConvergence, match="partial sum overflows at term 120"):
        asympt_large_t(ShuParams(-300.0, 700.0, 30.0), incmac.core.TIGHT)


def test_large_t_refuses_where_its_first_coefficient_overflows():
    # the leading correction e^938 passes the double range, while
    # S < e^-8e9: a bare OverflowError from math.exp once reached the CLI
    # as a range error
    with pytest.raises(NonConvergence, match="partial sum overflows at term 36"):
        asympt_large_t(ShuParams(100.0, 1e6, 30.0), incmac.core.TIGHT)


def test_k_alone_takes_no_term():
    ev = series_small_z(ShuParams(25.748344553341216, 1.2129998471811086e-05, 0.0014381530318261255))
    assert ev.work == 0
    assert ev.value == macdonald_k(25.748344553341216, 1.2129998471811086e-05)


@pytest.mark.parametrize("point", [(0.3, 0.5, 1.0), (-20.0, 1e-3, 1e-4)])
def test_no_exit_where_the_correction_counts(point, monkeypatch):
    # at (-20, 1e-3, 1e-4) the correction is almost all of K ~ 6e82, but
    # the orders 20 - k exceed 1, so the bound B ~ 5e-11 does not hold
    answers = _exits(monkeypatch)
    ev = series_small_z(ShuParams(*point), incmac.core.TIGHT)
    assert ev.work > 0
    assert not any(answers)


@pytest.mark.parametrize("tol", [incmac.core.TIGHT, DEFAULT_TOLERANCES], ids=["TIGHT", "DEFAULT"])
def test_alternating_sum_at_subnormal_x0(tol):
    # at order -1, z in [1e-161, 1e-158] and t in [1e-7, 0.02], x0 = z^2/4t
    # is subnormal, so the positive-term sum refuses and the alternating sum
    # takes the small-endpoint row; there e^(-z^2/4s) = 1 in doubles, and
    # S = (1/z) int_0^t e^-s ds = -expm1(-t)/z exactly
    rng = random.Random(39)
    taken = 0
    for _ in range(100):
        z = math.exp(rng.uniform(math.log(1e-161), math.log(1e-158)))
        t = math.exp(rng.uniform(math.log(1e-7), math.log(0.02)))
        p = ShuParams(-1.0, z, t)
        assert 0.0 < 0.25 * z * z / t < TINY
        ev, dec = evaluate(p, tol)
        assert abs(ev.value + math.expm1(-t) / z) <= ev.error_estimate, (p, dec)
        if dec.chosen is MethodTag.SERIES_SMALL_T:
            assert ev == _alternating_small_t(p, tol)
            taken += 1
    assert taken >= 80


@pytest.mark.parametrize("fn", [series_small_t, _alternating_small_t, _tricomi_small_t])
def test_small_endpoint_sums_raise_where_x0_overflows(fn):
    with pytest.raises(NonConvergence, match=r"x0 = z\^2/4t overflows to inf"):
        fn(ShuParams(2.0, 3.0, 1e-310), incmac.core.TIGHT)


def test_one_loop_over_terms():
    # every series in expansions runs through _gamma_sum
    looping = [
        node.name
        for node in ast.walk(ast.parse(inspect.getsource(incmac.expansions)))
        if isinstance(node, ast.FunctionDef)
        for loop in ast.walk(node)
        if isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Call)
        and ast.unparse(loop.iter) == "range(_MAX_TERMS)"
    ]
    assert looping == ["_gamma_sum"]


def test_one_exit_scales_every_sum():
    # the prefactor of every sum of S is exponentiated in one place,
    # _sum_exit, which _gamma_sum and the positive-term sum leave through;
    # _gamma_sum's two exps take abs_tol and K into the prefactor's units,
    # and leading_imb_large_z's is an approximant's log1p(e^-2a)
    exps, exits = Counter(), []
    for fn in ast.parse(inspect.getsource(incmac.expansions)).body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.exp":
                exps[fn.name] += 1
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_sum_exit":
                exits.append(fn.name)
    assert exps == {"_sum_exit": 1, "_gamma_sum": 2, "leading_imb_large_z": 1}
    assert sorted(exits) == ["_gamma_sum", "_tricomi_small_t"]


@pytest.mark.parametrize(
    "point, error, match",
    [
        # x0 subnormal above order x0 + 1: Gamma(f, x0) x0^-f e^x0 at the
        # anchor order f = 0.99 passes the double range
        ((297.99246897779165, 1.867417084085715e-76, 9.409070757099329e163), OverflowError,
         r"double range at \(0.99246897779164\d*, 9.265651e-317\): ln = 722.213 > ln DBL_MAX"),
        # x0 just above the smallest normal double: the start index overflowed
        ((-0.4314027619136356, 1.7672285292962838e-126, 3.4400190413545953e55), NonConvergence,
         r"the U recurrence needs a start index above 1024 at x0 = 2.26967978753"),
    ],
)
def test_small_endpoint_sums_name_the_bound_they_pass(point, error, match):
    # both raised a bare OverflowError ("math range error", "Numerical
    # result out of range")
    with pytest.raises(error, match=match):
        series_small_t(ShuParams(*point), incmac.core.TIGHT)


def test_grid_takes_few_legendre_fractions(monkeypatch):
    # work guard, no timing: the series take consecutive orders by
    # recurrence, one Legendre fraction per block, where one incomplete
    # gamma per term took 1,368 on this grid, the recurrence 111; with
    # the anchors shared by the cells of one (order, endpoint), 77
    gamma_module = importlib.import_module("incmac.gamma")
    calls = []
    real = gamma_module._legendre_cf

    def counted(a, x):
        calls.append(a)
        return real(a, x)

    monkeypatch.setattr(gamma_module, "_legendre_cf", counted)
    evaluate_grid([-2.6, -1.0, 0.0, 1.3, 3.7], [0.05, 0.6, 3.0, 9.0, 20.0], [0.04, 0.3, 1.0, 4.0, 12.0, 60.0], TIGHT)
    assert len(calls) <= 80


def test_grid_takes_one_kummer_sum_per_split_form(monkeypatch):
    # work guard, no timing: each split-form call steps down in the order
    # from one Kummer sum, which the sweep shares by (order, endpoint): 15
    # for the 42 calls on this grid (42 unshared; one per term took 423)
    gamma_module = importlib.import_module("incmac.gamma")
    counts = {"kummer": 0, "split": 0}
    real_kummer = gamma_module._kummer_sum
    real_split = incmac.expansions._split_small_z

    def counted_kummer(*args):
        counts["kummer"] += 1
        return real_kummer(*args)

    def counted_split(*args):
        counts["split"] += 1
        return real_split(*args)

    monkeypatch.setattr(gamma_module, "_kummer_sum", counted_kummer)
    monkeypatch.setattr(incmac.expansions, "_split_small_z", counted_split)
    evaluate_grid([-3.3, -2.6, -0.4], [0.05, 0.3, 0.9], [0.04, 0.3, 1.0, 4.0, 12.0], TIGHT)
    assert counts["split"] > 30
    assert counts["kummer"] <= 3 * 5  # one per (order, endpoint)
