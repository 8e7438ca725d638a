import hashlib
import importlib
import math
import random
from collections import Counter

import pytest

import incmac.cli
import incmac.core
import incmac.evaluator
import incmac.expansions
import incmac.quadrature
from incmac.cli import _figure_rows
from incmac.core import (
    FLAG_UNDERFLOW,
    DomainError,
    MethodTag,
    NonConvergence,
    ShuParams,
    Tolerances,
    LOG_HUGE,
    LOG_TINY,
    _log_s_lower,
    _log_s_upper,
)
from incmac.evaluator import (
    RegimeDecision,
    _closed_form_half_eval,
    _erfcx,
    closed_form_half,
    evaluate,
    evaluate_grid,
)
from incmac.gamma import macdonald_k
from incmac.quadrature import shu_oracle, shu_oracle_cosh

from frozen import (
    GRID_TABLE_SEED_1_DIGEST,
    GRID_TABLE_SEED_1_PATHS,
    K_REF,
    LOG_S_OVERFLOW,
    S0_3_3,
    S0_6_3,
    S_CLOSED_RECURRENCE,
    S_DEFAULT_SMALL_T,
    S_HALF_GRID,
    S_HALF_SUBNORMAL_Z,
    S_HIGH_PRECISION,
    S_LARGE_X0,
    S_LARGE_T_INNER_STOP,
    S_LARGE_T_K_FORM,
    S_LARGE_T_TANGENT,
    S_SERIES_EXPONENT_ROUNDING,
    S_SERIES_SMALL_Z_K,
    S_SMALL_Z_NEGATIVE_ORDER,
    S_SMALL_Z_SPLIT,
    SCATTER_WIDE_SEED_1_DIGEST,
    SCATTER_WIDE_SEED_1_PATHS,
)

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)

# a point near order 0 at z^2/4t = 0.022 that falls through to the
# quadrature oracle: the small-argument series and the small-endpoint series
# in positive terms both miss the target there
_ORACLE_CELL = (-0.0035698091700417933, 0.7888472780221482, 7.084354778849424)
# the oracle cell of scatter-wide's seed 1 at z^2/4t = 0.87, near order -2,
# until the positive-term sum took h_0 from its own recurrence
_FORMER_ORACLE_CELL = (-1.9919421798402084, 0.037746421311855016, 0.000409201433594809)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestDecisionProcedure:
    def test_large_endpoint_pins_to_macdonald(self):
        ev, dec = evaluate(ShuParams(0.0, 3.0, 100.0), TIGHT)
        assert dec.chosen is MethodTag.ASYMPT_LARGE_T
        assert dec.reason == "LARGE_T"
        assert _rel(ev.value, macdonald_k(0.0, 3.0)) < 1e-15

    def test_small_endpoint_series_chosen(self):
        ev, dec = evaluate(ShuParams(1.0, 3.0, 0.2), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T  # z^2/4t = 11.25 >= 2
        assert _rel(ev.value, shu_oracle(ShuParams(1.0, 3.0, 0.2), TIGHT).value) < 1e-9

    def test_half_order_closed_form_chosen(self):
        ev, dec = evaluate(ShuParams(0.5, 2.0, 1.0), TIGHT)
        assert dec.chosen is MethodTag.CLOSED_FORM_HALF
        assert _rel(ev.value, S_HALF_GRID[(0.5, 2.0, 1.0)]) < 1e-10

    def test_small_argument_series_chosen(self):
        ev, dec = evaluate(ShuParams(1.0, 0.5, 2.0), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z
        assert dec.reason == "SMALL_Z_CONVERGED"

    def test_small_argument_series_past_z_one(self):
        # z^2/4t = 0.75 < 2: the small-argument series runs past z = 1
        ev, dec = evaluate(ShuParams(0.0, 3.0, 3.0), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z
        assert _rel(ev.value, S0_3_3) < 1e-9

    def test_fallback_oracle(self):
        # z^2/4t = 0.022: the small-argument series runs, then the
        # small-endpoint series in positive terms, and both estimates miss
        # the target
        p = ShuParams(*_ORACLE_CELL)
        ev, dec = evaluate(p, TIGHT)
        assert dec.chosen is MethodTag.ORACLE5
        assert dec.reason == "FALLBACK_ORACLE"
        assert dec.candidates_tried == (
            (MethodTag.SERIES_SMALL_Z, "TAIL_TOO_LARGE"),
            (MethodTag.SERIES_SMALL_T, "TAIL_TOO_LARGE"),
        )
        ref = shu_oracle_cosh(p, TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    def test_former_fallback_taken_by_positive_terms(self):
        # h_0 from the sum's own recurrence, not from the small-x anchor,
        # which cancelled: the positive-term sum meets the target, within
        # forms 4 and 5
        p = ShuParams(*_FORMER_ORACLE_CELL)
        ev, dec = evaluate(p, TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert dec.candidates_tried == ((MethodTag.SERIES_SMALL_Z, "TAIL_TOO_LARGE"),)
        for ref in (shu_oracle(p, TIGHT), shu_oracle_cosh(p, TIGHT)):
            assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, ref.method

    @pytest.mark.parametrize("point", sorted(S_CLOSED_RECURRENCE))
    def test_cells_that_left_the_oracle_within_estimate(self, point):
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert abs(ev.value - S_CLOSED_RECURRENCE[point]) <= ev.error_estimate

    def test_small_endpoint_miss_taken_by_positive_terms(self):
        # z^2/4t = 3: the alternating small-endpoint series misses the
        # target, and the same series in positive terms meets it
        ev, dec = evaluate(ShuParams(0.0, 6.0, 3.0), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert dec.reason == "SMALL_T_CONVERGED"
        assert dec.candidates_tried == ()
        assert abs(ev.value - S0_6_3) <= ev.error_estimate
        assert incmac.expansions._alternating_small_t(ShuParams(0.0, 6.0, 3.0), TIGHT).rejection(TIGHT)

    def test_failed_half_order_self_check_recorded(self, monkeypatch):
        # a closed form that disagrees with the oracle on the self-check
        # grid is never trusted: the gate refuses it, the series serve
        gate = incmac.evaluator._closed_form_half_validated
        monkeypatch.setattr(incmac.evaluator, "closed_form_half", lambda p: 1.0)
        gate.cache_clear()
        try:
            _, dec = evaluate(ShuParams(0.5, 2.0, 1.0), TIGHT)
        finally:
            gate.cache_clear()
        assert dec.candidates_tried == ((MethodTag.CLOSED_FORM_HALF, "VALIDATION_FAILED"),)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z

    def test_overflowing_candidate_recorded(self, monkeypatch):
        def overflows(p, tol):
            raise OverflowError("stand-in")

        monkeypatch.setattr(incmac.evaluator, "asympt_large_t", overflows)
        ev, dec = evaluate(ShuParams(0.0, 3.0, 100.0), TIGHT)
        assert dec.candidates_tried == ((MethodTag.ASYMPT_LARGE_T, "OVERFLOW"),)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z
        assert _rel(ev.value, macdonald_k(0.0, 3.0)) < 1e-15

    @pytest.mark.parametrize(
        "point, want",
        [
            # K_nu(z) - (1/2)(z/2)^nu Gamma(-nu, t) in mpmath at 40 and 60
            # digits, since z^2/4 underflows to 0
            ((0.0, 5e-324, 1.0), 744.44631146984191462607943659),
            ((0.0, 5e-324, 40.0), 744.556003437039674762866179814),
            ((-0.3, 5e-324, 1.0), 1.65494507703605380389325746183e97),
        ],
    )
    def test_subnormal_argument(self, point, want):
        ev, _ = evaluate(ShuParams(*point))
        assert abs(ev.value - want) <= ev.error_estimate

    @pytest.mark.parametrize("point", list(LOG_S_OVERFLOW))
    def test_overflow_raised_before_the_oracle(self, monkeypatch, point):
        # every candidate fails here; core's lower bound on ln S passes
        # ln DBL_MAX, so the oracle, which would raise NonConvergence after
        # its integrand overflowed, never runs
        def oracle(p, tol=None, form=5):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(incmac.evaluator, "shu_oracle", oracle)
        with pytest.raises(OverflowError, match=r"ln S >= \d"):
            evaluate(ShuParams(*point), TIGHT)

    def test_overflow_rule_spares_every_returned_value(self):
        # box-A points (random.Random(102)): the rule raises only past the
        # double range, so every value evaluate returns is one it bounds
        rng = random.Random(102)
        returned = 0
        for _ in range(300):
            p = ShuParams(
                rng.uniform(-100.0, 100.0),
                math.exp(rng.uniform(math.log(1e-12), math.log(1e6))),
                math.exp(rng.uniform(math.log(1e-8), math.log(1e6))),
            )
            try:
                ev, _ = evaluate(p, TIGHT)
            except (OverflowError, NonConvergence):
                continue
            returned += 1
            if ev.value > 0.0:
                assert _log_s_lower(p) < math.log(ev.value)
        assert returned > 150

    @pytest.mark.parametrize("point", list(S_HALF_SUBNORMAL_Z))
    def test_half_order_closed_form_at_subnormal_argument(self, point):
        # where 2/z overflows the closed form builds its prefactor from
        # sqrt(z), so it stays finite, meets its estimate and is chosen first
        p = ShuParams(*point)
        value, err = _closed_form_half_eval(p)
        assert closed_form_half(p) == value and math.isfinite(err)
        assert abs(value - S_HALF_SUBNORMAL_Z[point]) <= err
        _, dec = evaluate(p)
        assert dec == RegimeDecision(MethodTag.CLOSED_FORM_HALF, "HALF_ORDER_CLOSED_FORM")

    @pytest.mark.parametrize("point", list(S_HALF_SUBNORMAL_Z))
    def test_half_order_at_subnormal_argument_within_estimate(self, point):
        # evaluate's value, and the small-argument series that served these
        # points while the closed form overflowed, whose K alone carries the
        # rounding of mu ln(z/2) in its estimate
        ev, _ = evaluate(ShuParams(*point))
        assert abs(ev.value - S_HALF_SUBNORMAL_Z[point]) <= ev.error_estimate
        ev = incmac.expansions.series_small_z(ShuParams(*point))
        assert abs(ev.value - S_HALF_SUBNORMAL_Z[point]) <= ev.error_estimate

    def test_large_t_rejected_when_correction_visible(self):
        # K(20) ~ 5.7e-10 makes the relative target smaller than the
        # correction, so the large-endpoint path must step aside
        ev, dec = evaluate(ShuParams(0.0, 20.0, 30.0), TIGHT)
        assert (MethodTag.ASYMPT_LARGE_T, "CORRECTION_TOO_LARGE") in dec.candidates_tried
        assert dec.chosen is not MethodTag.ASYMPT_LARGE_T

    @pytest.mark.parametrize("rel_tol", [1e-16, 1e-12, 1e-8])
    def test_every_returned_candidate_meets_its_target(self, rel_tol):
        # one rule for every candidate: below 8 EPS relative the closed
        # form's own estimate misses the target, so it steps aside too
        tol = Tolerances(abs_tol=5e-324, rel_tol=rel_tol, max_depth=120)
        for c in evaluate_grid(*_PATH_GRID, tol):
            ev = c.evaluation
            if ev is not None and ev.method is not MethodTag.ORACLE5:
                assert ev.error_estimate <= tol.target(ev.value), (c.order, c.argument, c.endpoint)

    def test_chosen_never_among_rejections(self):
        for args in ((0.0, 3.0, 100.0), (1.0, 3.0, 0.2), (0.0, 3.0, 3.0), (0.0, 20.0, 30.0)):
            _, dec = evaluate(ShuParams(*args), TIGHT)
            assert all(tag is not dec.chosen for tag, _ in dec.candidates_tried)

    def test_deterministic(self):
        a = evaluate(ShuParams(0.5, 3.0, 0.4), TIGHT)
        b = evaluate(ShuParams(0.5, 3.0, 0.4), TIGHT)
        assert a == b

    def test_never_returns_leading_approximant(self):
        paths = {
            MethodTag.ORACLE5,
            MethodTag.SERIES_SMALL_T,
            MethodTag.SERIES_SMALL_Z,
            MethodTag.ASYMPT_LARGE_T,
            MethodTag.CLOSED_FORM_HALF,
        }
        for nu in (-1.0, 0.0, 0.5, 2.0):
            for z in (0.3, 3.0, 15.0):
                for t in (0.05, 2.0, 50.0):
                    ev, dec = evaluate(ShuParams(nu, z, t))
                    assert ev.method in paths
                    assert dec.chosen in paths

    def test_cross_path_consistency(self):
        targets = []
        for args, frozen in S_HALF_GRID.items():
            ev, _ = evaluate(ShuParams(*args), TIGHT)
            targets.append(_rel(ev.value, frozen))
        assert max(targets) < 1e-8

    def test_tracks_oracle_across_random_parameter_box(self):
        # pinned-seed sweep over the practical box; every chosen path must
        # stay within a small multiple of the requested relative tolerance,
        # and both sides must agree on the subnormal underflow band
        rng = random.Random(20240809)
        tighter = Tolerances(abs_tol=5e-324, rel_tol=1e-13, max_depth=140)
        requested = Tolerances(abs_tol=5e-324, rel_tol=1e-10, max_depth=120)
        for _ in range(300):
            nu = rng.uniform(-6.0, 6.0)
            z = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
            t = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
            p = ShuParams(nu, z, t)
            ev, dec = evaluate(p, requested)
            ref = shu_oracle(p, tighter)
            if ev.value == 0.0 or ref.value == 0.0:
                assert abs(ev.value) < 2.3e-308 and abs(ref.value) < 2.3e-308, (nu, z, t)
                continue
            d = abs(ev.value - ref.value) / abs(ref.value)
            assert d < 5e-9, (nu, z, t, dec.chosen.value, d)

    def test_series_rejected_at_subnormal_gamma_band(self):
        # regression: near the representability floor the small-endpoint
        # series terms are built from subnormal gamma factors; the reported
        # estimate must carry that quantization so the value stays accurate
        # whichever path wins
        p = ShuParams(0.5232880496249752, 14.13862562242873, 0.07245148668754324)
        tol = Tolerances(abs_tol=5e-324, rel_tol=1e-10, max_depth=120)
        ev, _ = evaluate(p, tol)
        ref = shu_oracle(p, Tolerances(abs_tol=5e-324, rel_tol=1e-13, max_depth=140))
        assert abs(ev.value - ref.value) <= 1e-9 * abs(ref.value)

    @pytest.mark.parametrize(
        "point, rejected",
        [
            # the large-endpoint sum finds no truncation point with z near t,
            # and at t = 625 the positive-term sum's rounding, 6.0e-13 of the
            # value in its recurrence and 4.6e-13 in its exponent, is above
            # the target (the former point here, at t = 533, now meets it
            # under the one exponent rule)
            (
                (-4.203714960157761, 593.4627623303013, 624.5600019434393),
                (MethodTag.ASYMPT_LARGE_T, "NON_CONVERGENCE"),
            ),
            # at t = 632 the positive-term sum's rounding, 5.7e-13 of the
            # value in its recurrence and 4.7e-13 in its exponent, is above
            # the target (the former point here, box B's order 114 at x0 =
            # 1,364, now returns SeriesSmallT)
            (
                (-23.787774377380543, 618.7870618100164, 631.5469845752979),
                (MethodTag.SERIES_SMALL_T, "TAIL_TOO_LARGE"),
            ),
        ],
    )
    def test_failed_candidate_falls_through_to_oracle(self, point, rejected):
        p = ShuParams(*point)
        ev, dec = evaluate(p, TIGHT)
        assert dec.chosen is MethodTag.ORACLE5
        assert ev.method is MethodTag.ORACLE5
        assert rejected in dec.candidates_tried
        ref = shu_oracle_cosh(p, TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    @pytest.mark.parametrize("point", list(S_LARGE_X0)[:2])
    def test_large_x0_positive_terms_take_former_fallbacks(self, point):
        # box B's two points at x0 = 1,364 and 1,338: the positive-term
        # sum's old exponent bound alone was 1.1e-12 of the value, above the
        # target, and the points fell to the oracle; under the one derived
        # rule (_sum_exit) it meets the target within its estimate
        p = ShuParams(*point)
        ev, dec = evaluate(p, TIGHT)
        assert dec == (MethodTag.SERIES_SMALL_T, "SMALL_T_CONVERGED", ())
        assert abs(ev.value - S_LARGE_X0[point]) <= ev.error_estimate

    def test_reflected_positive_terms_take_a_former_fallback(self):
        # order 29 at z^2/4t = 13: the positive-term sum's recurrence at the
        # order itself lost more than the target to rounding, and the point
        # fell through to the oracle; above x0 + 1 it is read at the
        # reflected point, K_nu(z) - S_-nu(z, x0), whose recurrence closes
        p = ShuParams(29.484563027425665, 15.60342761027974, 4.56465312964024)
        ev, dec = evaluate(p, TIGHT)
        assert dec == (MethodTag.SERIES_SMALL_T, "SMALL_T_CONVERGED", ())
        assert ev == incmac.expansions._tricomi_small_t(p, TIGHT)
        ref = shu_oracle_cosh(p, TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    @pytest.mark.parametrize(
        "point, rejected",
        [
            # the K form finds no truncation point with z near t (scatter-wide
            # seed 8); the former point here, (18.59, 356.49, 367.06), is
            # now K alone (S_LARGE_T_TANGENT)
            ((16.975111654600944, 315.28200070192787, 268.52945573071923),
             ((MethodTag.ASYMPT_LARGE_T, "NON_CONVERGENCE"),)),
            # the alternating small-endpoint series with step -t = -204 needs
            # more than 200 terms here; with one incomplete gamma per term it
            # returned 1.2e-22 with a NaN error estimate, for a true value of
            # 3.9e-176
            ((-22.21781064291803, 400.31798891392566, 204.284282851257),
             ((MethodTag.ASYMPT_LARGE_T, "CORRECTION_TOO_LARGE"),)),
        ],
    )
    def test_positive_terms_take_former_fallbacks(self, point, rejected):
        # both fell through to the oracle before the positive-term sum
        p = ShuParams(*point)
        with pytest.raises(NonConvergence):
            incmac.expansions._alternating_small_t(p, TIGHT)
        ev, dec = evaluate(p, TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert dec.candidates_tried == rejected
        ref = shu_oracle_cosh(p, TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    @pytest.mark.parametrize("point", sorted(S_LARGE_T_INNER_STOP))
    def test_large_endpoint_inner_sums_stop_within_budget(self, point):
        # each inner asymptotic sum of the former large-endpoint sum ran to
        # its cap before its smallest term here, and the point fell through
        # to the oracle; the K form, stopped against K, takes it within its
        # estimate
        ev, dec = evaluate(ShuParams(*point), incmac.core.TIGHT)
        assert dec.chosen is MethodTag.ASYMPT_LARGE_T
        assert abs(ev.value - S_LARGE_T_INNER_STOP[point]) <= ev.error_estimate

    @pytest.mark.parametrize("point", sorted(S_LARGE_T_K_FORM))
    def test_large_endpoint_k_form_takes_moved_decisions(self, point):
        # the first three went to the small-endpoint series and the last to
        # the oracle while the large-endpoint sum was asymptotic in t
        ev, dec = evaluate(ShuParams(*point), incmac.core.TIGHT)
        assert (dec.chosen, dec.candidates_tried) == (MethodTag.ASYMPT_LARGE_T, ())
        assert abs(ev.value - S_LARGE_T_K_FORM[point]) <= ev.error_estimate

    @pytest.mark.parametrize("point", sorted(S_LARGE_T_TANGENT))
    def test_tail_bound_gate_takes_former_fallbacks(self, point):
        # the gate tested the leading correction, without e^(-z^2/4s), and
        # rejected the K form here; the first four fell to the oracle
        ev, dec = evaluate(ShuParams(*point), incmac.core.TIGHT)
        assert (dec.chosen, dec.candidates_tried) == (MethodTag.ASYMPT_LARGE_T, ())
        assert abs(ev.value - S_LARGE_T_TANGENT[point]) <= ev.error_estimate

    @pytest.mark.parametrize("point", sorted(S_DEFAULT_SMALL_T))
    def test_cancelling_small_endpoint_sum_judged_by_its_estimate(self, point):
        # the peak partial sum exceeds 1e6 |S| here; the estimate counts
        # that cancellation, and the value lies within it
        ev, dec = evaluate(ShuParams(*point), incmac.core.DEFAULT_TOLERANCES)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert abs(ev.value - S_DEFAULT_SMALL_T[point]) <= ev.error_estimate

    def test_large_order_small_endpoint_no_longer_overflows(self):
        # the K form overflowed in x**b at Gamma(-37.6 - k, 1.5e-6) ~ 1e217
        # and fell through to the oracle; in units of its prefactor the sum
        # stays finite and S = 2.3e151 comes from the series itself
        point = (37.59408476864124, 0.0024955358148473924, 1.4958339344322494e-06)
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z
        assert abs(ev.value - S_SERIES_SMALL_Z_K[point]) <= ev.error_estimate
        ref = shu_oracle_cosh(ShuParams(*point), TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    @pytest.mark.parametrize("point", sorted(S_SERIES_EXPONENT_ROUNDING))
    def test_series_estimate_counts_exponent_rounding(self, point):
        # one incomplete gamma per term rounded each term's exponent near
        # -600 uncounted, 19-29x past the estimate; the sum in units of its
        # prefactor counts that exponent's rounding once
        ev, dec = evaluate(ShuParams(*point), incmac.core.TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_T
        assert abs(ev.value - S_SERIES_EXPONENT_ROUNDING[point]) <= ev.error_estimate

    def test_negative_order_no_longer_overflows(self):
        # the K form overflowed in x**b here and fell through to the oracle;
        # the split form needs no K and returns S = 3.56e134 itself
        point = (-35.79395168877865, 1.0064666361294206e-08, 3.2557370575532046e-05)
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen is MethodTag.SERIES_SMALL_Z
        assert abs(ev.value - S_SMALL_Z_SPLIT[point]) <= ev.error_estimate

    @pytest.mark.parametrize(
        "point",
        [
            # incomplete-gamma orders a > 0 with 1.5 <= x < a + 1, where the
            # Legendre continued fraction converges falsely: the small-endpoint
            # series returned -5.2e6 +- 9e-8 here (true 9.38e11) ...
            (28.1, 7.24, 4.61),
            # ... and the small-argument series was wrong by 12 orders
            (-17.1, 8.6e-4, 1.52),
            # a falsely converged fraction made the small-argument series
            # 1.41e31 here (true 2.63e20); only a loose K error estimate kept
            # it from being returned
            (-19.373514909901388, 0.2725981487862936, 2.06339023649976),
        ],
    )
    def test_large_order_within_error_estimate_of_oracle(self, point):
        p = ShuParams(*point)
        ev, _ = evaluate(p, TIGHT)
        ref = shu_oracle(p, TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate

    @pytest.mark.parametrize(
        "point",
        [
            # every incomplete gamma of the small-endpoint series underflows
            # to 0.0 here, and the series returned 0.0 +- 0.0 for an S of
            # 3.18e-297, 1.33e-307 and 1.34e-286
            (-25.517296979498347, 45.25141063150784, 0.8655368185527998),
            (-19.02178089671522, 55.98546266713453, 1.226843953874012),
            (-29.963652409842208, 51.2832099354792, 1.1788820666918924),
        ],
    )
    def test_underflowed_gamma_factors_count_in_error(self, point):
        # an absolute target below these values, so that 0.0 is no answer;
        # the two quadrature forms agree only to the relative target here
        # (at the third point form 4 is 1.2e-13 off a 40-digit value while
        # claiming 2.8e-14), so that is allowed on top
        tol = Tolerances(abs_tol=5e-324, rel_tol=1e-12, max_depth=120)
        p = ShuParams(*point)
        ev, _ = evaluate(p, tol)
        for oracle in (shu_oracle, shu_oracle_cosh):
            ref = oracle(p, tol)
            slack = ev.error_estimate + ref.error_estimate + 1e-12 * abs(ref.value)
            assert abs(ev.value - ref.value) <= slack

    def test_large_order_large_argument_keeps_k(self):
        # e^-720 underflows, K_200(720) = 9.06e-303 does not
        ev, dec = evaluate(ShuParams(200.0, 720.0, 1e4), TIGHT)
        assert dec.chosen is MethodTag.ASYMPT_LARGE_T
        assert ev.value > 0.0
        assert abs(ev.value - K_REF[200.0, 720.0]) <= ev.error_estimate

    def test_error_estimates_calibrated_against_oracle(self):
        # every chosen path's estimate must cover the observed discrepancy
        # from a tighter oracle, and must not exceed 10x that discrepancy
        # once the oracle's own uncertainty is taken as the observation floor
        eps = 2.220446049250313e-16
        tighter = Tolerances(abs_tol=1e-300, rel_tol=1e-13, max_depth=140)
        calibration = [
            (0.0, 3.0, 100.0), (1.0, 3.0, 45.0),       # asymptotic path
            (0.5, 2.0, 1.0), (-0.5, 3.0, 3.0),         # closed form
            (1.0, 3.0, 0.2), (2.0, 8.0, 1.0),          # small-endpoint series
            (1.0, 0.5, 2.0), (0.0, 0.3, 1.0),          # small-argument series
            (0.0, 3.0, 3.0), (-2.3, 3.0, 3.0),         # the same past z = 1
            (0.0, 6.0, 3.0), (5.0, 1.0, 0.9),          # positive terms; small argument
            _ORACLE_CELL,                              # oracle fallback
        ]
        for nu, z, t in calibration:
            p = ShuParams(nu, z, t)
            ev, _ = evaluate(p, Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120))
            ref = shu_oracle(p, tighter)
            d = abs(ev.value - ref.value)
            assert d <= 10.0 * (ev.error_estimate + ref.error_estimate), (nu, z, t)
            floor = max(d, ref.error_estimate, 8.0 * eps * abs(ev.value))
            assert ev.error_estimate <= 10.0 * floor, (nu, z, t)

    @pytest.mark.parametrize(
        "point,path",
        zip(S_SMALL_Z_NEGATIVE_ORDER, ("AsymptLargeT", "AsymptLargeT", "SeriesSmallZ")),
    )
    def test_small_argument_negative_order(self, point, path):
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen.value == path
        assert abs(ev.value - S_SMALL_Z_NEGATIVE_ORDER[point]) <= ev.error_estimate


class TestLargeNegativeOrder:
    """Orders -1000 to -30, where the large-endpoint sum's first coefficient
    underflows, judged by core's certified bounds on ln S."""

    @pytest.mark.parametrize(
        "point",
        [
            (-300.0, 700.0, 30.0),
            (-837.3772207169696, 523.5929992668057, 62.56999712841974),
            # K overflows in the large-endpoint gate
            (-838.300834390878, 227.78167530322534, 33.27752554218369),
            # e^e overflows in the large-endpoint gate
            (100.0, 1e6, 30.0),
        ],
    )
    def test_underflowing_value_returned_as_flagged_zero(self, point):
        p = ShuParams(*point)
        assert _log_s_upper(p) < LOG_TINY
        ev, _ = evaluate(p, incmac.core.TIGHT)
        assert (ev.value, ev.flags) == (0.0, (FLAG_UNDERFLOW,))

    def test_overflowing_k_rejects_the_large_endpoint_candidate(self):
        _, dec = evaluate(ShuParams(-838.300834390878, 227.78167530322534, 33.27752554218369), incmac.core.TIGHT)
        assert dec.candidates_tried == ((MethodTag.ASYMPT_LARGE_T, "OVERFLOW"),)

    @pytest.mark.parametrize(
        "point",
        [
            (-54.632049038861275, 2.0178424837791248e-10, 2202.0358748852013),
            (67.35528283879992, 8.564012391050806e-08, 791.9715803358317),
        ],
    )
    def test_overflowing_k_and_s_raise_before_any_candidate(self, monkeypatch, point):
        # box-A points (random.Random(102)) where core's lower bound on ln S
        # passes ln DBL_MAX as well as K: the gate's overflow rule raises
        def runs(p, tol):
            raise AssertionError("a candidate ran")

        for name in ("asympt_large_t", "series_small_z", "series_small_t", "_closed_form_half_evaluation"):
            monkeypatch.setattr(incmac.evaluator, name, runs)
        with pytest.raises(OverflowError, match=r"ln S >= \d"):
            evaluate(ShuParams(*point), incmac.core.TIGHT)

    def test_box_values_within_core_bounds(self):
        # the first 300 points of the box with the leading large-endpoint
        # correction (1/2)(z/2)^nu t^-(nu+1) e^-t below e^-745: no value
        # above core's upper bound on S, no nonzero value below its lower
        # bound, no OverflowError where S is in range
        rng = random.Random(29)
        points = []
        while len(points) < 300:
            nu = -math.exp(rng.uniform(math.log(30.0), math.log(1000.0)))
            z = math.exp(rng.uniform(0.0, math.log(2000.0)))
            t = math.exp(rng.uniform(math.log(30.0), math.log(1000.0)))
            if nu * math.log(0.5 * z) - math.log(2.0) - t - (nu + 1.0) * math.log(t) <= -745.0:
                points.append(ShuParams(nu, z, t))
        zeros = 0
        for p in points:
            try:
                ev, _ = evaluate(p, incmac.core.TIGHT)
            except OverflowError:
                assert _log_s_upper(p) >= LOG_HUGE, p
                continue
            if ev.value == 0.0:
                zeros += 1
                continue
            assert _log_s_lower(p) <= math.log(ev.value) <= _log_s_upper(p), p
        assert 0 < zeros < len(points)


class TestClosedFormHalf:
    def test_matches_frozen_grid(self):
        for (nu, z, t), frozen in S_HALF_GRID.items():
            assert _rel(closed_form_half(ShuParams(nu, z, t)), frozen) < 1e-10

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            closed_form_half(ShuParams(1.0, 2.0, 1.0))

    def test_scaled_erfc_against_library(self):
        for x in (0.0, 0.5, 2.0, 2.4999):
            assert _rel(_erfcx(x), math.exp(x * x) * math.erfc(x)) < 1e-13

    def test_scaled_erfc_large_argument(self):
        # continued-fraction branch: against the exact product while
        # e^(x^2) is representable, then a four-term asymptotic tail
        for x in (3.0, 5.0, 8.0, 15.0):
            assert _rel(_erfcx(x), math.exp(x * x) * math.erfc(x)) < 1e-12
        x = 100.0
        asym = (1.0 - 0.5 / x**2 + 0.75 / x**4 - 1.875 / x**6) / (x * math.sqrt(math.pi))
        assert _rel(_erfcx(x), asym) < 1e-12

    def test_scaled_erfc_beyond_square_overflow(self):
        # x^2 overflows past about 1.3e154; the leading term holds there
        for x in (1e8, 1e200):
            assert math.isfinite(_erfcx(x))
            assert _rel(_erfcx(x), 1.0 / (x * math.sqrt(math.pi))) < 1e-15

    @pytest.mark.parametrize("point", [p for p in S_HIGH_PRECISION if abs(p[0]) == 0.5])
    def test_error_estimate_covers_cancellation(self, point):
        # the rounding of the exponent -z^2/4t - t (626 here) and the
        # hundredfold cancellation of the order -1/2 difference both count
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen is MethodTag.CLOSED_FORM_HALF
        assert abs(ev.value - S_HIGH_PRECISION[point]) <= ev.error_estimate

    @pytest.mark.parametrize(
        "point",
        [
            (-0.5, 8.525982261439388, 0.02481167747622604),
            (0.5, 8.525982261439388, 0.02481167747622604),
        ],
    )
    def test_subnormal_value_flushed_to_zero(self, point):
        # the closed form alone returns subnormals here (4e-323, 7e-321);
        # evaluate applies the same underflow-to-zero rule as every path
        assert 0.0 < closed_form_half(ShuParams(*point)) < 2.2250738585072014e-308
        ev, dec = evaluate(ShuParams(*point), TIGHT)
        assert dec.chosen is MethodTag.CLOSED_FORM_HALF
        assert (ev.value, ev.error_estimate, ev.flags) == (0.0, 0.0, (FLAG_UNDERFLOW,))

    def test_no_underflow_at_deep_argument(self):
        # plain e^z erfc(...) underflows around here; the scaled route holds
        v = closed_form_half(ShuParams(0.5, 100.0, 4.0))
        oracle = shu_oracle(ShuParams(0.5, 100.0, 4.0), TIGHT).value
        assert v > 0.0
        assert _rel(v, oracle) < 1e-9


class TestEvaluateGrid:
    def test_singleton_matches_evaluate(self):
        cells = evaluate_grid([0.0], [3.0], [3.0], TIGHT)
        ev, _ = evaluate(ShuParams(0.0, 3.0, 3.0), TIGHT)
        assert len(cells) == 1
        assert cells[0].evaluation.value == ev.value

    def test_cells_run_evaluate(self, monkeypatch):
        # every cell goes through the public entry, so a wrapper of
        # evaluate sees each one, in row-major order
        seen = []
        real = incmac.evaluator.evaluate

        def spy(p, tol=None):
            seen.append(tuple(p))
            return real(p, tol)

        monkeypatch.setattr(incmac.evaluator, "evaluate", spy)
        cells = evaluate_grid([0.0, -1.5], [0.5, 3.0], [0.1, 40.0])
        assert seen == [(c.order, c.argument, c.endpoint) for c in cells]

    def test_row_major_order_and_purity(self):
        cells = evaluate_grid([0.0, 1.0], [1.0, 3.0], [0.5, 2.0], TIGHT)
        assert [(c.order, c.argument, c.endpoint) for c in cells] == [
            (0.0, 1.0, 0.5), (0.0, 1.0, 2.0), (0.0, 3.0, 0.5), (0.0, 3.0, 2.0),
            (1.0, 1.0, 0.5), (1.0, 1.0, 2.0), (1.0, 3.0, 0.5), (1.0, 3.0, 2.0),
        ]
        swapped = evaluate_grid([1.0, 0.0], [1.0, 3.0], [0.5, 2.0], TIGHT)
        assert [c.evaluation.value for c in swapped[:4]] == [
            c.evaluation.value for c in cells[4:]
        ]

    def test_bad_cell_never_aborts_sweep(self):
        cells = evaluate_grid([0.0], [-1.0, 3.0], [2.0], TIGHT)
        assert cells[0].evaluation is None
        assert "DomainError" in cells[0].error
        assert cells[1].evaluation is not None

    @pytest.mark.parametrize(
        "grid, error",
        [
            (([math.nan], [3.0], [2.0]), "DomainError: order=nan: must be finite"),
            (([True], [3.0], [2.0]), "DomainError: order=True: must be a real number"),
            (([math.inf], [-1.0], [2.0]), "DomainError: order=inf: must be finite"),
            (([0.0], [-1.0], [2.0]), "DomainError: argument=-1.0: must be strictly positive"),
            (([0.0], [0], [2.0]), "DomainError: argument=0.0: must be strictly positive"),
            (([0.0], [math.inf], [2.0]), "DomainError: argument=inf: must be finite"),
            (([0.0], ["3"], [2.0]), "DomainError: argument='3': must be a real number"),
            (([0.0], [3.0], [-0.0]), "DomainError: endpoint=-0.0: must be strictly positive"),
        ],
    )
    def test_bad_cell_error_text(self, grid, error):
        (cell,) = evaluate_grid(*grid, TIGHT)
        assert (cell.evaluation, cell.decision, cell.error) == (None, None, error)

    def test_mixed_grid_equals_pointwise(self):
        # every candidate, the oracle, rejections by the large-endpoint gate
        # and by Evaluation.rejection, a bad z and a subnormal z: each cell,
        # work, flags and candidates tried included, is what evaluate returns
        # or raises called alone, outside any shared_work block
        nu, z, t = _ORACLE_CELL
        orders = [-2.3, nu, -1.0, -0.5, 0.5, 1.7]
        zs = [1e-3, z, 0.7, 3.0, 20.0, -1.0, 1e-310]
        ts = [t, 0.02, 0.3, 2.0, 12.0, 35.0, 60.0]
        cells = evaluate_grid(orders, zs, ts, TIGHT)
        assert len(cells) == len(orders) * len(zs) * len(ts)
        chosen = {c.decision.chosen for c in cells if c.decision}
        assert chosen == set(MethodTag) - {MethodTag.ORACLE2, MethodTag.ORACLE4}
        tried = {reason for c in cells if c.decision for _, reason in c.decision.candidates_tried}
        assert {"CORRECTION_TOO_LARGE", "TAIL_TOO_LARGE"} <= tried
        assert {c.error.split(":")[0] for c in cells if c.error} == {"DomainError", "NonConvergence", "OverflowError"}
        for c in cells:
            try:
                want = evaluate(ShuParams(c.order, c.argument, c.endpoint), TIGHT) + (None,)
            except (DomainError, NonConvergence, OverflowError) as exc:
                want = (None, None, f"{type(exc).__name__}: {exc}")
            assert (c.evaluation, c.decision, c.error) == want, c

    def test_subnormal_argument_never_aborts_sweep(self):
        cells = evaluate_grid([0.0], [5e-324, 1.0], [1.0])
        assert [c.error for c in cells] == [None, None]
        for c in cells:
            assert (c.evaluation, c.decision) == evaluate(ShuParams(c.order, c.argument, c.endpoint))

    def test_oracle_y_peak_rounding_to_zero_marks_its_cell(self):
        # every candidate misses a target of 1e-300, and the oracle, whose
        # y-form peak's difference rounds to 0 here, raises a typed error:
        # the cell carries it and the sweep goes on
        point = (-2.2702682736949162, 3.871475586787759e-111, 4.93478507261935e+102)
        tol = Tolerances(abs_tol=1e-300, rel_tol=0.0)
        cells = evaluate_grid([point[0]], [point[1], 3.0], [point[2]], tol)
        assert cells[0].evaluation is None
        assert cells[0].error.startswith("NonConvergence: ")
        assert [c.argument for c in cells] == [point[1], 3.0]

    def test_underflowing_z_over_2t_marks_its_cell(self):
        # z/2t underflows to 0 at the first cell, where the K form of the
        # small-argument series and the cosh form of the oracle take its
        # log from z and t: the point raises a typed error, the cell
        # carries it and the sweep finishes the other cell
        tol = Tolerances(abs_tol=1e-300, rel_tol=0.0)
        cells = evaluate_grid([0.5], [1e-160, 1.0], [1e300], tol)
        assert [c.argument for c in cells] == [1e-160, 1.0]
        assert cells[0].error.startswith("NonConvergence: ")
        for c in cells:
            assert (c.evaluation, c.decision, c.error) == _pointwise(c.order, c.argument, c.endpoint, tol)

    def test_figure_one_columns_monotone_and_bounded(self):
        ts = [0.05 * (20.0 / 0.05) ** (i / 19) for i in range(20)]
        for nu in (0.0, 3.0):
            kval = macdonald_k(nu, 3.0)
            cells = evaluate_grid([nu], [3.0], ts, TIGHT)
            values = [c.evaluation.value for c in cells]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v < kval for v in values)


def test_wide_box_zero_exactly_when_flagged():
    # S > 0 on the whole domain, so every path returns a normal double or
    # the underflow rule's flagged 0.0 +- 0: never subnormal noise, and
    # never an unflagged 0.0 +- 0
    rng = random.Random(10)
    calls = (
        lambda p: evaluate(p, TIGHT)[0],
        lambda p: incmac.expansions.series_small_t(p, TIGHT),
        lambda p: incmac.expansions._alternating_small_t(p, TIGHT),
        lambda p: incmac.expansions.series_small_z(p, TIGHT),
        lambda p: incmac.expansions.asympt_large_t(p, TIGHT),
        lambda p: shu_oracle(p, TIGHT, 2),
        lambda p: shu_oracle(p, TIGHT, 4),
        lambda p: shu_oracle(p, TIGHT, 5),
    )
    for _ in range(300):
        p = ShuParams(
            rng.uniform(-30.0, 30.0),
            math.exp(rng.uniform(math.log(1e-6), math.log(3e3))),
            math.exp(rng.uniform(math.log(1e-4), math.log(3e3))),
        )
        for call in calls:
            try:
                ev = call(p)
            except (ArithmeticError, ValueError):
                continue
            assert not 0.0 < abs(ev.value) < 2.2250738585072014e-308, (p, ev)
            assert ((ev.value, ev.error_estimate) == (0.0, 0.0)) == (FLAG_UNDERFLOW in ev.flags), (p, ev)


def _wide_box(rng, n, nu_hi, z_hi):
    return [
        ShuParams(
            rng.uniform(-30.0, nu_hi),
            math.exp(rng.uniform(math.log(1e-6), math.log(z_hi))),
            math.exp(rng.uniform(math.log(1e-4), math.log(3e3))),
        )
        for _ in range(n)
    ]


def test_wide_box_differential():
    # 200 points over the whole box and 60 at negative order and z <= 1,
    # where the split form of the small-argument series runs: the two
    # reference forms agree within their joint error, and evaluate agrees
    # with each within its estimate plus the reference's
    rng = random.Random(11)
    points = _wide_box(rng, 200, 30.0, 3e3) + _wide_box(rng, 60, 0.0, 1.0)
    split = 0
    for p in points:
        ev, dec = evaluate(p, TIGHT)
        refs = r5, r4 = shu_oracle(p, TIGHT), shu_oracle_cosh(p, TIGHT)
        assert abs(r5.value - r4.value) <= r5.error_estimate + r4.error_estimate, p
        for ref in refs:
            assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, (p, ref.method)
        split += dec.chosen is MethodTag.SERIES_SMALL_Z and p.order < 0.0
    assert split >= 40


def test_negative_order_small_argument_stays_off_the_oracle():
    # work-count guard: 100 seeded points with nu in [-30, 0), z in [1e-6, 1],
    # t in [1e-4, 30] and z^2/4t < 2.  The split form takes all of them; with
    # the K form 82 fell through to the quadrature oracle
    rng = random.Random(7)
    fallbacks = 0
    points = 0
    while points < 100:
        nu = rng.uniform(-30.0, 0.0)
        z = math.exp(rng.uniform(math.log(1e-6), 0.0))
        t = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
        if 0.25 * z * z / t >= 2.0:
            continue
        points += 1
        fallbacks += evaluate(ShuParams(nu, z, t), TIGHT)[1].chosen is MethodTag.ORACLE5
    assert fallbacks == 0


@pytest.mark.parametrize("nu", [-1.0, -2.0, -3.0])
def test_negative_integer_order_small_argument_stays_off_the_oracle(nu):
    # 150 seeded draws with z in [1e-6, 1], t in [1e-4, 30], of which those
    # with z^2/4t < 2: the split form needs a non-integer order and K ~ z^nu
    # swamps S, so the small-argument series often misses; the
    # small-endpoint row takes every such point, most by its alternating
    # sum after the positive-term sum misses.  51, 73 and 82 of the 138
    # went to the oracle while that row was the positive-term sum alone
    rng = random.Random(3)
    for _ in range(150):
        z = math.exp(rng.uniform(math.log(1e-6), 0.0))
        t = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
        if 0.25 * z * z / t >= 2.0:
            continue
        p = ShuParams(nu, z, t)
        ev, dec = evaluate(p, incmac.core.TIGHT)
        assert dec.chosen is not MethodTag.ORACLE5, p
        ref = shu_oracle_cosh(p, incmac.core.TIGHT)
        assert abs(ev.value - ref.value) <= ev.error_estimate + ref.error_estimate, p


def _block_points(rng, n):
    """n seeded points of the transition block z > 1, t < 30, z^2/4t < 2,
    with nu uniform on [-25, 25], z log-uniform on (1, 15.5) and t
    log-uniform on [1e-4, 30)."""
    points = []
    while len(points) < n:
        nu = rng.uniform(-25.0, 25.0)
        z = math.exp(rng.uniform(0.0, math.log(15.5)))
        t = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
        if 0.25 * z * z / t < 2.0:
            points.append(ShuParams(nu, z, t))
    return points


def test_transition_block_differential():
    # every value returned in the block agrees with both quadrature forms
    # under the benchmark's rule: within 10 times its estimate plus the
    # reference's estimate and 1e-12 relative.  Half the orders are
    # negative non-integers, where the K form and the split form share
    # the block
    rng = random.Random(16)
    points = _block_points(rng, 150)
    assert sum(p.order < 0.0 for p in points) >= 60
    series = 0
    for p in points:
        ev, dec = evaluate(p, TIGHT)
        for ref in (shu_oracle(p, TIGHT), shu_oracle_cosh(p, TIGHT)):
            slack = 10.0 * ev.error_estimate + ref.error_estimate + 1e-12 * abs(ref.value)
            assert abs(ev.value - ref.value) <= slack, (p, dec.chosen, ref.method)
        series += dec.chosen is MethodTag.SERIES_SMALL_Z
    assert series >= 0.8 * len(points)


def test_large_endpoint_differential():
    # 300 seeded points with t log-uniform on [30, 3e3], |nu| <= 30 and z
    # log-uniform on [1e-6, 3e3]: every value the large-endpoint sum
    # returns, at three targets, agrees with both quadrature forms at the
    # tight target under the benchmark's rule.  Its sum stops against K
    # minus its partial sum, earliest at the loosest target
    rng = random.Random(17)
    tols = (
        incmac.core.TIGHT,
        incmac.core.DEFAULT_TOLERANCES,
        Tolerances(abs_tol=5e-324, rel_tol=1e-8, max_depth=120),
    )
    taken = [0] * len(tols)
    for _ in range(300):
        p = ShuParams(
            rng.uniform(-30.0, 30.0),
            math.exp(rng.uniform(math.log(1e-6), math.log(3e3))),
            math.exp(rng.uniform(math.log(30.0), math.log(3e3))),
        )
        refs = None
        for i, tol in enumerate(tols):
            ev, dec = evaluate(p, tol)
            if dec.chosen is not MethodTag.ASYMPT_LARGE_T:
                continue
            taken[i] += 1
            refs = refs or (shu_oracle(p, incmac.core.TIGHT), shu_oracle_cosh(p, incmac.core.TIGHT))
            for ref in refs:
                slack = 10.0 * ev.error_estimate + ref.error_estimate + 1e-12 * abs(ref.value)
                assert abs(ev.value - ref.value) <= slack, (p, tol, ref.method)
    assert min(taken) >= 200


def _small_endpoint_row(p, tol):
    # what the small-endpoint row should return: of the positive-term sum
    # and the alternating sum, the alternating first above nu = x0 + 1, the
    # first that meets the target, else the second; and whether the second
    # was taken
    forms = [incmac.expansions._tricomi_small_t, incmac.expansions._alternating_small_t]
    if p.order > 0.25 * p.argument * p.argument / p.endpoint + 1.0:
        forms.reverse()
    try:
        ev = forms[0](p, tol)
    except (NonConvergence, OverflowError):
        ev = None
    if ev is not None and ev.rejection(tol) is None:
        return ev, False
    return forms[1](p, tol), True


def test_small_endpoint_row_falls_back_to_its_second_sum():
    # 400 seeded points of the wide box with z^2/4t >= 2, at three targets:
    # wherever evaluate takes the small-endpoint row first, it returns its
    # first sum where that meets the target and its second otherwise, and
    # a chosen tag is never among the rejected.  The fallback must fire, or
    # this shows nothing
    rng = random.Random(18)
    tols = (
        incmac.core.TIGHT,
        incmac.core.DEFAULT_TOLERANCES,
        Tolerances(abs_tol=5e-324, rel_tol=1e-8, max_depth=120),
    )
    points = [p for p in _wide_box(rng, 1500, 30.0, 3e3) if 0.25 * p.argument * p.argument / p.endpoint >= 2.0]
    assert len(points) >= 400
    fallbacks = 0
    for p in points[:400]:
        for tol in tols:
            ev, dec = evaluate(p, tol)
            assert dec.chosen not in [tag for tag, _ in dec.candidates_tried], (p, tol)
            if dec.chosen is MethodTag.SERIES_SMALL_T and not dec.candidates_tried:
                want, fell_back = _small_endpoint_row(p, tol)
                assert ev == want, (p, tol)
                fallbacks += fell_back
    assert fallbacks >= 1
    # at order 28.102, above x0 + 1 = 3.72, the alternating sum runs first
    # and meets the target
    p = ShuParams(28.102, 6.969, 4.465)
    ev, dec = evaluate(p, incmac.core.TIGHT)
    assert dec == (MethodTag.SERIES_SMALL_T, "SMALL_T_CONVERGED", ())
    assert _small_endpoint_row(p, incmac.core.TIGHT) == (ev, False)
    assert ev == incmac.expansions._alternating_small_t(p, incmac.core.TIGHT)


def _ladder(lo, hi, n, phase):
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + phase) / n) for i in range(n)]


def test_each_public_function_is_the_candidate_evaluate_runs():
    # the benchmark's grid-table seed-1 grid (six seeded orders and +-1/2,
    # 12 z, 20 t) and its first 300 scatter-wide seed-1 points, at the tight
    # target: wherever evaluate returns a series or the large-endpoint sum,
    # the public function of that method returns the identical Evaluation,
    # so that incmac eval --method shows what evaluate reports under its
    # tag.  series_small_t, when it was the alternating sum alone, did so
    # at 75 of the 7,228 small-endpoint points of the benchmark's grids
    rng = random.Random(1)
    orders = sorted([-4.0 + 8.0 / 6 * (k + 0.25 + 0.5 * rng.random()) for k in range(6)] + [-0.5, 0.5])
    zs = _ladder(0.01, 20.0, 12, 0.25 + 0.5 * rng.random())
    ts = _ladder(0.02, 100.0, 20, 0.25 + 0.5 * rng.random())
    points = [ShuParams(nu, z, t) for nu in orders for z in zs for t in ts]
    points += _wide_box(random.Random(1), 300, 30.0, 3e3)
    public = {
        MethodTag.SERIES_SMALL_T: incmac.expansions.series_small_t,
        MethodTag.SERIES_SMALL_Z: incmac.expansions.series_small_z,
        MethodTag.ASYMPT_LARGE_T: incmac.expansions.asympt_large_t,
    }
    taken = dict.fromkeys(public, 0)
    for p in points:
        ev, dec = evaluate(p, incmac.core.TIGHT)
        if dec.chosen in public:
            assert public[dec.chosen](p, incmac.core.TIGHT) == ev, (p, dec)
            taken[dec.chosen] += 1
    assert min(taken.values()) >= 100, taken


class TestTypedErrorsAtExtremePoints:
    @pytest.mark.parametrize(
        "point",
        [
            # a + 0.5 rounds to even at this odd order in [2^52, 2^53), and
            # K's split left mu = -1, where Temme's series divides by 0
            (7332089645225821.0, 1.210441590872863e-137, 2.0270014274809116e+56),
            # max(x0, y*) is subnormal, so a quarter of it rounded to 0
            (-8290637012635042.0, 5.4871379322397784e-154, 9.633186336726054e+301),
            # max(x0, y*) rounds to 0, and core had no lower bound on ln S
            (-1e17, 3e-154, 1e300),
        ],
    )
    def test_extreme_orders_overflow(self, point):
        with pytest.raises(OverflowError, match=r"ln S >= \d"):
            evaluate(ShuParams(*point), incmac.core.TIGHT)

    def test_k_at_odd_order_past_2_to_52_overflows(self):
        with pytest.raises(OverflowError, match="exceeds the double range"):
            macdonald_k(7332089645225821.0, 1.210441590872863e-137)

    def test_form_five_node_at_y_zero(self):
        # z^2/4 is subnormal and x0 is 0, so a node's y rounds to 0; S is
        # about K ~ 1e4578 (ln K = 10540.3), so evaluate's overflow rule
        # raises before form 5, with the endpoint form's bound on ln S
        p = ShuParams(-28.259686302983116, 2.053303216910036e-161, 1.8648865660673147e+287)
        with pytest.raises(NonConvergence, match="a form-5 node reaches y = 0"):
            shu_oracle(p, incmac.core.TIGHT)
        with pytest.raises(OverflowError, match="ln S >= 10520.5 > ln DBL_MAX"):
            evaluate(p, incmac.core.TIGHT)

    @pytest.mark.parametrize("nu,z", [(1.7, 5e-300), (1.7, 1e-200)])
    def test_overflow_where_z2_over_4_underflows(self, nu, z):
        # S ~ (2/z)^1.7 Gamma(1.7)/2 passes the double range; with no lower
        # bound on ln S where z^2/4 is subnormal, the oracle's "z^2/4
        # underflows to 0" NonConvergence was raised instead
        with pytest.raises(OverflowError, match=r"ln S >= [0-9.]+ > ln DBL_MAX"):
            evaluate(ShuParams(nu, z, 1.0), incmac.core.TIGHT)

    @pytest.mark.parametrize("nu", [-2.3, -1.99, -1.0])
    def test_overflow_at_negative_order_where_z2_over_4_underflows(self, nu):
        # S ~ (1/2)(z/2)^nu Gamma(-nu) passes the double range (ln S about
        # 1643, 1421 and 714); with TINY standing in for z^2/4 the y-form
        # bound read ln S >= -16.9 at order -2.3, and the oracle's "z^2/4
        # underflows to 0" NonConvergence was raised instead
        with pytest.raises(OverflowError, match=r"ln S >= [0-9.]+ > ln DBL_MAX"):
            evaluate(ShuParams(nu, 1e-310, 60.0), incmac.core.TIGHT)

    def test_no_overflow_where_s_is_in_range(self):
        # S is about 3.96e297 here, so the endpoint form's bound stays below
        # ln DBL_MAX and no OverflowError may be raised; no form returns
        # this value yet, so the oracle's NonConvergence still may be
        try:
            evaluate(ShuParams(-1.0, 5e-300, 0.02), incmac.core.TIGHT)
        except NonConvergence:
            pass

    def test_in_range_value_where_z2_over_4_underflows(self):
        ev, dec = evaluate(ShuParams(0.3, 5e-300, 1.0), incmac.core.TIGHT)
        assert (ev.value, dec.chosen) == (1.1362843472958225e+90, MethodTag.SERIES_SMALL_Z)

    def test_subnormal_argument_box(self):
        # 3,000 seeded points with z^2/4 subnormal or near it: evaluate and
        # form 5 return or raise NonConvergence or OverflowError; 16 and 19
        # of them raised ValueError from log(0)
        rng = random.Random(5)
        for _ in range(3000):
            nu = rng.uniform(-30.0, 30.0)
            z = math.exp(rng.uniform(math.log(1e-170), math.log(1e-150)))
            t = math.exp(rng.uniform(math.log(1e-8), math.log(1e305)))
            p = ShuParams(nu, z, t)
            for call in (evaluate, shu_oracle):
                try:
                    call(p, incmac.core.TIGHT)
                except (NonConvergence, OverflowError):
                    pass


def test_scatter_wide_takes_few_gamma_orders(monkeypatch):
    # work guard, no timing: the incomplete-gamma orders the series take
    # over scatter-wide's seed-1 points; 10,463 with the alternating
    # small-endpoint sum first everywhere, 5,240 with the positive-term
    # sum, which takes none, first up to nu = x0 + 1: the alternating sum
    # runs at 30 calls
    taken = 0

    def counted(orders):
        def wrapper(*args):
            nonlocal taken
            for item in orders(*args):
                taken += 1
                yield item

        return wrapper

    for name in ("_upper_gamma_orders", "_lower_gamma_orders"):
        monkeypatch.setattr(incmac.expansions, name, counted(getattr(incmac.expansions, name)))
    for p in _wide_box(random.Random(1), 2000, 30.0, 3e3):  # scatter-wide's seed 1
        try:
            evaluate(p, incmac.core.TIGHT)
        except (ArithmeticError, ValueError):
            pass
    assert taken <= 6000


# grid-table's seed-1 sweep: 8 orders x 12 z x 20 t
_GRID_TABLE_SEED_1 = (
    [-3.577090503925066, -1.7683775087085118, -0.5, -0.4908169206822577,
     0.5, 0.5033793504929474, 1.9969567247279603, 3.2996607098591584],
    [0.014401026716190559, 0.027131842607373037, 0.05111697226723776,
     0.09630546998158877, 0.18144156699826938, 0.3418397962346389,
     0.6440334936638533, 1.2133728884982256, 2.286020495870304,
     4.3069115496779595, 8.114313555044259, 15.287540435906578],
    [0.026315021013746685, 0.04028582124602968, 0.061673801917894976,
     0.09441678797556124, 0.1445432189098673, 0.22128206837785758,
     0.3387620267133829, 0.5186127894782554, 0.7939473854841949,
     1.2154587463054034, 1.8607529805886782, 2.8486377388736694,
     4.360996355769948, 6.676275103537186, 10.220749026569875,
     15.647005110496853, 23.954092629753195, 36.67146202501464,
     56.14055801812046, 85.9459121765052],
)


def test_grid_table_stays_off_the_oracle():
    # work-count guard, no timing: with the small-argument series stopped
    # at z = 1, 235 of these 1,920 cells fell through to the quadrature
    # oracle, 180 of them in z > 1, t < 30, z^2/4t < 2; with the series
    # run there, 60, 46 of them at z^2/4t >= 2; with the small-endpoint
    # series also summed in positive terms, none
    cells = evaluate_grid(*_GRID_TABLE_SEED_1, incmac.core.TIGHT)
    assert all(c.evaluation is not None for c in cells)
    assert sum(c.decision.chosen is MethodTag.ORACLE5 for c in cells) <= 5


def test_grid_table_large_t_work():
    # work-count guard, no timing: the large-endpoint cells of this sweep
    # took 384 terms of the K form in all, stopped against K; the former
    # asymptotic double sum reported 4,725, K's own work with its inner
    # sums' terms
    cells = evaluate_grid(*_GRID_TABLE_SEED_1, incmac.core.TIGHT)
    large = [c.evaluation.work for c in cells if c.decision.chosen is MethodTag.ASYMPT_LARGE_T]
    assert len(large) >= 250
    assert sum(large) <= 500


def test_grid_table_builds_each_legendre_block_once(monkeypatch):
    # work-count guard, no timing: the sweep shares each Legendre-anchored
    # block of incomplete-gamma orders, the fraction and the upward run
    # from it, by (order, endpoint, block): 60 blocks and 4 one-order
    # anchors of all-downward runs, where the cells' own upward runs from
    # shared fractions made 443
    gamma_module = importlib.import_module("incmac.gamma")
    builds = []
    real = gamma_module._legendre_block

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(gamma_module, "_legendre_block", counted)
    evaluate_grid(*_GRID_TABLE_SEED_1, incmac.core.TIGHT)
    assert len(set(builds)) == len(builds) <= 64
    assert sum(a0 >= 1.0 - x for a0, x, _, _ in builds) <= 60


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_grid_table_seed_1_outputs_frozen():
    cells = evaluate_grid(*_GRID_TABLE_SEED_1, incmac.core.TIGHT)
    paths = [c.decision.chosen.value if c.error is None else c.error.split(":")[0] for c in cells]
    assert Counter(paths) == GRID_TABLE_SEED_1_PATHS
    assert _digest(map(repr, cells)) == GRID_TABLE_SEED_1_DIGEST


def test_scatter_wide_seed_1_outputs_frozen():
    lines, paths = [], []
    for p in _wide_box(random.Random(1), 2000, 30.0, 3e3):  # scatter-wide's seed 1
        try:
            out = evaluate(p, incmac.core.TIGHT)
        except (ArithmeticError, ValueError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
            paths.append(type(exc).__name__)
        else:
            lines.append(repr(out))
            paths.append(out[1].chosen.value)
    assert Counter(paths) == SCATTER_WIDE_SEED_1_PATHS
    assert _digest(lines) == SCATTER_WIDE_SEED_1_DIGEST


def test_one_off_evaluate_adds_no_shared_lookups(monkeypatch):
    # work-count guard, no timing: a generator start makes one core.shared
    # lookup per block, of the block where it was of its fraction, so
    # scatter-wide's first 200 seed-1 points make 267 lookups
    lookups = 0
    real = incmac.core.shared

    def counted(fn, *args):
        nonlocal lookups
        lookups += 1
        return real(fn, *args)

    for name in ("gamma", "expansions", "evaluator", "relations", "cli"):
        monkeypatch.setattr(importlib.import_module(f"incmac.{name}"), "shared", counted)
    for p in _wide_box(random.Random(1), 2000, 30.0, 3e3)[:200]:  # scatter-wide's seed 1
        try:
            evaluate(p, incmac.core.TIGHT)
        except (ArithmeticError, ValueError):
            pass
    assert lookups == 267


def _count_k(monkeypatch, fail_at=None):
    """Count K evaluations by (order, argument) through every binding the
    evaluator, the expansions and the CLI use; optionally make one pair raise."""
    calls = []
    real = incmac.evaluator._macdonald_k_eval

    def counted(order, z):
        calls.append((order, z))
        if (order, z) == fail_at:
            raise NonConvergence("forced K failure")
        return real(order, z)

    monkeypatch.setattr(incmac.evaluator, "_macdonald_k_eval", counted)
    monkeypatch.setattr(incmac.expansions, "_macdonald_k_eval", counted)
    monkeypatch.setattr(incmac.cli, "_macdonald_k_eval", counted)
    return calls


def _pointwise(nu, z, t, tol=TIGHT):
    try:
        ev, dec = evaluate(ShuParams(nu, z, t), tol)
    except NonConvergence as exc:
        return None, None, f"NonConvergence: {exc}"
    return ev, dec, None


# every path: Oracle5 _ORACLE_CELL, SeriesSmallT (1, 3, 0.2) and (0, 6, 3),
# SeriesSmallZ (1, 0.5, 2) and (0, 3, 3), AsymptLargeT (0, 3, 100),
# ClosedFormHalf (0.5, *, *)
_PATH_GRID = (
    [_ORACLE_CELL[0], 0.0, 0.5, 1.0],
    [0.5, _ORACLE_CELL[1], 3.0, 6.0],
    [0.02, 0.2, _ORACLE_CELL[2], 2.0, 3.0, 100.0],
)


class TestKReuse:
    def test_grid_computes_k_once_per_pair(self, monkeypatch):
        calls = _count_k(monkeypatch)
        orders, zs, ts = _PATH_GRID
        evaluate_grid(orders, zs, ts, TIGHT)
        assert len(calls) == len(set(calls))
        assert len(calls) <= len(orders) * len(zs)

    def test_large_endpoint_evaluate_computes_k_once(self, monkeypatch):
        calls = _count_k(monkeypatch)
        _, dec = evaluate(ShuParams(0.0, 3.0, 100.0), TIGHT)
        assert dec.chosen is MethodTag.ASYMPT_LARGE_T
        assert calls == [(0.0, 3.0)]

    def test_successive_evaluate_calls_compute_k_again(self, monkeypatch):
        # work is shared within one call, never across calls
        calls = _count_k(monkeypatch)
        first = evaluate(ShuParams(0.0, 3.0, 100.0), TIGHT)
        assert evaluate(ShuParams(0.0, 3.0, 100.0), TIGHT) == first
        assert calls == [(0.0, 3.0), (0.0, 3.0)]

    def test_repeated_grid_cell_integrates_oracle_per_cell(self, monkeypatch):
        # the oracle is not shared, since no workload asks twice for one
        # value: a repeated cell integrates again, to the same value
        counts = []
        real = incmac.quadrature._oracle

        def counted(p, tol, form):
            counts.append(p)
            return real(p, tol, form)

        monkeypatch.setattr(incmac.quadrature, "_oracle", counted)
        nu, z, t = _ORACLE_CELL
        cells = evaluate_grid([nu], [z], [t, t], TIGHT)  # Oracle5 path
        assert counts == [ShuParams(nu, z, t)] * 2
        assert cells[0].evaluation == cells[1].evaluation
        assert cells[0].decision.chosen is MethodTag.ORACLE5

    def test_figure_sweep_computes_k_once_per_order(self, monkeypatch):
        # the large-endpoint overlay reads the sweep's K too: rows below
        # t = 30 never ask evaluate for K, so the overlay computes it first
        calls = _count_k(monkeypatch)
        rows = _figure_rows(5, [0.0, 1.0, 2.0, 3.0], 8, TIGHT)  # endpoint sweep at z = 3
        assert sorted(calls) == [(0.0, 3.0), (1.0, 3.0), (2.0, 3.0), (3.0, 3.0)]
        kvals = [macdonald_k(o, 3.0) for o in (0.0, 1.0, 2.0, 3.0)]
        for row in rows[1:]:
            assert [float(x) for x in row[2::2]] == kvals

    def test_grid_cells_equal_pointwise_evaluate(self):
        cells = evaluate_grid(*_PATH_GRID, TIGHT)
        assert {c.decision.chosen for c in cells} == {
            MethodTag.ORACLE5,
            MethodTag.SERIES_SMALL_T,
            MethodTag.SERIES_SMALL_Z,
            MethodTag.ASYMPT_LARGE_T,
            MethodTag.CLOSED_FORM_HALF,
        }
        for c in cells:
            assert (c.evaluation, c.decision, c.error) == _pointwise(
                c.order, c.argument, c.endpoint
            )

    def test_failing_k_fails_the_same_cells_as_pointwise(self, monkeypatch):
        # at (1, 0.5) the large-t gate raises, the small-z series is
        # rejected and falls through to the oracle, and the small-t series
        # never asks for K; a raise is not cached, so every cell that needs
        # K tries again
        calls = _count_k(monkeypatch, fail_at=(1.0, 0.5))
        cells = evaluate_grid(*_PATH_GRID, TIGHT)
        assert calls.count((1.0, 0.5)) >= 2
        assert any(c.error for c in cells)
        assert any(
            (MethodTag.SERIES_SMALL_Z, "NON_CONVERGENCE") in c.decision.candidates_tried
            for c in cells
            if c.decision
        )
        for c in cells:
            assert (c.evaluation, c.decision, c.error) == _pointwise(
                c.order, c.argument, c.endpoint
            )


# the small-argument series at every form: the split form at z <= 1, both
# forms past z = 1, the K form at order >= 0; endpoints on both sides of
# 1.5, where the incomplete-gamma anchors switch from the Kummer sum or E1
# to the Legendre fraction
_SMALL_Z_GRID = ([-2.6, -0.4, 1.0], [0.3, 0.9, 3.0], [0.2, 1.0, 2.0, 6.0])


class TestSeriesReuse:
    def test_grid_takes_each_kummer_sum_and_i_series_once(self, monkeypatch):
        # work guard, no timing: unshared, grid-table's seed-1 sweep took 610
        # Kummer sums and 364 I series; shared, at most one per (order,
        # endpoint) and one per (order, argument) that needs it
        gamma_module = importlib.import_module("incmac.gamma")
        kummer, i_series = [], []
        real_kummer, real_i = gamma_module._kummer_sum, incmac.expansions._bessel_i_series

        def counted_kummer(a, x):
            kummer.append((a, x))
            return real_kummer(a, x)

        def counted_i(m, z):
            i_series.append((m, z))
            return real_i(m, z)

        monkeypatch.setattr(gamma_module, "_kummer_sum", counted_kummer)
        monkeypatch.setattr(incmac.expansions, "_bessel_i_series", counted_i)
        orders, zs, ts = _GRID_TABLE_SEED_1
        evaluate_grid(orders, zs, ts, incmac.core.TIGHT)
        assert len(kummer) == len(set(kummer)) <= 100
        # at endpoints for the small-argument series, and at z^2/4t below 1.5
        # for h_0 of the small-endpoint series in positive terms
        assert {x for _, x in kummer} <= set(ts) | {0.25 * z * z / t for z in zs for t in ts}
        assert len(i_series) == len(set(i_series)) <= 30
        assert {(-m, z) for m, z in i_series} <= {(nu, z) for nu in orders for z in zs}

    def test_grid_cells_equal_pointwise_across_both_forms(self, monkeypatch):
        endpoints = {"split": set(), "k": set()}
        for name, key in (("_split_small_z", "split"), ("_k_form", "k")):
            real = getattr(incmac.expansions, name)

            def counted(nu, z, t, tol, real=real, key=key):
                endpoints[key].add(t >= 1.5)
                return real(nu, z, t, tol)

            monkeypatch.setattr(incmac.expansions, name, counted)
        cells = evaluate_grid(*_SMALL_Z_GRID, TIGHT)
        assert endpoints == {"split": {False, True}, "k": {False, True}}
        for c in cells:
            assert (c.evaluation, c.decision, c.error) == _pointwise(c.order, c.argument, c.endpoint)

    def test_failing_kummer_sum_fails_the_same_cells_as_pointwise(self, monkeypatch):
        # the split form at order -2.6 and endpoint 1 steps down from this
        # sum; a raise is not cached, so every cell that needs it tries again
        gamma_module = importlib.import_module("incmac.gamma")
        calls = []
        real = gamma_module._kummer_sum

        def failing(a, x):
            calls.append((a, x))
            if (a, x) == (2.6, 1.0):
                raise NonConvergence("forced Kummer failure")
            return real(a, x)

        monkeypatch.setattr(gamma_module, "_kummer_sum", failing)
        cells = evaluate_grid(*_SMALL_Z_GRID, TIGHT)
        assert calls.count((2.6, 1.0)) >= 2
        assert any(
            (MethodTag.SERIES_SMALL_Z, "NON_CONVERGENCE") in c.decision.candidates_tried
            for c in cells
            if c.decision
        )
        for c in cells:
            assert (c.evaluation, c.decision, c.error) == _pointwise(c.order, c.argument, c.endpoint)
