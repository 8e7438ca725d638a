import math
import random

import pytest

import incmac.evaluator
import incmac.expansions
from incmac.cli import _figure_rows
from incmac.core import FLAG_UNDERFLOW, DomainError, MethodTag, NonConvergence, ShuParams, Tolerances
from incmac.evaluator import (
    RegimeThresholds,
    _erfcx,
    closed_form_half,
    evaluate,
    evaluate_grid,
)
from incmac.gamma import macdonald_k
from incmac.quadrature import shu_oracle, shu_oracle_cosh

from frozen import S0_3_3, S_HALF_GRID

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


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

    def test_fallback_oracle(self):
        ev, dec = evaluate(ShuParams(0.0, 3.0, 3.0), TIGHT)
        assert dec.chosen is MethodTag.ORACLE5
        assert dec.reason == "FALLBACK_ORACLE"
        assert _rel(ev.value, S0_3_3) < 1e-9

    def test_large_t_rejected_when_correction_visible(self):
        # K(20) ~ 5.7e-10 makes the relative target smaller than the
        # correction, so the asymptotic path must step aside
        ev, dec = evaluate(ShuParams(0.0, 20.0, 30.0), TIGHT)
        assert (MethodTag.ASYMPT_LARGE_T, "CORRECTION_TOO_LARGE") in dec.candidates_tried
        assert dec.chosen is not MethodTag.ASYMPT_LARGE_T

    def test_chosen_never_among_rejections(self):
        for args in ((0.0, 3.0, 100.0), (1.0, 3.0, 0.2), (0.0, 3.0, 3.0), (0.0, 20.0, 30.0)):
            _, dec = evaluate(ShuParams(*args), TIGHT)
            assert all(tag is not dec.chosen for tag, _ in dec.candidates_tried)

    def test_deterministic(self):
        a = evaluate(ShuParams(0.5, 3.0, 0.4), TIGHT)
        b = evaluate(ShuParams(0.5, 3.0, 0.4), TIGHT)
        assert a == b

    def test_never_returns_leading_approximant(self):
        leading = {
            MethodTag.LEADING_SMALL_T,
            MethodTag.LEADING_SMALL_Z,
            MethodTag.LEADING_LARGE_T,
            MethodTag.LEADING_LARGE_Z,
        }
        for nu in (-1.0, 0.0, 0.5, 2.0):
            for z in (0.3, 3.0, 15.0):
                for t in (0.05, 2.0, 50.0):
                    ev, dec = evaluate(ShuParams(nu, z, t))
                    assert ev.method not in leading
                    assert dec.chosen not in leading

    def test_thresholds_are_overridable(self):
        # raising the small-t bar pushes the same point to the fallback
        p = ShuParams(1.0, 3.0, 0.2)
        _, dec = evaluate(p, TIGHT, RegimeThresholds(small_t_exponent=100.0, small_z_max=0.0))
        assert dec.chosen is MethodTag.ORACLE5

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
            # the large-endpoint sum finds no truncation point
            (
                (-7.955851591265382, 320.06426145417345, 359.1606765143919),
                (MethodTag.ASYMPT_LARGE_T, "NON_CONVERGENCE"),
            ),
            # the small-endpoint series returns 1.2e-22 with a NaN error
            # estimate; the true value is 3.9e-176
            (
                (-22.21781064291803, 400.31798891392566, 204.284282851257),
                (MethodTag.SERIES_SMALL_T, "TAIL_TOO_LARGE"),
            ),
            # the small-argument series overflows in x**b
            (
                (37.59408476864124, 0.0024955358148473924, 1.4958339344322494e-06),
                (MethodTag.SERIES_SMALL_Z, "OVERFLOW"),
            ),
            (
                (-35.79395168877865, 1.0064666361294206e-08, 3.2557370575532046e-05),
                (MethodTag.SERIES_SMALL_Z, "OVERFLOW"),
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
            (0.0, 3.0, 3.0), (5.0, 1.0, 0.9),          # oracle fallback
        ]
        for nu, z, t in calibration:
            p = ShuParams(nu, z, t)
            ev, _ = evaluate(p, Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120))
            ref = shu_oracle(p, tighter)
            d = abs(ev.value - ref.value)
            assert d <= 10.0 * (ev.error_estimate + ref.error_estimate), (nu, z, t)
            floor = max(d, ref.error_estimate, 8.0 * eps * abs(ev.value))
            assert ev.error_estimate <= 10.0 * floor, (nu, z, t)


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

    def test_figure_one_columns_monotone_and_bounded(self):
        ts = [0.05 * (20.0 / 0.05) ** (i / 19) for i in range(20)]
        for nu in (0.0, 3.0):
            kval = macdonald_k(nu, 3.0)
            cells = evaluate_grid([nu], [3.0], ts, TIGHT)
            values = [c.evaluation.value for c in cells]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v < kval for v in values)


def _count_k(monkeypatch, fail_at=None):
    """Count K evaluations by (order, argument) through every binding the
    evaluator and the expansions use; optionally make one pair raise."""
    calls = []
    real = incmac.evaluator._macdonald_k_eval

    def counted(order, z, tol=None):
        calls.append((order, z))
        if (order, z) == fail_at:
            raise NonConvergence("forced K failure")
        return real(order, z, tol)

    monkeypatch.setattr(incmac.evaluator, "_macdonald_k_eval", counted)
    monkeypatch.setattr(incmac.expansions, "_macdonald_k_eval", counted)
    return calls


def _pointwise(nu, z, t):
    try:
        ev, dec = evaluate(ShuParams(nu, z, t), TIGHT)
    except NonConvergence as exc:
        return None, None, f"NonConvergence: {exc}"
    return ev, dec, None


# every path: Oracle5 (0, 3, 3), SeriesSmallT (1, 3, 0.2), SeriesSmallZ
# (1, 0.5, 2), AsymptLargeT (0, 3, 100), ClosedFormHalf (0.5, *, *)
_PATH_GRID = ([0.0, 0.5, 1.0], [0.5, 3.0], [0.02, 0.2, 2.0, 3.0, 100.0])


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

    def test_figure_sweep_computes_k_once_per_order(self, monkeypatch):
        calls = _count_k(monkeypatch)
        _figure_rows(5, [0.0, 1.0], 8, TIGHT)  # endpoint sweep at z = 3
        assert sorted(calls) == [(0.0, 3.0), (1.0, 3.0)]

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
