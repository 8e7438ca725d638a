import math

import pytest

import incmac.quadrature
from incmac import core
from incmac.core import FLAG_UNDERFLOW, NonConvergence, ShuParams, Tolerances, shared_work
from incmac.gamma import macdonald_k
from incmac.quadrature import integrate_adaptive, shu_oracle, shu_oracle_cosh

from frozen import S0_3_3, S_EXPONENT_ROUNDING, S_FORM2_CLAMP, S_SMALL_Z_NEGATIVE_ORDER

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


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

    def test_error_estimate_covers_true_error(self):
        r = integrate_adaptive(lambda x: math.sin(x), 0.0, math.pi, Tolerances(rel_tol=1e-6))
        assert abs(r.value - 2.0) <= max(3.0 * r.error_estimate, 1e-14)


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

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            shu_oracle(ShuParams(0.0, 3.0, 3.0), TIGHT, form=3)

    def test_form_four_is_the_cosh_form(self):
        p = ShuParams(0.0, 3.0, 3.0)
        v4 = shu_oracle(p, TIGHT, form=4)
        assert v4 == shu_oracle_cosh(p, TIGHT)
        assert v4.method.value == "Oracle4"

    def test_cosh_form_integrated_once_per_block(self, monkeypatch):
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
        assert counts == [(p, TIGHT, 4)]

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
