import math
import random

import pytest

from incmac.core import EPS, FLAG_UNDERFLOW, TIGHT, TINY, DomainError, ShuParams, StepTooCoarse
from incmac.evaluator import evaluate
from incmac.expansions import leading_small_t
from incmac.gamma import upper_incomplete_gamma
from incmac.quadrature import integrate_adaptive, shu_oracle
from incmac.relations import (
    dS_dt,
    dS_dz,
    diff_relation1_residual,
    diff_relation2_residual,
    gen_incomplete_gamma,
    incomplete_modified_bessel,
    leaky_aquifer,
    pde_residual,
    recurrence1_residual,
    recurrence2_residual,
)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _oracle(nu, z, t):
    return shu_oracle(ShuParams(nu, z, t), TIGHT).value


def _evaluated(nu, z, t):
    # the source of S inside the residuals
    return evaluate(ShuParams(nu, z, t), TIGHT)[0].value


class TestEndpointDerivative:
    def test_direct_formula_value(self):
        assert _rel(dS_dt(ShuParams(0.0, 2.0, 1.0)), math.exp(-2.0) / 2.0) < 1e-14

    def test_matches_finite_difference(self):
        p = ShuParams(1.0, 3.0, 2.0)
        h = 1e-5
        fd = (_oracle(1, 3, 2 + h) - _oracle(1, 3, 2 - h)) / (2.0 * h)
        assert _rel(dS_dt(p), fd) < 1e-8

    @pytest.mark.parametrize("nu,z,t", [(-2.0, 0.5, 0.2), (0.0, 3.0, 3.0), (5.0, 8.0, 10.0)])
    def test_positive(self, nu, z, t):
        assert dS_dt(ShuParams(nu, z, t)) > 0.0

    # the exponential underflows to 0, or to a subnormal (1.41e-316 here)
    @pytest.mark.parametrize("point", [(0.0, 3.0, 1e-300), (0.0, 1.0, 720.0)])
    def test_underflow_returns_zero(self, point):
        assert dS_dt(ShuParams(*point)) == 0.0

    def test_subnormal_argument(self):
        # z/2 underflows to 0; at order 0 the derivative is e^-t/2t
        assert _rel(dS_dt(ShuParams(0.0, 5e-324, 1.0)), math.exp(-1.0) / 2.0) < 1e-15


    @pytest.mark.parametrize("closed_form", [dS_dt, leading_small_t])
    def test_overflow_names_the_point(self, closed_form):
        # one of 591 box-A draws where the exponential passed the double
        # range, which raised a bare "math range error"
        p = ShuParams(-76.22836712573202, 5.139145922509746e-10, 0.007043519211988444)
        with pytest.raises(OverflowError, match=r"at ShuParams\(order=-76.2283.*: ln = [0-9.e+]+ > ln DBL_MAX"):
            closed_form(p)


class TestArgumentDerivative:
    def test_matches_finite_difference(self):
        p = ShuParams(0.0, 3.0, 3.0)
        h = 3e-5
        fd = (_oracle(0, 3 + h, 3) - _oracle(0, 3 - h, 3)) / (2.0 * h)
        assert _rel(dS_dz(p), fd) < 1e-7

    def test_negative_at_reference_point(self):
        assert dS_dz(ShuParams(0.0, 3.0, 3.0)) < 0.0

    def test_order_zero_reduces_to_shifted_value(self):
        p = ShuParams(0.0, 3.0, 3.0)
        assert dS_dz(p) == -_evaluated(1, 3, 3)


class TestRecurrences:
    @pytest.mark.parametrize("nu,z,t", [(1.0, 3.0, 2.0), (0.0, 3.0, 2.0), (-0.5, 1.0, 0.5)])
    def test_first_recurrence(self, nu, z, t):
        rep = recurrence1_residual(ShuParams(nu, z, t))
        assert rep.identity == "Rec1"
        assert rep.relative_residual <= 1e-8

    @pytest.mark.parametrize("nu,z,t", [(1.0, 3.0, 2.0), (2.0, 8.0, 1.0)])
    def test_second_recurrence(self, nu, z, t):
        rep = recurrence2_residual(ShuParams(nu, z, t))
        assert rep.identity == "Rec2"
        assert rep.relative_residual <= 1e-6

    def test_combination_recovers_argument_derivative(self):
        # half the difference of the two residuals is the order-shift
        # derivative formula minus the finite difference
        p = ShuParams(1.0, 3.0, 2.0)
        r1 = recurrence1_residual(p)
        r2 = recurrence2_residual(p)
        h = 1e-5 * p.argument
        fd = (_evaluated(1, 3 + h, 2) - _evaluated(1, 3 - h, 2)) / (2.0 * h)
        combo = 0.5 * (r1.residual - r2.residual)
        assert _rel(combo, dS_dz(p) - fd) < 1e-6 or abs(combo) < 1e-12


def _scatter_wide_seed_1():
    rng = random.Random(1)
    for _ in range(2000):
        nu = rng.uniform(-30.0, 30.0)
        z = math.exp(rng.uniform(math.log(1e-6), math.log(3e3)))
        yield nu, z, math.exp(rng.uniform(math.log(1e-4), math.log(3e3)))


def _box_a():
    rng = random.Random(102)
    for _ in range(3000):
        nu = rng.uniform(-100.0, 100.0)
        z = math.exp(rng.uniform(math.log(1e-12), math.log(1e6)))
        yield nu, z, math.exp(rng.uniform(math.log(1e-8), math.log(1e6)))


def _box_b():
    rng = random.Random(104)
    for _ in range(2000):
        nu = math.exp(rng.uniform(math.log(30.0), math.log(150.0))) * rng.choice((-1, 1))
        z = math.exp(rng.uniform(math.log(1e-2), math.log(3e3)))
        yield nu, z, math.exp(rng.uniform(math.log(1e-3), math.log(3e3)))


@pytest.mark.parametrize("box", [_scatter_wide_seed_1, _box_a, _box_b])
def test_first_recurrence_within_claimed_errors(box):
    # no reference: dS_(nu-1)/dt + S_(nu-1) - S_(nu+1) + (2 nu/z) S_nu = 0,
    # its three values of S often from different candidates, so each
    # returned estimate is checked against the others.  The claim adds the
    # three estimates, the rounding of the sum, that of the exponent of
    # dS/dt, and TINY times the coefficient of each flagged zero
    checked = 0
    for nu, z, t in box():
        try:
            lo, hi, mid = (evaluate(ShuParams(n, z, t), TIGHT)[0] for n in (nu - 1.0, nu + 1.0, nu))
            slope = dS_dt(ShuParams(nu - 1.0, z, t))
        except (ArithmeticError, ValueError):
            continue
        c = abs(2.0 * nu / z)
        terms = (slope, lo.value, -hi.value, (2.0 * nu / z) * mid.value)
        exponent = abs((nu - 1.0) * math.log(0.5 * z)) + math.log(2.0) + t + 0.25 * z * z / t + abs(nu * math.log(t))
        claim = (lo.error_estimate + hi.error_estimate + c * mid.error_estimate
                 + 8.0 * EPS * max(map(abs, terms)) + 4.0 * EPS * (exponent + 4.0) * slope
                 + TINY * sum(w for ev, w in ((lo, 1.0), (hi, 1.0), (mid, c)) if FLAG_UNDERFLOW in ev.flags))
        assert abs(sum(terms)) <= claim, (nu, z, t)
        checked += 1
    assert checked > 1500


class TestDifferentialRelations:
    def test_k0_is_degenerate(self):
        rep = diff_relation1_residual(ShuParams(2.0, 3.0, 2.0), 0)
        assert rep.residual == 0.0
        rep = diff_relation2_residual(ShuParams(2.0, 3.0, 2.0), 0)
        assert rep.residual == 0.0

    def test_first_relation(self):
        assert diff_relation1_residual(ShuParams(2.0, 3.0, 2.0), 1).relative_residual <= 1e-6
        assert diff_relation1_residual(ShuParams(2.0, 3.0, 2.0), 2).relative_residual <= 1e-4

    def test_second_relation(self):
        assert diff_relation2_residual(ShuParams(0.0, 3.0, 3.0), 1).relative_residual <= 1e-6
        assert diff_relation2_residual(ShuParams(1.0, 5.0, 1.0), 2).relative_residual <= 1e-4

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            diff_relation1_residual(ShuParams(1.0, 3.0, 2.0), 3)
        with pytest.raises(ValueError):
            diff_relation2_residual(ShuParams(1.0, 3.0, 2.0), 3)

    def test_step_too_coarse_detected(self):
        # z/2t = 40 makes the stated second-difference step fail its
        # halving check rather than return a silently wrong residual
        with pytest.raises(StepTooCoarse):
            diff_relation1_residual(ShuParams(0.0, 8.0, 0.1), 2)


class TestPde:
    def test_exact_mode(self):
        rep = pde_residual(ShuParams(0.0, 3.0, 3.0), "exact")
        assert rep.identity == "PDE"
        assert rep.mode == "exact"
        assert rep.relative_residual <= 1e-8

    def test_fd_mode_confirms_independently(self):
        rep = pde_residual(ShuParams(0.0, 3.0, 3.0), "fd")
        assert rep.relative_residual <= 1e-5

    def test_exact_mode_grid(self):
        worst = 0.0
        for nu in (-0.5, 0.0, 2.0):
            for z, t in ((1.0, 0.5), (3.0, 2.0), (8.0, 10.0)):
                rep = pde_residual(ShuParams(nu, z, t), "exact")
                worst = max(worst, rep.relative_residual)
        assert worst <= 1e-7

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            pde_residual(ShuParams(0.0, 3.0, 3.0), "symbolic")


class TestGenIncompleteGamma:
    def test_reduces_to_plain_gamma(self):
        got = gen_incomplete_gamma(1.5, 1.0, 1e-8)
        assert _rel(got, upper_incomplete_gamma(1.5, 1.0)) < 1e-6

    def test_defining_integral(self):
        got = gen_incomplete_gamma(0.5, 1.0, 2.0)
        direct = integrate_adaptive(
            lambda u: u**-0.5 * math.exp(-u - 2.0 / u), 1.0, math.inf, TIGHT
        ).value
        assert _rel(got, direct) < 1e-9

    def test_round_trip_reproduces_oracle(self):
        nu, z, t = 0.0, 3.0, 3.0
        got = 0.5 * (2.0 / z) ** nu * gen_incomplete_gamma(nu, 0.25 * z * z / t, 0.25 * z * z)
        assert _rel(got, _oracle(nu, z, t)) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_incomplete_gamma(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            gen_incomplete_gamma(1.0, 1.0, -1.0)


class TestLeakyAquifer:
    def test_reduces_to_gamma_tail_at_tiny_endpoint(self):
        got = leaky_aquifer(0.5, 2.0, 1e-8)
        want = 2.0**0.5 * upper_incomplete_gamma(-0.5, 2.0)
        assert _rel(got, want) < 1e-6

    def test_defining_integral(self):
        got = leaky_aquifer(0.0, 1.0, 1.0)
        direct = integrate_adaptive(
            lambda u: math.exp(-u - 1.0 / u) / u, 1.0, math.inf, TIGHT
        ).value
        assert _rel(got, direct) < 1e-9

    def test_round_trip_reproduces_oracle(self):
        nu, z, t = 1.0, 3.0, 2.0
        got = 0.5 * (0.5 * z / t) ** nu * leaky_aquifer(-nu, 0.25 * z * z / t, t)
        assert _rel(got, _oracle(nu, z, t)) < 1e-9


class TestIncompleteModifiedBessel:
    def test_defining_integral(self):
        got = incomplete_modified_bessel(1.0, 3.0, 1.0)
        direct = integrate_adaptive(
            lambda u: 0.5 * math.exp(-3.0 * math.cosh(u)) * math.cosh(u), 1.0, 12.0, TIGHT
        ).value
        assert _rel(got, direct) < 1e-9

    def test_even_in_order(self):
        assert incomplete_modified_bessel(2.0, 3.0, 1.0) == incomplete_modified_bessel(-2.0, 3.0, 1.0)

    def test_tiny_endpoint_limit(self):
        # as the truncation point vanishes the value approaches the
        # symmetric combination at endpoint z/2
        z = 3.0
        got = incomplete_modified_bessel(0.0, z, 1e-8)
        want = 0.5 * (_oracle(0.0, z, 0.5 * z) + _oracle(0.0, z, 0.5 * z))
        assert _rel(got, want) < 1e-6

    def test_underflowed_endpoint_is_zero(self):
        # z e^(-t_imb)/2 underflows to 0: e^(-z cosh tau) vanishes past t_imb
        assert incomplete_modified_bessel(2.0, 3.0, 800.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_modified_bessel(0.0, -3.0, 1.0)
        with pytest.raises(DomainError):
            incomplete_modified_bessel(0.0, 3.0, 0.0)


def test_residual_report_invariants():
    rep = recurrence1_residual(ShuParams(1.0, 3.0, 2.0))
    assert rep.scale > 0.0
    assert rep.relative_residual == abs(rep.residual) / rep.scale
