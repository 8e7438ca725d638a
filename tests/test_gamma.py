import importlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from incmac.core import DomainError, NonConvergence, PoleError, ShuParams, Tolerances, shared_work
from incmac.expansions import series_small_z
from incmac.gamma import (
    _bessel_i_series,
    _e1_series,
    _kummer_sum,
    _lower_gamma_orders,
    _macdonald_k_eval,
    _upper_gamma_orders,
    gamma,
    incomplete_gamma_asymptotic,
    macdonald_k,
    upper_incomplete_gamma,
)
from incmac.quadrature import integrate_adaptive

from frozen import (
    BESSEL_I_REF,
    E1_1,
    E1_REF,
    GAMMA_0_3,
    GAMMA_M15_2,
    GAMMA_SERIES_SIDE,
    K0_3,
    K_REF,
    K_TINY_Z,
    LOWER_GAMMA_REF,
)

EPS = 2.220446049250313e-16

TIGHT = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _gamma_tail_quadrature(a, x):
    """Independent oracle: adaptive quadrature of the defining integral."""

    def f(tau):
        e = (a - 1.0) * math.log(tau) - tau
        return math.exp(e) if e > -745.0 else 0.0

    return integrate_adaptive(
        f, x, math.inf, TIGHT, points=(x + 1.0, x + 5.0, x + 25.0, max(x, a))
    ).value


def _k_quadrature(order, z):
    """Independent K: adaptive quadrature of the even cosh representation
    integral over u in (0, inf) of e^(-z cosh u) cosh(order u); returns
    (value, error estimate)."""
    a = abs(order)
    hi = 1.0
    while z * math.cosh(hi) - a * hi < 780.0:
        hi += 0.5

    def f(u):
        zc = z * math.cosh(u)
        return 0.5 * (math.exp(-zc + a * u) + math.exp(-zc - a * u))

    pts = [u for u in (math.asinh(a / z), 0.25 * hi, 0.5 * hi, 0.75 * hi) if 0.0 < u < hi]
    res = integrate_adaptive(
        f, 0.0, hi, Tolerances(abs_tol=5e-324, rel_tol=1e-13, max_depth=100), points=pts
    )
    assert res.converged
    return res.value, res.error_estimate


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_factorial(self):
        assert gamma(5) == 24.0

    @pytest.mark.parametrize("a", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, a):
        with pytest.raises(PoleError):
            gamma(a)

    def test_accuracy_across_range(self):
        # reflection + recursion exact values
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        assert gamma(7.5) == pytest.approx(1871.254305797788346, rel=1e-13)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(200.0)


class TestDoubleRange:
    @pytest.mark.parametrize(
        "call, args, ln",
        [
            (gamma, (200.0,), "857.934"),
            (upper_incomplete_gamma, (200.0, 0.5), "857.934"),
            (upper_incomplete_gamma, (1000.0, 1000.0), "5904.52"),
            (upper_incomplete_gamma, (-800.0, 1e-3), "5519.52"),
            (incomplete_gamma_asymptotic, (2000.0, 2.0, 3), "1383.6"),
        ],
    )
    def test_overflow_names_inputs_and_ln(self, call, args, ln):
        # each raised a bare "math range error" from math.gamma or math.exp
        where = ", ".join(f"{name}={value!r}" for name, value in zip(("a", "x"), args))
        with pytest.raises(OverflowError, match=re.escape(f"double range at {where}: ln = {ln} > ln DBL_MAX")):
            call(*args)

    @pytest.mark.parametrize("a, x, ref", [(171.7, 171.7, 1.299202422888688117e308), (248.0, 1000.0, 6.7380563351433012356e306)])
    def test_value_in_range_where_a_factor_is_not(self, a, x, ref):
        # Gamma(171.7) and 1000^248 e^-1000 pass the double range where
        # Gamma(a, x) does not (mpmath.gammainc, and mpmath.quad of the
        # defining integral, agreeing to 20 digits): taken in logs, where
        # both raised a bare "math range error"
        assert _rel(upper_incomplete_gamma(a, x), ref) < 1e-12


class TestUpperIncompleteGamma:
    def test_order_one_closed_form(self):
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_exponential_integral_anchor(self):
        assert _rel(upper_incomplete_gamma(0.0, 1.0), E1_1) < 1e-12

    def test_frozen_negative_order(self):
        assert _rel(upper_incomplete_gamma(-1.5, 2.0), GAMMA_M15_2) < 1e-12

    def test_frozen_order_zero_argument_three(self):
        assert _rel(upper_incomplete_gamma(0.0, 3.0), GAMMA_0_3) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, -2.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(math.inf, 1.0)

    @pytest.mark.parametrize("a", [-3.0, -2.5, -1.5, -0.5, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_against_defining_integral(self, a, x):
        # monitors the recurrence/continued-fraction split for cancellation
        assert _rel(upper_incomplete_gamma(a, x), _gamma_tail_quadrature(a, x)) < 1e-11

    @pytest.mark.parametrize("a", [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_upward_recurrence(self, a, x):
        lhs = upper_incomplete_gamma(a + 1.0, x)
        rhs = a * upper_incomplete_gamma(a, x) + x**a * math.exp(-x)
        assert _rel(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_complement_reproduces_gamma(self, a, x):
        lower = integrate_adaptive(
            lambda tau: math.exp((a - 1.0) * math.log(tau) - tau), 1e-300, x, TIGHT
        ).value
        assert _rel(upper_incomplete_gamma(a, x) + lower, gamma(a)) < 1e-10

    @pytest.mark.parametrize("a,x", sorted(GAMMA_SERIES_SIDE))
    def test_positive_order_below_a_plus_one(self, a, x):
        # 1.5 <= x < a + 1: the continued fraction converges falsely here
        assert _rel(upper_incomplete_gamma(a, x), GAMMA_SERIES_SIDE[a, x]) < 1e-13

    def test_strictly_decreasing_in_x(self):
        for a in (-1.5, 0.0, 2.0):
            values = [upper_incomplete_gamma(a, x) for x in (0.3, 1.0, 3.0, 9.0)]
            assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


class TestUpperGammaOrders:
    """The recurrence in the order against one upper_incomplete_gamma call
    per order: each Gamma(a0 - k, x) = x^(a0-k) e^-x h_k within the bound
    the routine carries plus the exponent rounding of one call."""

    CASES = [
        (3.7, 2.0, 40),  # positive orders above x - 1, then the 1 - x crossover
        (28.1, 7.24, 60),  # a long first block up from order <= x - 1
        (-5.0, 40.0, 200),  # integer orders, crossover at 1 - x = -39
        (10.0, 640.0, 200),  # block after block, all upward
        (12.25, 1.5, 80),  # x at the split: [1 - x, x - 1] holds one order
        (0.0, 1.0, 60),  # below the split: E1 anchor, all downward
        (4.0, 1.2, 40),  # below the split: upward from E1 to integer orders
        (-2.3, 0.5, 60),  # below the split: the anchor's order is above a0
        (6.6, 0.05, 40),  # below the split: upward from the Kummer anchor
    ]

    @staticmethod
    def _seeded(n):
        rng = random.Random(31)
        for _ in range(n):
            x = math.exp(rng.uniform(math.log(0.05), math.log(300.0)))
            a0 = rng.uniform(-30.0, 30.0 + x)
            if rng.random() < 0.3:
                a0 = float(round(a0))
            yield a0, x, rng.choice((20, 60, 200))

    def test_within_bound_of_per_order_values(self):
        checked = 0
        for a0, x, terms in [*self.CASES, *self._seeded(40)]:
            for k, (h, e) in zip(range(terms), _upper_gamma_orders(a0, x)):
                # each step in its stable direction: the bound stays small
                # (an upward run below order -x - 1 grows it past 1e8 EPS)
                r = e / h
                assert r <= 4096.0 * EPS, (a0, x, k)
                a = a0 - k
                e = a * math.log(x) - x
                if not -700.0 < e < 700.0:  # the per-order value is not a normal double
                    continue
                want = upper_incomplete_gamma(a, x)
                slack = r + EPS * (abs(a * math.log(x)) + x + 16.0)
                assert abs(math.exp(e) * h - want) <= slack * abs(want), (a0, x, k)
                checked += 1
        assert checked > 3000

    def test_replayed_blocks_are_bit_identical(self):
        # a sweep replays each Legendre-anchored block from core.shared:
        # two reads inside one shared_work block equal a read outside any,
        # bit for bit, also past the last block and where no block runs
        rng = random.Random(37)
        kinds = {"downward only": 0, "clamped at first": 0, "clamped at last": 0, "steps down after": 0}
        for _ in range(300):
            x = math.exp(rng.uniform(math.log(1.5), math.log(200.0)))
            a0 = rng.uniform(-40.0, 40.0)
            if rng.random() < 0.2:
                a0 = float(round(a0))
            last, first = math.floor(a0 + x - 1.0), math.ceil(a0 - x + 1.0)
            kinds["downward only"] += last < 0
            kinds["clamped at first"] += 16 <= first <= last  # the first block runs past 16 orders
            kinds["clamped at last"] += 0 <= last < 15  # the only block is shorter than 16
            kinds["steps down after"] += 0 <= last < 39  # the 40 reads pass the last block
            fresh = repr(list(itertools.islice(_upper_gamma_orders(a0, x), 40)))
            with shared_work():
                reads = [repr(list(itertools.islice(_upper_gamma_orders(a0, x), 40))) for _ in range(2)]
            assert reads == [fresh, fresh], (a0, x)
        assert min(kinds.values()) >= 20, kinds

    def test_overflowing_block_is_not_stored(self):
        # a block whose upward run overflows raises at every start inside
        # one shared_work block, as outside it: a raise is not stored
        with pytest.raises(OverflowError) as outside:
            next(_upper_gamma_orders(200.0, 2.0))
        with shared_work():
            for _ in range(3):
                with pytest.raises(OverflowError) as inside:
                    next(_upper_gamma_orders(200.0, 2.0))
                assert str(inside.value) == str(outside.value)


class TestLowerGammaOrders:
    """The downward recurrence in the order against one Kummer sum per
    order: each gamma(a0 - k, x) = x^(a0-k) e^-x L_k within the sum of the
    two bounds.  The orders are dyadic, so every a0 - k is exact and both
    sides sum at the same order; 3.0078125, 2.9921875, 7.0078125 and
    0.00390625 pass within 0.01 of every integer below them."""

    ORDERS = (5.3125, 0.5, 3.0078125, 2.9921875, 7.0078125, 25.6875, 0.00390625)
    # gamma(b, x) has a zero at x = 0.00775170 for b = -1.0078125, 0.292021
    # for b = -1.5 and 5.01937 for b = -19.5; each x pair straddles one
    XS = (1e-4, 0.0077, 0.0078, 0.29, 0.2921, 1.0, 5.0, 5.04, 10.0, 100.0, 700.0)

    def test_within_bounds_of_per_order_sums(self):
        checked = negative = 0
        for a0 in self.ORDERS:
            for x in self.XS:
                for k, (lk, err) in zip(range(201), _lower_gamma_orders(a0, x)):
                    try:
                        want, bound = _kummer_sum(a0 - k, x)
                    except NonConvergence:  # e^x x^-b past the double range, at x = 700
                        break
                    assert abs(lk - want) <= err + bound, (a0, x, k)
                    checked += 1
                    negative += a0 - k < 0.0
        assert checked > 13000
        assert negative > 12000

    @pytest.mark.parametrize("a0,k,below,above", [(2.9921875, 4, 0.0077, 0.0078), (0.5, 2, 0.29, 0.2921), (0.5, 20, 5.0, 5.04)])
    def test_cases_straddle_zeros(self, a0, k, below, above):
        def lk(x):
            return next(itertools.islice(_lower_gamma_orders(a0, x), k, None))[0]

        assert lk(below) * lk(above) < 0.0


def _lower_gamma(a, x):
    """gamma(a, x) for non-integer a as x^a e^-x times the Kummer sum, and
    an absolute bound on its error: the sum's bound times the prefactor,
    plus the rounding of the exponent a ln x - x (of ln x times a and of
    the two operations), up to EPS (|a ln x| + x + 2) relative."""
    total, err = _kummer_sum(a, x)
    lead = a * math.log(x)
    pref = math.exp(lead - x)
    value = pref * total
    return value, pref * err + (abs(lead) + x + 2.0) * EPS * abs(value)


class TestLowerIncompleteGamma:
    """The lower incomplete gamma as the series use it: one Kummer sum
    times its prefactor."""

    @pytest.mark.parametrize("a,x", sorted(LOWER_GAMMA_REF))
    def test_frozen_within_bound(self, a, x):
        value, bound = _lower_gamma(a, x)
        assert abs(value - LOWER_GAMMA_REF[a, x]) <= bound
        assert bound <= 1e-12 * abs(value)

    @pytest.mark.parametrize("a", [-7.3, -2.5, -1.999, -0.7, -0.2])
    @pytest.mark.parametrize("x", [0.05, 1.3, 12.0])
    def test_recurrence_at_negative_order(self, a, x):
        # gamma(a + 1, x) = a gamma(a, x) - x^a e^-x
        g1, b1 = _lower_gamma(a + 1.0, x)
        g0, b0 = _lower_gamma(a, x)
        e = a * math.log(x) - x
        power = math.exp(e)
        slack = b1 + abs(a) * b0 + (abs(e) + 4.0) * EPS * (abs(a * g0) + power)
        assert abs(g1 - (a * g0 - power)) <= slack

    @pytest.mark.parametrize("a,x", [(-2.5, 3.0), (-1.3, 1.5), (-0.5, 2.0), (0.4, 0.7), (2.5, 1.0)])
    def test_complement_gives_gamma(self, a, x):
        # points where neither tail outweighs Gamma(a), so the sum cannot cancel
        lower, bound = _lower_gamma(a, x)
        upper = upper_incomplete_gamma(a, x)
        assert max(abs(lower), abs(upper)) <= 2.0 * abs(gamma(a))
        assert abs(lower + upper - gamma(a)) <= bound + 1e-13 * abs(gamma(a))

    @pytest.mark.parametrize("a,x", [(-1.5, 712.0), (-1.5, 720.0), (0.5, 750.0)])
    def test_sum_past_double_range_raises(self, a, x):
        # the Kummer terms pass the double range near e^x; the sum returned
        # (inf, inf) or, times an underflowed prefactor, (nan, nan)
        with pytest.raises(NonConvergence):
            _kummer_sum(a, x)


@pytest.mark.parametrize("x", sorted(E1_REF))
def test_e1_series_within_its_bound(x):
    value, err = _e1_series(x)
    assert abs(value - E1_REF[x]) <= err <= 1e-13 * value


class TestBesselISeries:
    @pytest.mark.parametrize("order,z", sorted(BESSEL_I_REF))
    def test_frozen_within_error(self, order, z):
        value, err = _bessel_i_series(order, z)
        assert abs(value - BESSEL_I_REF[order, z]) <= err
        assert err <= 1e-12 * value

    def test_subnormal_argument(self):
        # mpmath at 40 and 60 digits: I_0.3(2.5e-323), where z/2 rounds to
        # 0.8 of itself
        value, err = _bessel_i_series(0.3, 2.5e-323)
        assert abs(value - 1.49450414027335385607678732791e-97) <= err

    def test_domain(self):
        with pytest.raises(DomainError):
            _bessel_i_series(-0.5, 1.0)
        with pytest.raises(DomainError):
            _bessel_i_series(1.5, 0.0)


class TestIncompleteGammaAsymptotic:
    def test_single_term_exact_at_order_one(self):
        # (1-a)_m vanishes for m >= 1 when a = 1, so m_max = 0 is exact
        assert incomplete_gamma_asymptotic(1.0, 10.0, 0) == pytest.approx(
            math.exp(-10.0), rel=1e-15
        )

    def test_against_convergent_evaluator_x20(self):
        # with five terms at x = 20 the first omitted term is ~2.5e-6 of the
        # value; agreement is bounded by that optimal-truncation scale
        got = incomplete_gamma_asymptotic(0.5, 20.0, 5)
        want = upper_incomplete_gamma(0.5, 20.0)
        assert _rel(got, want) < 1e-5
        first_omitted = math.prod(0.5 + i for i in range(6)) / 20.0**6
        assert _rel(got, want) < 3.0 * first_omitted

    def test_order_two_closed_form(self):
        want = 31.0 * math.exp(-30.0)  # Gamma(2, x) = (x+1) e^-x
        assert _rel(incomplete_gamma_asymptotic(2.0, 30.0, 3), want) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_approaches_exact_at_x40(self, a):
        got = incomplete_gamma_asymptotic(a, 40.0, 60)
        assert _rel(got, upper_incomplete_gamma(a, 40.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_gamma_asymptotic(1.0, -1.0, 4)

    @pytest.mark.parametrize(
        "fn, args",
        [
            # x^(a-1) e^-x is about e^-803 at x = 800; at x = 720 the value
            # was the subnormal 7.568428454e-315 from both functions
            (incomplete_gamma_asymptotic, (0.5, 800.0, 4)),
            (incomplete_gamma_asymptotic, (0.5, 720.0, 4)),
            (upper_incomplete_gamma, (0.5, 720.0)),
        ],
    )
    def test_below_smallest_normal_returns_zero(self, fn, args):
        assert fn(*args) == 0.0

    def test_sum_stops_before_its_smallest_term_grows(self):
        # terms (-1)^m (1/2)_m 10^-m shrink while (1/2 + m)/10 < 1, so the
        # sum keeps m = 0..10; a cap reached first keeps m = 0..m_max
        terms = [1.0]
        for m in range(11):
            terms.append(terms[-1] * -(0.5 + m) / 10.0)
        scale = 10.0**-0.5 * math.exp(-10.0)
        assert _rel(incomplete_gamma_asymptotic(0.5, 10.0, 49), scale * sum(terms[:11])) < 1e-15
        assert _rel(incomplete_gamma_asymptotic(0.5, 10.0, 2), scale * sum(terms[:3])) < 1e-15


class TestMacdonaldK:
    def test_half_order_closed_form(self):
        want = math.sqrt(0.5 * math.pi) * math.exp(-1.0)
        assert _rel(macdonald_k(0.5, 1.0), want) < 1e-12

    def test_frozen_value(self):
        assert _rel(macdonald_k(0.0, 3.0), K0_3) < 1e-11

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0, 8.0])
    def test_even_in_order(self, nu, z):
        assert _rel(macdonald_k(nu, z), macdonald_k(-nu, z)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            macdonald_k(0.0, 0.0)
        with pytest.raises(DomainError):
            macdonald_k(0.0, -1.0)

    def test_underflow_to_zero(self):
        assert macdonald_k(0.0, 800.0) == 0.0

    def test_small_argument_blowup(self):
        # K grows like -ln z at order 0
        assert _rel(macdonald_k(0.0, 1e-6), 13.931442073626419) < 1e-11

    @pytest.mark.parametrize(
        "order, z, want",
        [
            # mpmath at 40 and 60 digits; z/2 underflows to 0 at 5e-324 and
            # rounds to 0.8 of itself at 2.5e-323, so ln(z/2) comes from ln z
            (0.0, 5e-324, 744.556003437039674762918018477),
            (0.5, 5e-324, 5.63855226126470991608469868095e161),
            (0.0, 2.5e-323, 742.946565524605574388317259144),
            (0.5, 2.5e-323, 2.52163723017460913727922019995e161),
        ],
    )
    def test_subnormal_argument(self, order, z, want):
        # at order 1/2 the estimate counts the rounding of mu ln(z/2) ~ 372
        value, err, _ = _macdonald_k_eval(order, z)
        assert abs(value - want) <= err
        assert _rel(value, want) < 1e-13

    @pytest.mark.parametrize("order,z", sorted(K_TINY_Z))
    def test_tiny_argument_within_error_estimate(self, order, z):
        value, err, _ = _macdonald_k_eval(order, z)
        assert abs(value - K_TINY_Z[order, z]) <= err

    @pytest.mark.parametrize("order,z", [(0.5, 1e-6), (-0.3, 0.01), (0.49, 1.9), (7.5, 1e-6)])
    def test_base_estimate_kept_above_tiny_arguments(self, order, z):
        # the rounding of mu ln(z/2) counts only past the base allowance,
        # which it does not reach from z = 1e-6 up
        value, err, _ = _macdonald_k_eval(order, z)
        n = int(abs(order) + 0.5)
        assert err == (64.0 + 3.0 * n) * EPS * value

    @pytest.mark.parametrize("order,z", sorted(K_REF))
    def test_frozen_reference_within_error_estimate(self, order, z):
        value, err, work = _macdonald_k_eval(order, z)
        want = K_REF[order, z]
        assert abs(value - want) <= err
        if abs(order) <= 30.0:
            assert err <= 1e-13 * want
        assert work >= 1

    def test_differential_against_cosh_quadrature(self):
        rng = random.Random(20260418)
        for _ in range(150):
            order = rng.uniform(-30.0, 30.0)
            z = math.exp(rng.uniform(math.log(1e-6), math.log(700.0)))
            value, err, _ = _macdonald_k_eval(order, z)
            ref, ref_err = _k_quadrature(order, z)
            assert abs(value - ref) <= err + ref_err + 1e-13 * abs(ref), (order, z)

    @pytest.mark.parametrize("order", [400.0, -1e300])
    def test_order_beyond_double_range_overflows(self, order):
        with pytest.raises(OverflowError):
            macdonald_k(order, 1.0)
        # and the small-argument series candidate reports it, so evaluate
        # rejects that candidate
        with pytest.raises(OverflowError):
            series_small_z(ShuParams(order, 1.0, 1.0))

    def test_no_quadrature_in_gamma(self):
        # the package namespace binds the gamma function under the module's name
        module = importlib.import_module("incmac.gamma")
        assert not hasattr(module, "integrate_adaptive")

    def test_recurrence_cap_raises(self, monkeypatch):
        # a huge order whose K is in range would otherwise recur for ~order steps
        monkeypatch.setattr(importlib.import_module("incmac.gamma"), "_MAX_STEPS", 10)
        with pytest.raises(NonConvergence):
            macdonald_k(20.0, 3.0)
        assert macdonald_k(10.0, 3.0) > 0.0
