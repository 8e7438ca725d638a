"""Every public entry point at extreme inputs: what raises names why.

A seeded sweep over log-uniform orders, arguments and endpoints far past
the test grids.  Any ArithmeticError or ValueError may be raised there,
but never a bare "math range error" from math.exp, math.gamma or
math.lgamma, nor the bare "(34, 'Numerical result out of range')" of a
float power, which name neither the point nor the quantity that left the
double range.
"""

import math
import random
import sys

import pytest

import incmac
from incmac.core import TIGHT, ShuParams
from incmac.expansions import asympt_large_t, series_small_t, series_small_z


def _wide(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _order(rng):
    return rng.choice((-1.0, 1.0)) * _wide(rng, 1e-3, 3e3)


def _point(rng):
    return ShuParams(_order(rng), _wide(rng, 1e-300, 1e300), _wide(rng, 1e-300, 1e300)), TIGHT


_CALLS = {
    "gamma": (incmac.gamma, lambda rng: (_order(rng),)),
    "upper_incomplete_gamma": (incmac.upper_incomplete_gamma, lambda rng: (_order(rng), _wide(rng, 1e-300, 1e300))),
    "incomplete_gamma_asymptotic": (
        incmac.incomplete_gamma_asymptotic,
        lambda rng: (_order(rng), _wide(rng, 1e-3, 1e4), rng.randrange(20)),
    ),
    "macdonald_k": (incmac.macdonald_k, lambda rng: (_order(rng), _wide(rng, 1e-300, 1e300))),
    "series_small_t": (series_small_t, _point),
    "series_small_z": (series_small_z, _point),
    "asympt_large_t": (asympt_large_t, _point),
    "evaluate": (incmac.evaluate, _point),
    "gen_incomplete_gamma": (
        incmac.gen_incomplete_gamma,
        lambda rng: (_order(rng), _wide(rng, 1e-300, 1e300), _wide(rng, 1e-300, 1e300)),
    ),
    "leaky_aquifer": (
        incmac.leaky_aquifer,
        lambda rng: (_order(rng), _wide(rng, 1e-300, 1e300), _wide(rng, 1e-300, 1e300)),
    ),
    "incomplete_modified_bessel": (
        incmac.incomplete_modified_bessel,
        lambda rng: (_order(rng), _wide(rng, 1e-300, 1e300), _wide(rng, 1e-3, 1e3)),
    ),
}


# what math.exp and its kin raise, and what a float power raises
_BARE = ("math range error", "(34, 'Numerical result out of range')")


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_no_bare_math_range_error(name):
    # 1,000 seeded draws each; unguarded, math.gamma and math.exp raise the
    # bare error here in gamma, upper_incomplete_gamma and
    # incomplete_gamma_asymptotic, and a float power in
    # gen_incomplete_gamma and leaky_aquifer
    call, draw = _CALLS[name]
    rng = random.Random(sorted(_CALLS).index(name) + 40)
    bare = []
    for _ in range(1000):
        args = draw(rng)
        try:
            call(*args)
        except (ArithmeticError, ValueError) as exc:
            if str(exc) in _BARE:
                bare.append(args)
    assert bare == []


def test_related_functions_past_their_derived_range():
    # z/t underflows in gen_incomplete_gamma and z t overflows in
    # leaky_aquifer; both values are at most Gamma(a, t) and E_(a+1)(z),
    # below the smallest normal double here, so 0.0.  Where the bound is not
    # that small, the error names the function's own inputs
    assert incmac.gen_incomplete_gamma(-312.55663504341993, 3.3049588030767804e168, 1.1437974299707802e-270) == 0.0
    assert incmac.leaky_aquifer(1.0, 1e200, 1e200) == 0.0
    with pytest.raises(incmac.DomainError, match=r"z/t=0\.0: leaves the double range at \(a, t, z\) = \(2\.0, 3\.0, 5e-324\)"):
        incmac.gen_incomplete_gamma(2.0, 3.0, 5e-324)
    with pytest.raises(incmac.DomainError, match=r"z t=0\.0: leaves the double range at \(a, z, t\) = \(2\.0, 1e-200, 1e-200\)"):
        incmac.leaky_aquifer(2.0, 1e-200, 1e-200)


@pytest.mark.parametrize("name", ["macdonald_k", "evaluate"])
def test_k_underflows_up_to_dbl_max(name):
    # z in [9e307, DBL_MAX]: K, and so S <= K, lies below the smallest
    # normal double at every order here, where Steed's 2(1 + z) overflows;
    # the underflow rule's 0.0, flagged from evaluate
    rng = random.Random(60)
    for _ in range(200):
        order, z = _order(rng), rng.uniform(9e307, sys.float_info.max)
        if name == "macdonald_k":
            assert incmac.macdonald_k(order, z) == 0.0, (order, z)
        else:
            ev, _ = incmac.evaluate(ShuParams(order, z, _wide(rng, 1e-300, 1e300)), TIGHT)
            assert (ev.value, ev.flags) == (0.0, (incmac.FLAG_UNDERFLOW,)), (order, z)
    if name == "macdonald_k":
        assert incmac.macdonald_k(0.0, sys.float_info.max) == 0.0
    else:
        ev, _ = incmac.evaluate(ShuParams(2.0, 1e308, 1e300), TIGHT)
        assert (ev.value, ev.flags) == (0.0, (incmac.FLAG_UNDERFLOW,))
