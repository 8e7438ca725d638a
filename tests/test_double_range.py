"""Every public entry point at extreme inputs: what raises names why.

A seeded sweep over log-uniform orders, arguments and endpoints far past
the test grids.  Any ArithmeticError or ValueError may be raised there,
but never a bare "math range error" from math.exp, math.gamma or
math.lgamma, which names neither the point nor the quantity that left the
double range.
"""

import math
import random

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


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_no_bare_math_range_error(name):
    # 1,000 seeded draws each; unguarded, math.gamma and math.exp raise the
    # bare error here in gamma, upper_incomplete_gamma and
    # incomplete_gamma_asymptotic
    call, draw = _CALLS[name]
    rng = random.Random(sorted(_CALLS).index(name) + 40)
    bare = []
    for _ in range(1000):
        args = draw(rng)
        try:
            call(*args)
        except (ArithmeticError, ValueError) as exc:
            if str(exc) == "math range error":
                bare.append(args)
    assert bare == []
