"""Gamma-family building blocks.

Provides the gamma function, the (non-regularized) upper incomplete gamma
function at any real order, the lower incomplete gamma at any non-integer
order (the Kummer series, continued past a < 0, with a bound on its
rounding), both at consecutive orders a0 - k by one recurrence in the
order, x h(a+1) = a h(a) + 1 for the upper and with -1 for the lower
(_upper_gamma_orders and _lower_gamma_orders, which the series of S use;
both step downward through one generator, _downward, and a sweep shares
every anchor and every Legendre-anchored block of upper orders through
core.shared; below x = 1.5 every upper order starts from one pole-free
anchor, _small_x_anchor, which takes (Gamma(1 + f) - 1)/f from the
series of 1/Gamma(1 + f) that Temme's series for K sums), the upper one's
large-argument asymptotic sum, which no series of S uses, the modified
Bessel function I from its power series, and the Macdonald function K to
full double precision by Temme's series, Steed's continued fraction and
forward recurrence in order.
upper_incomplete_gamma and incomplete_gamma_asymptotic take their
prefactor through core._exp_value's one double-range rule, and it and
the related functions of relations return 0.0 by one bound on the upper
gamma, _log_upper_gamma_bound.  No other module evaluates an incomplete
gamma.  Nothing here integrates: the
quadrature oracle stays an independent check on every value.
"""

import math
from itertools import count

from .core import (
    EPS, LN2, LOG_HUGE, LOG_TINY, TINY, NonConvergence, PoleError, _as_count, _as_finite_real,
    _as_nonnegative, _as_positive, _exp_value, _sum_rounding, log_half_ratio, shared, underflow_to_zero,
)

__all__ = [
    "gamma",
    "upper_incomplete_gamma",
    "incomplete_gamma_asymptotic",
    "macdonald_k",
]

_X_SPLIT = 1.5  # series/recurrence below, continued fraction at and above
_MAX_ITER = 1000
_BLOCK = 16  # orders per Legendre-fraction anchor in _upper_gamma_orders
# relative error bound of a Legendre fraction: the worst of 15,000 random
# orders <= x - 1 was 29 EPS, at x near 1.5, against the same fraction in
# 50-digit arithmetic; the fraction is U(1, a + 1, x), and the tests hold
# it within this of expansions._tricomi_bracket's proven bracket at t = 0
_CF_ERR = 64.0 * EPS
_SUM_UNIT = 2.0**-64  # _kummer_sum's running sums, finite where the sum nears DBL_MAX

# K: Temme's series below this argument, Steed's continued fraction at and above
_Z_SPLIT = 2.0
_RESCALE_BITS = 500
_RESCALE_AT = 2.0**_RESCALE_BITS
_MAX_STEPS = 1_000_000  # forward recurrence steps in order
# relative error bound of K in units of EPS: a base for K_mu, K_(mu+1) and
# the e^-z factor (worst measured 24, by Temme's series just below z = 2,
# against 50-digit values), plus a share per recurrence step, whose terms
# are positive, so that the relative rounding errors of its five
# operations (with 2/z) at most add up
_K_ERR_BASE = 64.0
_K_ERR_STEP = 3.0
# and, in Temme's branch, the share of the exponent |mu ln(z/2)| where it
# outgrows the base, at z below about 1e-18 (worst measured 0.8, over 576
# random orders |nu| <= 1 and z down to 1e-308, against 40-digit values)
_K_ERR_EXP = 3.0
# Taylor coefficients c_k of 1/Gamma(1+x) about 0 (c_0 = 1, c_1 = Euler's
# constant), rounded from 60-digit values, as pairs (c_2k, c_2k-1) from k =
# 15 down to 1, so that one Horner loop sums the even part past c_0 and the
# odd part; the series stops at c_30, and the omitted terms, at most 2.4e-22
# |x|^30, lie below 0.002 EPS on [-1/2, 1]
_RGAMMA = (
    (1.337351730493693e-22, 1.7144063219273374e-20), (-2.29874568443537e-19, 1.4123806553180319e-18),
    (1.1866922547516004e-18, -1.1812593016974588e-16), (1.2267786282382608e-15, -5.348122539423018e-15),
    (-2.0583260535665066e-14, 5.100370287454476e-13), (-3.696805618642206e-12, 7.782263439905071e-12),
    (1.0434267116911005e-10, -1.18127457048702e-09), (5.002007644469223e-09, 6.116095104481416e-09),
    (-2.056338416977607e-07, 1.133027231981696e-06), (-1.2504934821426706e-06, -2.013485478078824e-05),
    (0.0001280502823881162, -0.00021524167411495098), (-0.0011651675918590652, 0.0072189432466631),
    (-0.009621971527876973, -0.04219773455554433), (0.16653861138229148, -0.04200263503409524),
    (-0.6558780715202539, 0.5772156649015329),
)


def gamma(a: float) -> float:
    """Gamma(a) for real a.

    Raises PoleError at a in {0, -1, -2, ...} and OverflowError when the
    value exceeds the double range.
    """
    a = _as_finite_real("a", a)
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"gamma pole at a={a}")
    try:
        return math.gamma(a)
    except OverflowError:
        raise OverflowError(f"the value exceeds the double range at a={a!r}: ln = {math.lgamma(a):.6g} > ln DBL_MAX") from None


def _kummer_sum(a: float, x: float):
    """The Kummer series sum_n x^n / (a (a+1) ... (a+n)), with gamma(a, x) =
    x^a e^-x times it for every non-integer a (DLMF 8.7.1 continued in the
    order), and an absolute bound on its tail and its rounding,
    core._sum_rounding's with three roundings a step.

    It stops at a term below EPS of the total once a + n > x, where the
    terms fall geometrically with ratio r = x/(a + n + 1) < 1, so the tail
    is at most |term| r/(1 - r); for a > 0 that is where the EPS test
    alone would stop, a term being the largest so far while a + n <= x.
    Terms past the double range, near e^x at x beyond about 700, raise
    NonConvergence.
    """
    total = term = 1.0 / a
    plain, stepped = abs(term) * _SUM_UNIT, 0.0
    for n in range(1, _MAX_ITER):
        d = a + n
        term *= x / d
        total += term
        size = abs(term)
        plain += (size + abs(total)) * _SUM_UNIT
        stepped += n * size * _SUM_UNIT
        if size <= EPS * abs(total) and d > x:
            if plain == math.inf:
                break
            tail = size * x / (d + 1.0 - x)
            return total, _sum_rounding(3.0, plain, stepped) / _SUM_UNIT + tail
    raise NonConvergence(f"lower gamma series stalled or overflowed at a={a}, x={x}", partial=total)


def _lower_gamma_orders(a0: float, x: float):
    """(L_k, e_k) for k = 0, 1, 2, ..., an iterator: gamma(a0 - k, x) =
    x^(a0-k) e^-x L_k for non-integer a0, and an absolute bound e_k on the
    error of L_k.  The prefactor is left to the caller, as in
    _upper_gamma_orders.  L_0 is one Kummer sum, core.shared; the orders
    below it come by _downward's step b L(b) = x L(b+1) + 1, the stable
    direction for the lower gamma.
    """
    first = lk, err = shared(_kummer_sum, a0, x)
    return _downward(a0, x, 1.0, 1, lk, err, (first,))


def _downward(a0: float, x: float, one: float, k: int, h: float, e: float, head=()):
    """Yields the pairs of head, then (h_j, e_j) for j = k, k + 1, ...: h at
    the order b = a0 - j by the recurrence b h(b) = x h(b+1) + one, stepped
    down from h = h_(k-1) with absolute bound e; the one downward step of
    both incomplete gammas.  one is -1 for the upper gamma's h, Gamma(b, x)
    = x^b e^-x h(b), and +1 for the lower gamma's L: the two sum to
    Gamma(b) x^-b e^x, which solves the recurrence without the 1.  head,
    the orders above k where the caller has them at the start, is yielded
    first, so that a read passes through no other generator.

    A step multiplies the carried bound by x/|b| and adds its rounding, to
    first order EPS/2 |x h|/|b| for the product, carried through the
    quotient, and EPS/2 |h_j| each for the sum, the quotient and b (one
    rounding of an exact value): within EPS |x h|/|b| + 2 EPS |h_j|.  Where
    x h + one cancels, near a zero of gamma(b, x), the bound stays absolute
    and so stays honest.
    """
    yield from head
    eps, eps2 = EPS, 2.0 * EPS  # locals and comparisons, not globals and abs(), in this hot loop
    for k in count(k):
        xh = x * h
        b = a0 - k
        h = (xh + one) / b
        e = (x * e + eps * (-xh if xh < 0.0 else xh)) / (b if b > 0.0 else -b) + eps2 * (-h if h < 0.0 else h)
        yield h, e


def _upper_from_series(a: float, x: float) -> float:
    # Gamma(a) - x^a e^-x * series; fine for a >= 1 below x = 1.5, or x < a + 1,
    # where the subtraction loses at most a couple of digits, and where x^a e^-x
    # underflows; in logs past the double range
    try:
        return math.gamma(a) - math.exp(a * math.log(x) - x) * _kummer_sum(a, x)[0]
    except OverflowError:
        lg = math.lgamma(a)
        return _exp_value(lg + math.log1p(-math.exp(a * math.log(x) - x - lg) * _kummer_sum(a, x)[0]), f"a={a!r}, x={x!r}")


def _legendre_cf(a: float, x: float) -> float:
    # Legendre continued fraction h with Gamma(a, x) = x^a e^-x h, modified
    # Lentz form; valid for any real order once x is away from 0.  The
    # caller applies the prefactor; erfc uses it at a = 1/2
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0.0:
            d = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= EPS:
            return h
    raise NonConvergence(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x): the upper tail integral of tau^(a-1) e^-tau from x.

    Any finite real order is accepted; x must be strictly positive.  For
    x >= 1.5 the Legendre continued fraction is used at every order except
    positive orders with x < a + 1, where it converges to a false value
    (Numerical Recipes section 6.2); those, and orders a >= 1 below x =
    1.5, subtract the lower-tail series from Gamma(a).  Orders a < 1 below
    x = 1.5 take the pole-free anchor (_small_x_anchor), at a itself for a
    >= -1/2 and through _upper_gamma_orders below, where Gamma(a) -
    gamma(a, x) cancels like 1/a near 0; except where x^a e^-x underflows:
    there the subtraction loses nothing, and h = Gamma(a, x) x^-a e^x
    could pass the double range.  One call computes one order; the series
    of S take consecutive orders from _upper_gamma_orders instead.  A
    value below the smallest normal double is an exact 0.0
    (core.underflow_to_zero), as for K, and so is every value whose
    _log_upper_gamma_bound lies below it.
    """
    a = _as_finite_real("a", a)
    x = _as_positive("x", x)
    e = a * math.log(x) - x
    if x < _X_SPLIT and a < 1.0 and e > LOG_TINY:
        # no 1/a cancellation; with x^a e^-x normal, h <= Gamma(a) e^-e is finite
        h, _ = _small_x_anchor(a, x) if a >= -0.5 else next(_upper_gamma_orders(a, x))
    elif a > 0.0 and (x < _X_SPLIT or x < a + 1.0):
        return _upper_from_series(a, x)
    elif _log_upper_gamma_bound(a, x) < LOG_TINY:
        return 0.0
    else:
        h = _legendre_cf(a, x)
    return _exp_value(e, f"a={a!r}, x={x!r}", h)  # in logs where e^e alone overflows


def _log_upper_gamma_bound(a: float, x: float) -> float:
    """ln of a bound on Gamma(a, x) = x^a e^-x h, h = int_0^inf (1 +
    u)^(a-1) e^(-x u) du: (1 + u)^(a-1) <= e^(max(a - 1, 0) u) gives h <=
    1/(x - max(a - 1, 0)) for x > max(a - 1, 0); inf elsewhere.  Where it
    lies below the smallest normal double, so does the value, and
    upper_incomplete_gamma and the related functions of relations return
    0.0 without evaluating it.
    """
    d = x - max(a - 1.0, 0.0)
    return a * math.log(x) - x - math.log(d) if d > 0.0 else math.inf


def _upper_gamma_orders(a0: float, x: float):
    """(h_k, e_k) for k = 0, 1, 2, ..., an iterator: Gamma(a0 - k, x) =
    x^(a0-k) e^-x h_k, and an absolute bound e_k on the error of h_k, as
    _lower_gamma_orders gives.  The prefactor, and so its exponent's
    rounding, is the caller's, and no h_k underflows.

    The orders are reached by the recurrence x h(a+1) = a h(a) + 1, each
    way only where it is stable (Gautschi, ACM TOMS 5:466, 1979; Gil,
    Segura & Temme, SIAM J. Sci. Comput. 34:A2965, 2012): a step upward
    (_upward) multiplies the relative error by |a h(a)|/|a h(a) + 1|, a
    step downward (_downward, the lower gamma's too) the absolute one by
    x/|a|, and each adds its rounding.  For x >= 1.5, orders a >= 1 - x
    come upward from a Legendre fraction at the bottom of a block of
    _BLOCK orders, or lower, at an order <= x - 1, where the fraction holds
    (the interval [1 - x, x - 1] always holds one of the orders); orders
    below 1 - x come downward from the order above, or from a0's own
    fraction where a0 < 1 - x.
    For x < 1.5 the orders come from the pole-free anchor
    (_small_x_anchor): those at and above 0 upward from the anchor at a0 -
    floor(a0) in [0, 1), and those below 0 downward, the growing direction
    there, from the anchor at a0 - round(a0) in [-1/2, 1/2].  So no step
    divides by an order within 1/2 of 0: an upward step divides by x, a
    downward one by an order at most -1/2; and no step upward starts from
    an order below 0, where a h(a) + 1 cancels at small x.  Where a0 lies
    just below an integer, a step down from a0 - floor(a0), just below 1,
    would divide by an order near 0; a0 - round(a0) is that order itself.
    Every Legendre-anchored block (_legendre_block) and every x < 1.5
    anchor is core.shared, so a sweep builds each once per (order, x).  The
    x < 1.5 upward run and the steps downward stay per call: replayed from
    stored lists they measured slower than stepping again, on sweeps and on
    one-off calls alike.
    """
    if x >= _X_SPLIT:
        return _legendre_orders(a0, x)
    n, m = math.floor(a0), round(a0)  # a0 - n and a0 - m exact
    head = _upward(a0, x, 0, n, *shared(_small_x_anchor, a0 - n, x)) if n >= 0 else []
    if m > n or n < 0:  # the orders below 0 take their own anchor, at a0 - m
        h, r = shared(_small_x_anchor, a0 - m, x)
        head.append((h, h * r))
    # head[-1] is order a0 - m, the start downward; yielded only where m >= 0
    down = _downward(a0, x, -1.0, m + 1, *head[-1], head if m >= 0 else ())
    for _ in range(-1 - m):  # below 0 the first steps lead from the anchor down to a0
        next(down)
    return down


def _legendre_orders(a0: float, x: float):
    """_upper_gamma_orders at x >= 1.5: each Legendre-anchored block in
    turn, then the orders below 1 - x, stepped down from the last one's
    anchor."""
    # the last k with a0 - k >= 1 - x, or 0: a0 < 1 - x is a one-order block
    last = max(math.floor(a0 + x - 1.0), 0)
    first = math.ceil(a0 - x + 1.0)  # the first k with a0 - k <= x - 1
    k = 0
    while k <= last:
        b = min(max(k + _BLOCK - 1, first), last)
        block = shared(_legendre_block, a0, x, k, b)
        yield from block
        k = b + 1
    h, e = block[-1]  # the last block's anchor, order a0 - k + 1
    yield from _downward(a0, x, -1.0, k, h, e)  # orders b < 1 - x, where x h < 1


def _small_x_anchor(f: float, x: float):
    """(h, r) with Gamma(f, x) = x^f e^-x h for -1/2 <= f < 1 and x < 1.5,
    and a bound r on the relative error of h, from the pole-free form of
    the series (Temme, Probab. Eng. Inf. Sci. 8:291, 1994; Gil, Segura &
    Temme, SIAM J. Sci. Comput. 34:A2965, 2012)

        e^-x h = x^-f G(f) + (x^-f - 1)/f + s,  G(f) = (Gamma(1 + f) - 1)/f,

    s = -sum_(n>=1) (-x)^n/(n! (f + n)).  At f = 0 it is E1(x) = -euler -
    ln x + s.  No term has a pole: G is (gam1 - f tail)/gampl from
    _temme_gammas, (x^-f - 1)/f is -ln x expm1(w)/w, w = -f ln x, for |w| <=
    1 and the quotient itself beyond, where x^-f is at least e from 1, and
    s is x q_1 by Horner's rule backward, q_n = 1/(f + n) - x q_(n+1)/(n +
    1), from the n just below the first with x^n/n! <= EPS x/8, which
    bounds the alternating tail, at most EPS s/2 as s >= x/4 (its terms
    fall, x < 1.5).  Gamma(f, x) > 0, so the sum is positive; near x = 1.5
    its terms cancel, by up to 56 at f = -1/2, which the bound shows: at
    most 25 EPS at x <= 1/2, but 215 EPS at (-1/2, 1.4999), where the
    measured error is 24 EPS and rounding each term once costs 28.

    The bound adds, term by term to first order, u = EPS/2 for each of +,
    -, *, / and one ulp, at most EPS, for pow, log, exp and expm1:
    - G: measured against 100-digit values on [-1/2, 1], within 2.12 EPS
      (|gam1| + |f tail|)/gampl, the series' omitted terms included;
      taken with 3 EPS, times x^-f;
    - x^-f G: EPS for pow and u for the product;
    - (x^-f - 1)/f: for |w| <= 1, EPS for log, u for w's product, so
      3/2 EPS in w, which moves expm1(w)/w by at most 0.582 of it, EPS for
      expm1 and u each for the quotient and the product, within 4 EPS; for
      |w| > 1, pow's EPS times x^-f/|x^-f - 1| <= e/(e - 1) and u each for
      the difference and the quotient, within 4 EPS too;
    - s: each step carries x/(n + 1) times the bound on q_(n+1) and adds
      EPS |1/(f + n)| for the sum and quotient it takes, EPS |x
      q_(n+1)/(n + 1)| for its quotient and product and u |q_n|; then x
      times the bound, u s and the tail;
    - u for the sum of the three terms, which math.fsum rounds once, and
      EPS for exp and u for the product e^x times the sum, relative.
    """
    gam1, _, gampl, _, tail = _temme_gammas(f)
    log_x = math.log(x)
    w = -f * log_x
    # libm's pow, within an ulp; past the double range _exp_value raises, naming (f, x)
    xf = x**-f if w < LOG_HUGE else _exp_value(w, (f, x))
    lead = xf * (gam1 - f * tail) / gampl
    ratio = -log_x * (math.expm1(w) / w if w else 1.0) if -1.0 <= w <= 1.0 else (xf - 1.0) / f
    c, n, tiny = x, 1, 0.125 * EPS * x
    while c > tiny:
        n += 1
        c *= x / n
    q = e = 0.0
    for n in range(n - 1, 0, -1):
        m = x / (n + 1)
        mq = m * q
        q = 1.0 / (f + n) - mq
        e = m * e + 1.5 * q + 2.0 * mq  # in units of EPS; 1/(f + n) = q + mq, all three positive
    b = math.fsum((lead, ratio, x * q))
    err = 3.0 * EPS * xf * (abs(gam1) + abs(f * tail)) / gampl + EPS * x * e + c
    err += EPS * (1.5 * abs(lead) + 4.0 * abs(ratio) + 0.5 * (b + x * q))
    return math.exp(x) * b, err / b + 1.5 * EPS


def _legendre_block(a0: float, x: float, k: int, b: int):
    """_upward's (h_j, e_j), j = k, ..., b, from the Legendre fraction at a0 - b."""
    return _upward(a0, x, k, b, _legendre_cf(a0 - b, x), _CF_ERR)


def _upward(a0: float, x: float, k: int, b: int, h: float, r: float):
    """(h_j, e_j) for j = k, ..., b, e_j an absolute bound, from h_b and a
    bound r on its relative error by upward recurrence."""
    out = [(h, h * r)]
    for j in range(b, k, -1):
        ah = (a0 - j) * h
        h = (ah + 1.0) / x
        if h == math.inf:  # so are all orders above; stops the run early
            raise OverflowError(f"Gamma({a0 - j + 1}, {x}) x^-a e^x exceeds the double range")
        r = abs(ah) / (ah + 1.0) * (r + EPS) + 2.0 * EPS
        out.append((h, h * r))
    out.reverse()
    return out


def incomplete_gamma_asymptotic(a: float, x: float, m_max: int) -> float:
    """Large-argument asymptotic sum for Gamma(a, x).

    Evaluates x^(a-1) e^-x * sum_{m=0}^{m_max} (-1)^m (1-a)_m x^-m.  The sum
    is divergent for fixed x, so it is truncated early, before its first
    term that is no smaller than the last, when that happens before m_max;
    the first omitted term is the natural error scale (DLMF 8.11(i)).
    m_max is an int >= 0.  A value below the smallest normal double is an
    exact 0.0 (core.underflow_to_zero).
    """
    a = _as_finite_real("a", a)
    x = _as_positive("x", x)
    m_max = _as_count("m_max", m_max, 0)
    b = 1.0 - a
    total = 0.0
    term = last = 1.0
    for m in range(m_max + 1):
        total += term
        term *= -(b + m) / x
        if abs(term) >= last:
            break
        last = abs(term)
    # the sum is positive: its terms fall from 1 and alternate past m = a - 1
    return _exp_value((a - 1.0) * math.log(x) - x, f"a={a!r}, x={x!r}", total)


def _temme_gammas(mu: float):
    """Temme's gam1, gam2 and 1/Gamma(1+mu), 1/Gamma(1-mu) for |mu| <= 1/2,
    and the even part's tail (gam2 - 1)/mu^2.

    gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu) cancels as mu -> 0, so
    all four come from the Taylor series of 1/Gamma(1+x), split into its
    even and odd parts.  The tail is the even part's Horner value one step
    before its constant term, so gam2 keeps its bits, and with it
    (Gamma(1 + mu) - 1)/mu = (gam1 - mu tail)/(1/Gamma(1+mu)) has no pole
    (_small_x_anchor).  The 30 coefficients give 1/Gamma(1+mu) within 1.3
    EPS on all of [-1/2, 1] against 100-digit values, so the anchor reads
    them up to mu = 1 too; at |mu| <= 1/2, K's range, the terms past c_23
    are below 1e-22.
    """
    m2 = mu * mu
    tail = odd = 0.0
    for ce, co in _RGAMMA:
        tail = tail * m2 + ce
        odd = odd * m2 + co
    even = tail * m2 + 1.0
    return -odd, even, even + mu * odd, even - mu * odd, tail


def _k_temme(mu: float, z: float):
    """Temme's series for K_mu(z) and K_(mu+1)(z), |mu| <= 1/2, z < 2, and
    the exponent mu ln(2/z) of its (z/2)^+-mu."""
    x2 = 0.5 * z
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -log_half_ratio(z)
    e = mu * d
    fact2 = math.sinh(e) / e if e != 0.0 else 1.0
    gam1, gam2, gampl, gammi, _ = _temme_gammas(mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    s0 = ff
    e = math.exp(e)
    p = 0.5 * e / gampl  # (1/2) (z/2)^-mu Gamma(1+mu)
    q = 0.5 / (e * gammi)  # (1/2) (z/2)^mu Gamma(1-mu)
    s1 = p
    c = 1.0
    x4 = x2 * x2
    m2 = mu * mu
    for i in range(1, _MAX_ITER):
        ff = (i * ff + p + q) / (i * i - m2)
        c *= x4 / i
        p /= i - mu
        q /= i + mu
        d0 = c * ff
        d1 = c * (p - i * ff)
        s0 += d0
        s1 += d1
        if abs(d0) <= EPS * abs(s0) and abs(d1) <= EPS * abs(s1):
            # 2 s1/z, not s1/x2: x2 is 0 or inexact at a subnormal z
            return s0, 2.0 * s1 / z, i, mu * d
    raise NonConvergence(f"Temme series for K stalled at mu={mu}, z={z}")


def _k_steed(mu: float, z: float):
    """e^z K_mu(z) and e^z K_(mu+1)(z) from Steed's form of the
    Thompson-Barnett continued fraction CF2, |mu| <= 1/2, z >= 2."""
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) <= EPS * abs(s):
            k0 = math.sqrt(0.5 * math.pi / z) / s
            return k0, k0 * (mu + z + 0.5 - a1 * h) / z, i
    raise NonConvergence(f"continued fraction for K stalled at mu={mu}, z={z}")


def _bessel_i_series(order: float, z: float):
    """I_order(z) for order >= 0 from its power series (DLMF 10.25.2),
    (z/2)^order / Gamma(order + 1) sum_k (z^2/4)^k / (k! (order + 1)_k), and
    an absolute bound on its error: the sum's, core._sum_rounding's with
    five roundings a step, q = z^2/4's among them, times the prefactor,
    whose one exp carries the rounding of ln(z/2) times the order, of the
    product and of lgamma.  A value below the smallest normal double adds
    that double times the sum.  The loop runs about z terms, so this is
    for small and moderate z.
    """
    order = _as_nonnegative("order", order)
    z = _as_positive("z", z)
    q = 0.25 * z * z
    term = total = 1.0
    plain = stepped = 0.0
    for k in range(1, _MAX_ITER):
        term *= q / (k * (order + k))
        total += term
        plain += term + total
        stepped += k * term
        if term <= EPS * total:
            lead = order * log_half_ratio(z)
            lg = math.lgamma(order + 1.0)
            pref = math.exp(lead - lg)
            value = pref * total
            err = 2.0 * (abs(lead) + order + abs(lg) + 1.0) * EPS * value + pref * _sum_rounding(5.0, plain, stepped)
            if value < TINY:
                err += TINY * total
            return value, err
    raise NonConvergence(f"I series stalled at order={order}, z={z}", partial=total)


def _macdonald_k_eval(order: float, z: float):
    """K_order(z) with its error estimate and work count (series terms or
    continued-fraction steps, plus recurrence steps).

    The order is split as |order| = n + mu with |mu| <= 1/2.  K_mu and
    K_(mu+1) come from Temme's series for z < 2 and from Steed's continued
    fraction for z >= 2 (Temme, J. Comput. Phys. 19:324, 1975; Numerical
    Recipes bessik); forward recurrence in order, which is stable for K,
    carries them to K_|order|.  The continued fraction and the recurrence
    after it work on e^z K, rescaled by powers of two, so neither large
    orders nor large z lose the value before the underflow and overflow
    decisions, which are taken on log(e^z K) - z.
    """
    order = _as_finite_real("order", order)
    z = _as_positive("z", z)
    a = abs(order)  # K is even in the order
    # a + 0.5 would round to even at odd a in [2^52, 2^53), leaving mu = -1
    n = int(a)
    if a - n >= 0.5:
        n += 1
    mu = a - n
    base = _K_ERR_BASE
    if z < _Z_SPLIT:
        k0, k1, work, e = _k_temme(mu, z)
        scale = 0.0
        # Temme's (z/2)^+-mu carry the rounding of their exponent e, up to 372
        base = max(base, _K_ERR_EXP * abs(e))
    elif 0.5 * a * (a / z) - z < LOG_TINY - 1.0:
        # K <= sqrt(2 pi/z) e^(a^2/2z - z) (cosh s >= 1 + s^2/2, cosh(a s) <=
        # e^(a s)), and sqrt(2 pi/z) < e at z >= 2: K underflows, here up to
        # DBL_MAX, where Steed's 2(1 + z) would overflow
        return 0.0, 0.0, 0
    else:
        k0, k1, work = _k_steed(mu, z)
        scale = z
    steps = min(n, _MAX_STEPS)
    shift = 0  # K_(mu+i) = k0 * 2^shift * e^-scale
    two_over_z = 2.0 / z
    for i in range(1, steps + 1):
        k0, k1 = k1, (mu + i) * two_over_z * k1 + k0
        if k1 > _RESCALE_AT:
            k0 = math.ldexp(k0, -_RESCALE_BITS)
            k1 = math.ldexp(k1, -_RESCALE_BITS)
            shift += _RESCALE_BITS
            if math.log(k0) + shift * LN2 - scale > LOG_HUGE:
                # K grows with the order, so K_|order| overflows too
                raise OverflowError(f"K_{order}({z}) exceeds the double range")
    if steps < n:
        raise NonConvergence(f"order={order} needs more than {_MAX_STEPS} recurrence steps for K")
    work += steps
    m, e = math.frexp(k0)
    e += shift
    log_k = math.log(m) + e * LN2 - scale
    if log_k > LOG_HUGE:
        raise OverflowError(f"K_{order}({z}) exceeds the double range")
    # K underflows; returning here also bounds the e^-scale loop below, whose
    # ~scale/700 steps would never end at z = 1e300
    if log_k < LOG_TINY:
        return 0.0, 0.0, work
    # e^-scale as k factors e^(-scale/k), k a power of two so that scale/k
    # is exact and each factor is a normal double; frexp keeps every
    # product normal
    k = 1
    while scale > 700.0 * k:
        k *= 2
    h = math.exp(-scale / k)
    for _ in range(k):
        m, de = math.frexp(m * h)
        e += de
    value = math.ldexp(m, e)
    value, err, _ = underflow_to_zero(value, (base + _K_ERR_STEP * n) * EPS * value)
    return value, err, work


def macdonald_k(order: float, z: float) -> float:
    """K_order(z), the Macdonald function (modified Bessel function of the
    second kind), to full double precision.

    Computed by Temme's series or Steed's continued fraction and forward
    recurrence in order (see _macdonald_k_eval).  Returns an exact 0.0
    when the true value lies below the smallest normal double
    (underflow-to-zero policy) and raises OverflowError when it exceeds
    the double range.
    """
    value, _, _ = _macdonald_k_eval(order, z)
    return value
