"""Gamma-family building blocks.

Provides the gamma function, the (non-regularized) upper incomplete gamma
function at any real order, the lower incomplete gamma at any non-integer
order (the Kummer series, continued past a < 0, with a bound on its
rounding), both at consecutive orders a0 - k by recurrence in the order
(_upper_gamma_orders and _lower_gamma_orders, which the series of S use;
a sweep shares every anchor and every Legendre-anchored block of upper
orders through core.shared), the upper one's large-argument asymptotic
sum, which no series of S uses, the modified Bessel function I from its
power series, and the Macdonald function K to full double precision by
Temme's series, Steed's continued fraction and forward recurrence in
order.  No other module evaluates an incomplete gamma.  Nothing here
integrates: the quadrature oracle stays an independent check on every value.
"""

import math

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
# 50-digit arithmetic
_CF_ERR = 64.0 * EPS
_EULER = 0.5772156649015328606065120900824024
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
# Taylor coefficients of 1/Gamma(1+x) about 0, even and odd powers
# (c_0 = 1, c_1 = Euler's constant), rounded from 40-digit values
_RGAMMA_EVEN = (
    1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
    -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
    -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
    -3.696805618642206e-12, -2.0583260535665066e-14,
)
_RGAMMA_ODD = (
    0.5772156649015329, -0.04200263503409524, -0.04219773455554433, 0.0072189432466631,
    -0.00021524167411495098, -2.013485478078824e-05, 1.133027231981696e-06,
    6.116095104481416e-09, -1.18127457048702e-09, 7.782263439905071e-12,
    5.100370287454476e-13, -5.348122539423018e-15,
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
    """Yields (L_k, e_k) for k = 0, 1, 2, ...: gamma(a0 - k, x) = x^(a0-k)
    e^-x L_k for non-integer a0, and an absolute bound e_k on the error of
    L_k.  The prefactor is left to the caller, as in _upper_gamma_orders.

    L_0 is one Kummer sum, core.shared; the orders below it come by the
    recurrence b L(b) = 1 + x L(b+1), downward, the stable direction for
    the lower gamma.  A step multiplies the carried error by x/|b| and adds
    EPS of x L, of 1 + x L and of the quotient (b = a0 - k is one rounding
    of an exact value).  Where 1 + x L cancels, near a zero of gamma(b, x),
    the bound stays absolute and so stays honest.
    """
    lk, err = shared(_kummer_sum, a0, x)
    k = 0
    while True:
        yield lk, err
        k += 1
        b = a0 - k
        xl = x * lk
        d = 1.0 + xl
        lk = d / b
        err = (x * err + EPS * (abs(xl) + abs(d))) / abs(b) + EPS * abs(lk)


def _upper_from_series(a: float, x: float) -> float:
    # Gamma(a) - x^a e^-x * series; fine for x < 1.5, or x < a + 1, where the
    # subtraction loses at most a couple of digits; in logs past the double range
    try:
        return math.gamma(a) - math.exp(a * math.log(x) - x) * _kummer_sum(a, x)[0]
    except OverflowError:
        lg = math.lgamma(a)
        return _exp_value(lg + math.log1p(-math.exp(a * math.log(x) - x - lg) * _kummer_sum(a, x)[0]), f"a={a!r}, x={x!r}")


def _e1_series(x: float):
    """E1(x) = -euler - ln x + sum (-1)^(k+1) x^k / (k k!) for x < 1.5, and an
    absolute bound on its rounding: the constant's and the logarithm's,
    and core._sum_rounding's, term k being (-x)^k/k! after k steps of two
    roundings each, divided by -k."""
    log_x = math.log(x)
    total = -_EULER - log_x
    plain, stepped, term = abs(total), 0.0, 1.0
    for k in range(1, _MAX_ITER):
        term *= -x / k
        piece = -term / k
        total += piece
        size = abs(piece)
        plain += size + abs(total)
        stepped += k * size
        if size <= EPS * abs(total):
            return total, EPS * (_EULER + abs(log_x)) + _sum_rounding(2.0, plain, stepped)
    raise NonConvergence(f"E1 series stalled at x={x}", partial=total)


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
    (Numerical Recipes section 6.2); those, and positive orders below
    x = 1.5, subtract the lower-tail series from Gamma(a).  Nonpositive
    orders below x = 1.5 take the first value of _upper_gamma_orders,
    which steps down from an E1 or Kummer anchor.  One call computes one
    order; the series of S take consecutive orders from
    _upper_gamma_orders instead.  A value below the smallest normal double
    is an exact 0.0 (core.underflow_to_zero), as for K.
    """
    a = _as_finite_real("a", a)
    x = _as_positive("x", x)
    if a > 0.0 and (x < _X_SPLIT or x < a + 1.0):
        return _upper_from_series(a, x)
    e = a * math.log(x) - x
    if x >= _X_SPLIT:
        # the fraction h = int_0^inf e^-u (1 + u/x)^(a-1) du / x is at most
        # 1/x for a <= 1 and 1/(x + 1 - a) for x >= a + 1, so below 1 here:
        # e^e below the smallest normal double puts the value there too
        if e < LOG_TINY:
            return 0.0
        h = _legendre_cf(a, x)
    else:
        h, _ = next(_upper_gamma_orders(a, x))
    if e > LOG_HUGE:  # e^e overflows where the value, e^(e + ln h), may not
        return _exp_value(e + math.log(h), f"a={a!r}, x={x!r}")
    return underflow_to_zero(math.exp(e) * h, 0.0)[0]


def _upper_gamma_orders(a0: float, x: float):
    """Yields (h_k, e_k) for k = 0, 1, 2, ...: Gamma(a0 - k, x) = x^(a0-k)
    e^-x h_k, and an absolute bound e_k on the error of h_k, as
    _lower_gamma_orders does.  The prefactor, and so its exponent's
    rounding, is the caller's, and no h_k underflows.

    The orders are reached by the recurrence x h(a+1) = a h(a) + 1, each
    way only where it is stable (Gautschi, ACM TOMS 5:466, 1979; Gil,
    Segura & Temme, SIAM J. Sci. Comput. 34:A2965, 2012): a step upward
    multiplies the relative error by |a h(a)|/|a h(a) + 1|, a step downward
    the absolute one by x/|a|, and each adds its rounding.  For
    x >= 1.5, orders a >= 1 - x come upward from a Legendre fraction at the
    bottom of a block of _BLOCK orders, or lower, at an order <= x - 1,
    where the fraction holds (the interval [1 - x, x - 1] always holds one
    of the orders); orders below 1 - x come downward from the order above,
    or from a0's own fraction where a0 < 1 - x.
    For x < 1.5 the anchor is the order a0 - floor(a0) in [0, 1)
    (_small_x_anchor); orders above it come upward and orders below it
    downward, the growing direction there.  Every Legendre-anchored block
    (_legendre_block) and every x < 1.5 anchor is core.shared, so a sweep
    builds each once per (order, x).  The x < 1.5 upward run and the steps
    downward stay per call: replayed from stored lists they measured slower
    than stepping again, on sweeps and on one-off calls alike.
    """
    if x >= _X_SPLIT:
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
    else:
        n = math.floor(a0)
        h, r = shared(_small_x_anchor, a0 - n, x)  # a0 - n exact
        if n >= 0:
            yield from _upward(a0, x, 0, n, h, r)
        k = n + 1  # the first step down; below 0 it leads to a0 unyielded
        e = h * r
    while True:  # downward: h_k from h_(k-1), at orders b < 0, where x h < 1
        xh = x * h
        b = a0 - k
        h = (xh - 1.0) / b
        e = (x * e + EPS * xh) / -b + 2.0 * EPS * h
        if k >= 0:
            yield h, e
        k += 1


def _small_x_anchor(f: float, x: float):
    """(h, r) with Gamma(f, x) = x^f e^-x h for 0 <= f < 1 and x < 1.5, and a
    bound r on the relative error of h: from E1 at f = 0, from Gamma(f)
    minus the Kummer sum otherwise."""
    if f == 0.0:
        e1, err = _e1_series(x)
        h = math.exp(x) * e1
        return h, err / e1 + EPS * (x + 2.0)
    lead = _exp_value(x - f * math.log(x), (f, x)) * math.gamma(f)
    kummer, err = shared(_kummer_sum, f, x)  # the split form at order -f starts from it too
    h = lead - kummer
    return h, (EPS * (f * abs(math.log(x)) + x + 4.0) * lead + err + EPS * kummer) / h


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
    e = (a - 1.0) * math.log(x) - x
    if e > LOG_HUGE:  # the sum is positive: its terms fall from 1 and alternate past m = a - 1
        return _exp_value(e + math.log(total), f"a={a!r}, x={x!r}")
    return underflow_to_zero(math.exp(e) * total, 0.0)[0]


def _temme_gammas(mu: float):
    """Temme's gam1, gam2 and 1/Gamma(1+mu), 1/Gamma(1-mu) for |mu| <= 1/2.

    gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu) cancels as mu -> 0, so
    all four come from the Taylor series of 1/Gamma(1+x), split into its
    even and odd parts.
    """
    m2 = mu * mu
    even = 0.0
    for c in reversed(_RGAMMA_EVEN):
        even = even * m2 + c
    odd = 0.0
    for c in reversed(_RGAMMA_ODD):
        odd = odd * m2 + c
    return -odd, even, even + mu * odd, even - mu * odd


def _k_temme(mu: float, z: float):
    """Temme's series for K_mu(z) and K_(mu+1)(z), |mu| <= 1/2, z < 2, and
    the exponent mu ln(2/z) of its (z/2)^+-mu."""
    x2 = 0.5 * z
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -log_half_ratio(z)
    e = mu * d
    fact2 = math.sinh(e) / e if e != 0.0 else 1.0
    gam1, gam2, gampl, gammi = _temme_gammas(mu)
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
