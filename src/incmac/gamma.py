"""Gamma-family building blocks.

Provides the gamma function, the (non-regularized) upper incomplete gamma
function at any real order, its large-argument asymptotic sum, Pochhammer
products, and the Macdonald function K computed by quadrature so the whole
package stays self-contained and cross-checkable.
"""

import math

from .core import (
    EPS, EXP_FLOOR, LOG_TINY, DomainError, NonConvergence, PoleError, Tolerances, underflow_to_zero
)
from .quadrature import integrate_adaptive

__all__ = [
    "gamma",
    "upper_incomplete_gamma",
    "incomplete_gamma_asymptotic",
    "pochhammer",
    "macdonald_k",
]

_X_SPLIT = 1.5  # series/recurrence below, continued fraction at and above
_MAX_ITER = 1000
_EULER = 0.5772156649015328606065120900824024

_K_TOLERANCES = Tolerances(abs_tol=5e-324, rel_tol=1e-13, max_depth=100)


def gamma(a: float) -> float:
    """Gamma(a) for real a.

    Raises PoleError at a in {0, -1, -2, ...} and OverflowError when the
    value exceeds the double range.
    """
    if not math.isfinite(a):
        raise DomainError("a", a, "must be finite")
    if a <= 0.0 and a == math.floor(a):
        raise PoleError(f"gamma pole at a={a}")
    return math.gamma(a)


def _lower_series_sum(a: float, x: float) -> float:
    # sum_n x^n / (a (a+1) ... (a+n)),  the Kummer series for the lower tail
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) <= EPS * abs(total):
            return total
    raise NonConvergence(f"lower gamma series stalled at a={a}, x={x}", partial=total)


def _upper_from_series(a: float, x: float) -> float:
    # Gamma(a) - x^a e^-x * series; fine for x < 1.5 where the subtraction
    # loses at most a couple of digits
    return math.gamma(a) - math.exp(a * math.log(x) - x) * _lower_series_sum(a, x)


def _e1_series(x: float) -> float:
    # E1(x) = -euler - ln x + sum (-1)^(k+1) x^k / (k k!),  x < 1.5
    total = -_EULER - math.log(x)
    term = 1.0
    for k in range(1, _MAX_ITER):
        term *= -x / k
        piece = -term / k
        total += piece
        if abs(piece) <= EPS * abs(total):
            return total
    raise NonConvergence(f"E1 series stalled at x={x}", partial=total)


def _upper_cf(a: float, x: float) -> float:
    # Legendre continued fraction in modified Lentz form; valid for any real
    # order once x is away from 0, including the negative orders the series
    # expansions request
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
            e = a * math.log(x) - x
            if e < EXP_FLOOR:
                return 0.0
            return math.exp(e) * h
    raise NonConvergence(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x): the upper tail integral of tau^(a-1) e^-tau from x.

    Any finite real order is accepted; x must be strictly positive.  For
    x >= 1.5 the Legendre continued fraction is used at every order (the
    downward recurrence cancels catastrophically there).  For smaller x,
    positive orders subtract the lower-tail series from Gamma(a), order 0
    is the exponential integral E1, and negative orders step down from
    that anchor through Gamma(b-1, x) = (Gamma(b, x) - x^(b-1) e^-x)/(b-1),
    which is the growing (stable) direction at small x.
    """
    if not math.isfinite(a):
        raise DomainError("a", a, "must be finite")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError("x", x, "must be strictly positive")
    if x >= _X_SPLIT:
        return _upper_cf(a, x)
    if a > 0.0:
        return _upper_from_series(a, x)
    frac = a - math.floor(a)
    if frac == 0.0:
        g = _e1_series(x)
        top = 0.0
    else:
        g = _upper_from_series(frac, x)
        top = frac
    steps = round(top - a)
    emx = math.exp(-x)
    for i in range(1, steps + 1):
        b = top - i  # recurring down to order b
        g = (g - x**b * emx) / b
    return g


def incomplete_gamma_asymptotic(a: float, x: float, m_max: int) -> float:
    """Large-argument asymptotic sum for Gamma(a, x).

    Evaluates x^(a-1) e^-x * sum_{m=0}^{m_max} (-1)^m (1-a)_m x^-m.  The sum
    is divergent for fixed x, so it is truncated early at the smallest-
    magnitude term when that happens before m_max; the first omitted term
    is the natural error scale.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError("x", x, "must be strictly positive")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    total = 1.0
    term = 1.0
    for m in range(1, m_max + 1):
        nxt = term * (-(1.0 - a + (m - 1)) / x)
        if abs(nxt) >= abs(term):
            break  # past the optimal truncation point
        total += nxt
        term = nxt
    e = (a - 1.0) * math.log(x) - x
    if e < EXP_FLOOR:
        return 0.0
    return math.exp(e) * total


def pochhammer(a: float, m: int) -> float:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1); (a)_0 = 1."""
    if m < 0 or m != int(m):
        raise ValueError("m must be a nonnegative integer")
    result = 1.0
    for i in range(int(m)):
        result *= a + i
    if math.isinf(result):
        raise OverflowError(f"pochhammer({a}, {m}) exceeds the double range")
    return result


def _macdonald_k_eval(order: float, z: float, tol: Tolerances = None):
    """K with its quadrature error estimate and work count."""
    if not math.isfinite(order):
        raise DomainError("order", order, "must be finite")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("z", z, "must be strictly positive")
    tol = tol or _K_TOLERANCES
    a = abs(order)  # K is even in the order; the cosh form makes that exact
    if -z + 6.0 < LOG_TINY:
        return 0.0, 0.0, 0  # bounded above by ~e^-z here
    hi = 1.0
    while z * math.cosh(hi) - a * hi < 780.0:
        hi += 0.5

    def f(u):
        zc = z * math.cosh(u)
        return 0.5 * (math.exp(-zc + a * u) + math.exp(-zc - a * u))

    pts = [u for u in (math.asinh(a / z), 0.25 * hi, 0.5 * hi, 0.75 * hi) if 0.0 < u < hi]
    res = integrate_adaptive(f, 0.0, hi, tol, points=pts)
    if not res.converged:
        raise NonConvergence(
            f"K quadrature did not converge at order={order}, z={z}",
            partial=res.value,
            error_estimate=res.error_estimate,
        )
    value, err, _ = underflow_to_zero(res.value, res.error_estimate)
    return value, err, res.subdivisions


def macdonald_k(order: float, z: float, tol: Tolerances = None) -> float:
    """K_order(z) by adaptive quadrature of the even cosh representation
    integral over u in (0, inf) of e^(-z cosh u) cosh(order u).

    Returns an exact 0.0 when the true value lies below the smallest
    normal double (underflow-to-zero policy).
    """
    value, _, _ = _macdonald_k_eval(order, z, tol)
    return value
