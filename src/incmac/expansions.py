"""Series and asymptotic evaluators of S, plus the leading-term approximants.

The two series (small endpoint, small argument) are convergent everywhere
in the real domain and act as exact evaluators with tail bounds; the
large-endpoint double sum is asymptotic and truncated at its smallest
term.  The leading_* functions are bare approximants with no error
control, exposed for the ratio-law checks and figure overlays.
"""

import math
import warnings
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    EXP_FLOOR,
    FLAG_CANCELLATION,
    TINY,
    DomainError,
    Evaluation,
    MethodTag,
    NearPoleWarning,
    NonConvergence,
    ShuParams,
    Tolerances,
    underflow_to_zero,
)
from .gamma import _macdonald_k_eval, upper_incomplete_gamma

__all__ = [
    "TruncatedSum",
    "series_small_t",
    "leading_small_t",
    "series_small_z",
    "leading_small_z",
    "asympt_large_t",
    "leading_large_z",
    "leading_imb_large_z",
]

_CANCEL_LIMIT = 1e6


@dataclass(frozen=True)
class TruncatedSum:
    """A truncated series: value, terms used, last included term, tail bound."""

    value: float
    terms_used: int
    last_term: float
    tail_bound: float


def _series_core(coef: float, step: float, order_at, x: float, tol: Tolerances):
    """Shared loop for the two convergent expansions.

    Terms are coef_k * Gamma(order_at(k), x) with coef_{k+1} = coef_k * step/(k+1).
    Stops only after two consecutive terms fall below the target; alternating
    sums can produce an accidentally tiny single term.  Subnormal gamma
    factors only carry absolute 5e-324 quantization, which the growing
    coefficients amplify; that loss is tracked and returned so callers can
    report it.
    """
    total = 0.0
    peak = 0.0
    qerr = 0.0
    streak = 0
    terms = 0
    for k in range(tol.max_terms):
        g = upper_incomplete_gamma(order_at(k), x)
        if 0.0 < abs(g) < TINY:
            qerr += abs(coef) * 5e-324
        term = coef * g
        total += term
        terms += 1
        peak = max(peak, abs(total))
        coef *= step / (k + 1)
        if abs(term) < tol.target(total):
            streak += 1
            if streak >= 2:
                tail = abs(coef * upper_incomplete_gamma(order_at(terms), x))
                return TruncatedSum(total, terms, abs(term), tail), peak, qerr
        else:
            streak = 0
    raise NonConvergence(
        f"series did not converge within {tol.max_terms} terms",
        partial=total,
        error_estimate=abs(term),
    )


def series_small_t(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """Convergent expansion of S in incomplete gammas of argument z^2/(4t).

    Efficient when z^2/(4t) is a few units or more, yet convergent for all
    parameters (the k! eventually dominates).  Tail bound is the first
    omitted term.
    """
    tol = tol or DEFAULT_TOLERANCES
    nu, z, t = p.order, p.argument, p.endpoint
    x0 = 0.25 * z * z / t
    coef0 = 0.5 * (0.5 * z) ** (-nu)
    summed, peak, qerr = _series_core(coef0, -0.25 * z * z, lambda k: nu - k, x0, tol)
    flags = ()
    if peak > _CANCEL_LIMIT * abs(summed.value):
        flags = (FLAG_CANCELLATION,)
    err = summed.tail_bound + 32.0 * EPS * peak + qerr
    value, err, flags = underflow_to_zero(summed.value, err, flags)
    return Evaluation(value, err, MethodTag.SERIES_SMALL_T, summed.terms_used, flags)


def series_small_z(p: ShuParams, tol: Tolerances = None, *, k_eval=None) -> Evaluation:
    """K minus the convergent expansion in incomplete gammas of argument t.

    Mathematically valid everywhere; numerically hostile at small t where
    the summands alternate with large magnitude, which is reported through
    the severe-cancellation flag.  k_eval, when given, is the precomputed
    _macdonald_k_eval(order, argument) triple (value, error, work).
    """
    tol = tol or DEFAULT_TOLERANCES
    nu, z, t = p.order, p.argument, p.endpoint
    kval, kerr, kwork = k_eval or _macdonald_k_eval(nu, z)
    coef0 = 0.5 * (0.5 * z) ** nu
    summed, peak, qerr = _series_core(coef0, -0.25 * z * z, lambda k: -nu - k, t, tol)
    value = kval - summed.value
    flags = ()
    if max(abs(summed.value), peak) > _CANCEL_LIMIT * abs(value):
        flags = (FLAG_CANCELLATION,)
    err = summed.tail_bound + kerr + 32.0 * EPS * max(peak, abs(kval)) + qerr
    value, err, flags = underflow_to_zero(value, err, flags)
    return Evaluation(value, err, MethodTag.SERIES_SMALL_Z, summed.terms_used, flags)


def asympt_large_t(p: ShuParams, tol: Tolerances = None, *, k_eval=None) -> Evaluation:
    """K minus the doubly truncated large-endpoint correction.

    The inner sum (powers of 1/t) is asymptotic and truncated at its
    smallest term; the outer sum (powers of (z/2)^2/t) is convergent and
    truncated on term smallness.  The reported tail bound is the largest
    first-omitted inner term over the retained outer terms, plus the first
    omitted outer term.  k_eval, when given, is the precomputed
    _macdonald_k_eval(order, argument) triple (value, error, work).
    """
    tol = tol or DEFAULT_TOLERANCES
    nu, z, t = p.order, p.argument, p.endpoint
    kval, kerr, kwork = k_eval or _macdonald_k_eval(nu, z)
    e = nu * math.log(0.5 * z) - math.log(2.0) - t - (nu + 1.0) * math.log(t)
    if e <= EXP_FLOOR:
        # correction is far below double resolution of K
        return Evaluation(kval, kerr, MethodTag.ASYMPT_LARGE_T, kwork)
    base = math.exp(e)

    corr = 0.0
    tail = 0.0
    work = 0
    kfac = 1.0
    streak = 0
    converged = False
    for k in range(tol.max_terms):
        msum = 0.0
        mterm = 1.0
        omitted = None
        for m in range(tol.max_terms + 1):
            msum += mterm
            work += 1
            nxt = mterm * (-(nu + k + 1.0 + m) / t)
            if abs(nxt) >= abs(mterm):
                omitted = abs(nxt)
                break
            mterm = nxt
        if omitted is None:
            if abs(mterm) > tol.target(kval):
                raise NonConvergence(
                    f"no asymptotic truncation point within {tol.max_terms} terms at t={t}",
                    partial=kval - corr,
                )
            omitted = abs(mterm)
        kterm = base * kfac * msum
        corr += kterm
        tail = max(tail, base * abs(kfac) * omitted)
        kfac *= -0.25 * z * z / ((k + 1.0) * t)
        if abs(kterm) < tol.target(kval - corr):
            streak += 1
            if streak >= 2:
                converged = True
                break
        else:
            streak = 0
    if not converged:
        raise NonConvergence("outer expansion did not converge", partial=kval - corr)
    value = kval - corr
    err = kerr + tail + base * abs(kfac) + 16.0 * EPS * (abs(kval) + abs(corr))
    value, err, flags = underflow_to_zero(value, err)
    return Evaluation(value, err, MethodTag.ASYMPT_LARGE_T, kwork + work, flags)


def leading_small_t(p: ShuParams) -> float:
    """Leading small-endpoint approximant (1/2)(z/2)^(nu-2) e^(-z^2/4t) t^(1-nu).

    Returns an exact 0.0 when the exponential underflows.
    """
    nu, z, t = p.order, p.argument, p.endpoint
    e = (nu - 2.0) * math.log(0.5 * z) - math.log(2.0) + (1.0 - nu) * math.log(t) - 0.25 * z * z / t
    return math.exp(e)


def leading_small_z(p: ShuParams) -> float:
    """Leading small-argument approximant: -ln z at order 0, else
    2^(|nu|-1) Gamma(|nu|) / z^|nu| (even in the order)."""
    nu, z = p.order, p.argument
    if nu == 0.0:
        return -math.log(z)
    a = abs(nu)
    return math.exp((a - 1.0) * math.log(2.0) + math.lgamma(a) - a * math.log(z))


def leading_large_z(p: ShuParams) -> float:
    """Leading large-argument approximant z^nu e^(-z^2/4t - t) / ((2t)^(nu-1)(z^2 - 4t^2)).

    Only valid for z > 2t, where the exponent's endpoint minimum sits at
    positive ln(z/2t); the denominator has a pole at z = 2t.  Emits
    NearPoleWarning when z < 2.5t.
    """
    nu, z, t = p.order, p.argument, p.endpoint
    if z <= 2.0 * t:
        raise DomainError("argument", z, f"large-argument form needs z > 2t = {2.0 * t}")
    if z < 2.5 * t:
        warnings.warn(
            f"z={z} is within 25% of the 2t={2.0 * t} pole; approximant unreliable",
            NearPoleWarning,
            stacklevel=2,
        )
    return math.exp(
        nu * math.log(z)
        - 0.25 * z * z / t
        - t
        - (nu - 1.0) * math.log(2.0 * t)
        - math.log(z * z - 4.0 * t * t)
    )


def leading_imb_large_z(order: float, z: float, t_imb: float) -> float:
    """Large-argument approximant of the truncated cosh integral:
    cosh(order*t) e^(-z cosh t) / (2 z sinh t), for endpoint t_imb > 0."""
    if not (math.isfinite(t_imb) and t_imb > 0.0):
        raise DomainError("t_imb", t_imb, "must be strictly positive (sinh pole at 0)")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("z", z, "must be strictly positive")
    a = abs(order * t_imb)
    log_cosh = a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)
    return math.exp(log_cosh - z * math.cosh(t_imb) - math.log(2.0 * z * math.sinh(t_imb)))
