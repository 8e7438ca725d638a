"""Domain types, parameter validation, and shared numeric policy.

Everything in this package evaluates functions of the triple
(order, argument, endpoint) with a strictly positive real argument and
endpoint.  The types here carry evaluation points, accuracy targets, and
results between the quadrature, series, and identity-checking modules.
"""

import contextvars
import math
import sys
from collections import namedtuple
from enum import Enum

__all__ = [
    "DomainError",
    "PoleError",
    "NonConvergence",
    "StepTooCoarse",
    "NearPoleWarning",
    "FLAG_UNDERFLOW",
    "MethodTag",
    "ShuParams",
    "Tolerances",
    "Evaluation",
    "DEFAULT_TOLERANCES",
    "TIGHT",
    "EPS",
    "TINY",
    "LOG_TINY",
    "LOG_HUGE",
    "LN2",
    "log_half_ratio",
    "underflow_to_zero",
    "shared_work",
    "shared",
    "validate",
]

# Shared numeric policy; every module takes these from here.
EPS = 2.220446049250313e-16  # double machine epsilon
TINY = 2.2250738585072014e-308  # smallest normal double
LOG_TINY = math.log(TINY)
LOG_HUGE = math.log(sys.float_info.max)
LN2 = math.log(2.0)


def log_half_ratio(z: float, t: float = 1.0) -> float:
    """ln(z/2t) for z, t > 0: log(z/2t) where that quotient is a normal
    double, rounded once as z/(t + t), not (z/2)/t (at z = 2.5e-323 z/2
    rounds to 0.8 of itself), and from the logs of its parts where it is
    subnormal or 0 (at a subnormal z or a huge t)."""
    q = z / (t + t)
    return math.log(q) if q >= TINY else math.log(z) - math.log(t) - LN2


class DomainError(ValueError):
    """An input breaks the input rule (_as_finite_real, or _as_count for a
    count): not a finite real or not an int, or out of its range."""

    def __init__(self, field: str, value, reason: str):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value!r}: {reason}")


class PoleError(ValueError):
    """The gamma function was requested at one of its poles (0, -1, -2, ...)."""


class NonConvergence(ArithmeticError):
    """An iterative evaluation did not reach its tolerance within its caps.

    Carries the partial result and its error estimate at the point of failure,
    when they are meaningful.
    """

    def __init__(self, message: str, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class StepTooCoarse(ArithmeticError):
    """A finite-difference stencil failed its step-halving consistency check."""


class NearPoleWarning(UserWarning):
    """A large-argument approximant was evaluated close to its z = 2t pole."""


# The flag carried on Evaluation.flags.
FLAG_UNDERFLOW = "underflow_to_zero"


class MethodTag(Enum):
    """Which evaluation path produced a value."""

    ORACLE2 = "Oracle2"
    ORACLE4 = "Oracle4"
    ORACLE5 = "Oracle5"
    SERIES_SMALL_T = "SeriesSmallT"
    SERIES_SMALL_Z = "SeriesSmallZ"
    ASYMPT_LARGE_T = "AsymptLargeT"
    CLOSED_FORM_HALF = "ClosedFormHalf"


def _as_finite_real(field: str, value) -> float:
    """The one input rule: value as a float, or DomainError naming field
    where it is not a finite int or float (a bool is not one)."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(field, value, "must be a real number")
    if not math.isfinite(value):
        raise DomainError(field, value, "must be finite")
    return float(value)


def _as_positive(field: str, value) -> float:
    """_as_finite_real for an input that must be above 0."""
    if not (type(value) is float and 0.0 < value < math.inf):
        value = _as_finite_real(field, value)
        if value <= 0.0:
            raise DomainError(field, value, "must be strictly positive")
    return value


def _as_nonnegative(field: str, value) -> float:
    """_as_finite_real for an input that must not be below 0."""
    if not (type(value) is float and 0.0 <= value < math.inf):
        value = _as_finite_real(field, value)
        if value < 0.0:
            raise DomainError(field, value, "must be nonnegative")
    return value


def _as_count(field: str, value, least: int) -> int:
    """The input rule for a count: value itself, or DomainError naming
    field where it is not an int (a bool is not one) or is below least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(field, value, "must be an integer")
    if value < least:
        raise DomainError(field, value, f"must be at least {least}")
    return value


class ShuParams(namedtuple("ShuParams", "order argument endpoint")):
    """An evaluation point: real order, argument z > 0, endpoint t > 0."""

    __slots__ = ()

    def __new__(cls, order, argument, endpoint):
        # floats the input rule keeps as given skip its three calls
        if not (type(order) is type(argument) is type(endpoint) is float and -math.inf < order < math.inf
                and 0.0 < argument < math.inf and 0.0 < endpoint < math.inf):
            order = _as_finite_real("order", order)
            argument = _as_positive("argument", argument)
            endpoint = _as_positive("endpoint", endpoint)
        return tuple.__new__(cls, (order, argument, endpoint))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate as the constructor does
        return cls(*iterable)


def validate(order, argument, endpoint) -> ShuParams:
    """The point ShuParams(order, argument, endpoint), or DomainError
    naming the first field the input rule refuses."""
    return ShuParams(order, argument, endpoint)


class Tolerances(namedtuple("Tolerances", "abs_tol rel_tol max_depth")):
    """Accuracy targets and the quadrature work cap.

    abs_tol and rel_tol are combined as max(abs_tol, rel_tol * |value|);
    max_depth caps quadrature bisections.  DomainError names a tolerance
    that is not finite and nonnegative, or a max_depth that is not an int >= 1.
    """

    __slots__ = ()

    def __new__(cls, abs_tol=1e-12, rel_tol=1e-10, max_depth=60):
        abs_tol = _as_nonnegative("abs_tol", abs_tol)
        rel_tol = _as_nonnegative("rel_tol", rel_tol)
        if abs_tol == 0.0 and rel_tol == 0.0:
            raise DomainError("rel_tol", rel_tol, "must be positive where abs_tol is 0")
        max_depth = _as_count("max_depth", max_depth, 1)
        return tuple.__new__(cls, (abs_tol, rel_tol, max_depth))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def target(self, scale: float) -> float:
        """Absolute convergence target for a quantity of magnitude |scale|:
        max(abs_tol, rel_tol |scale|), abs_tol where the product is NaN.
        A comparison, since the builtin max costs six times as much in the
        series loops that call this once per term (rejection inlines it)."""
        t = self.rel_tol * abs(scale)
        return t if t > self.abs_tol else self.abs_tol


DEFAULT_TOLERANCES = Tolerances()

# Tight targets: the CLI default, and what the identity checks and the
# half-order gate need so that oracle noise sits well under their thresholds.
TIGHT = Tolerances(abs_tol=5e-324, rel_tol=1e-12, max_depth=120)


class Evaluation(namedtuple("Evaluation", "value error_estimate method work flags")):
    """A computed value with an absolute error estimate and provenance.

    work counts quadrature subdivisions or series terms, whichever the
    method used; where the K form of either K-based candidate returns
    K_nu(z) alone, 0.
    flags may carry FLAG_UNDERFLOW (true value below the smallest normal
    double, 0.0 returned).  Construction applies
    underflow_to_zero, so no path sets FLAG_UNDERFLOW itself.  A sum that
    cancels shows it in error_estimate, whose rounding every series bounds
    from its partial sums (_sum_rounding); under an absolute target a value below abs_tol may
    carry either sign within that estimate.
    """

    __slots__ = ()

    def __new__(cls, value, error_estimate, method, work, flags=()):
        if error_estimate < 0.0:
            raise ValueError("error_estimate must be nonnegative")
        if work < 0:
            raise ValueError("work must be nonnegative")
        if abs(value) < TINY:
            value, error_estimate, flags = underflow_to_zero(value, error_estimate, flags)
        return tuple.__new__(cls, (value, error_estimate, method, work, flags))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def rejection(self, tol: Tolerances):
        """Why this value fails tol, or None: "TAIL_TOO_LARGE" when the
        error estimate exceeds tol.target(value) (compared term by term), a
        NaN estimate included, else "OVERFLOW" when the value or estimate is
        not finite.  The one acceptance rule for a series or closed-form candidate."""
        value, err = self[0], self[1]
        if not (err <= tol.rel_tol * abs(value) or err <= tol.abs_tol):
            return "TAIL_TOO_LARGE"
        return None if err < math.inf and abs(value) < math.inf else "OVERFLOW"


def underflow_to_zero(value: float, err: float, flags: tuple = ()):
    """The underflow-to-zero policy for a computed value and its error.

    S is positive, so a subnormal value, or an exact 0.0 whose error is
    below the smallest normal double too, means S underflowed: it becomes
    an exact 0.0 with zero error and FLAG_UNDERFLOW in flags, added once.
    Anything else, 0.0 with a larger or NaN error included, is returned
    unchanged.  Returns (value, err, flags).
    """
    if abs(value) < TINY and (value != 0.0 or err < TINY):
        return 0.0, 0.0, flags if FLAG_UNDERFLOW in flags else flags + (FLAG_UNDERFLOW,)
    return value, err, flags


def _sum_rounding(c: float, plain: float, stepped: float) -> float:
    """The one rounding bound of a sum formed term by term (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., §3.3): term k, a
    coefficient after k steps of c roundings each times a factor, adds EPS
    (1 + c k) |term_k| and EPS |s_k| for its addition to the partial sum s_k.
    plain = sum |term_k| + |s_k| and stepped = sum k |term_k| are the loop's
    running sums, as is |coef_k| times each factor's own absolute bound."""
    return EPS * (plain + c * stepped)


def _exp_value(log_value: float, p, mantissa: float = 1.0) -> float:
    """mantissa e^log_value, mantissa >= 0, a closed form's value at p: 0.0
    below the smallest normal double (underflow_to_zero), OverflowError
    naming p past the double range.  Where e^log_value alone leaves the
    double range, ln mantissa joins the exponent, so the value is lost only
    where it leaves the range itself; a mantissa of 0.0, an S flagged
    underflow_to_zero, gives 0.0."""
    if log_value > LOG_HUGE or log_value < LOG_TINY:
        if not mantissa:
            return 0.0
        log_value += math.log(mantissa)
        mantissa = 1.0
        if log_value > LOG_HUGE:
            raise OverflowError(f"the value exceeds the double range at {p}: ln = {log_value:.6g} > ln DBL_MAX")
    return underflow_to_zero(math.exp(log_value) * mantissa, 0.0)[0]


def _y_peak(nm1: float, c: float) -> float:
    """The peak y* of y^nm1 e^(-y - c/y), c > 0, rationalised where it rounds to 0."""
    h = math.hypot(nm1, 2.0 * math.sqrt(c))
    ystar = 0.5 * (nm1 + h)
    return ystar if ystar > 0.0 else 2.0 * c / (h - nm1)


def _log_s_peak(p) -> float:
    """ln of S's y-form (1/2)(2/z)^nu int_x0^inf g, g(y) = y^(nu-1) e^(-y - c/y), c = z^2/4,
    x0 = c/t, with g at its peak on (x0, inf), max(x0, y*): the scale of S, not a bound;
    inf where that peak underflows to 0, which needs nu < 1, so that y^(nu-1) has no bound."""
    nu, z = p.order, p.argument
    c = 0.25 * z * z
    y = max(c / p.endpoint, _y_peak(nu - 1.0, c))
    if y == math.inf:  # e^-y vanishes against every power of y
        return -math.inf
    if y == 0.0:
        return math.inf
    return nu * math.log(2.0 / z) - LN2 + (nu - 1.0) * math.log(y) - y - c / y


def _log_s_upper(p) -> float:
    """An upper bound on ln S, z^2/4 > 0, x0 finite: with e^(-y/2) taken out of g, the
    peak on y >= x0 is at _y_peak(2(nu - 1), 2c), plus 1 for the rounding; inf where
    that peak and x0 both round to 0."""
    nu, z = p.order, p.argument
    c = 0.25 * z * z
    x = c / p.endpoint
    y = max(x, _y_peak(2.0 * (nu - 1.0), 2.0 * c))
    if y == 0.0:
        return math.inf
    return (nu - 1.0) * math.log(y) - nu * log_half_ratio(z) - 0.5 * (x + y) - c / y + 1.0


def _log_s_lower(p) -> float:
    """A lower bound on ln S: g falls past Y0 = max(x0, y*), so
    S >= (1/2)(2/z)^nu w min(g(Y0), g(Y0 + w)) for every w > 0, g(Y0) in
    case the computed y* lies short of the peak.  Where Y0 rounds to 0,
    x0 and y* lie below TINY, so g falls past Y0 = TINY.  The best of the
    w in (1, sqrt Y0, Y0/4, Y0) that do not round to 0, with 8 EPS times
    each term's size taken off ln g and off the prefactor's log, and 1 off
    the sum; -inf, no bound, where Y0 is inf or a term passes the double
    range.  Where z^2/4 is subnormal, c = TINY stands in for it: a larger c
    only lowers g and shortens the range, so the bound stays a lower bound.

    At nu < 0, where that stand-in leaves the bound far below S, the
    endpoint form S = (1/2)(z/2)^nu int_0^t s^(-nu-1) e^(-s - z^2/4s) ds
    bounds it too: over s in [w/2, w], w <= t, where z^2/4s <= 1 once
    z^2/4 <= w/2, S >= (1/2)(z/2)^nu (w/2) e^(-1-w) min((w/2)^(-nu-1),
    w^(-nu-1)), at w = t and at w = min(t, max(1, -nu)), near the peak of
    s^-nu e^-s, with 8 EPS times each term's size taken off."""
    nu, z = p.order, p.argument
    nm1 = nu - 1.0
    c = max(0.25 * z * z, TINY)
    y0 = max(c / p.endpoint, _y_peak(nm1, c)) or TINY
    if y0 == math.inf:
        return -math.inf

    def log_g(y):
        a = nm1 * math.log(y)
        return a - y - c / y - 8.0 * EPS * (abs(a) + abs(nm1) + y + c / y)

    log_z2 = log_half_ratio(z)
    lead = -nu * log_z2
    lead -= LN2 + 1.0 + 8.0 * EPS * abs(lead)
    at_y0 = log_g(y0)
    best = max(lead + math.log(w) + min(at_y0, log_g(y0 + w)) for w in (1.0, math.sqrt(y0), 0.25 * y0, y0) if w > 0.0)
    if nu < 0.0:
        t = p.endpoint
        pre = nu * log_z2 - LN2
        for w in (t, min(t, max(1.0, -nu))):
            if 0.25 * z * z <= 0.5 * w:
                h = math.log(0.5 * w)
                power = min(-(nu + 1.0) * h, -(nu + 1.0) * math.log(w))
                e = pre + h - 1.0 - w + power
                e -= 8.0 * EPS * (abs(pre) + abs(h) + 1.0 + w + abs(power))
                if e > best:  # False at nan
                    best = e
    return best if best == best else -math.inf


# Values computed inside the outermost open shared_work block, by (fn, args).
_SHARED = contextvars.ContextVar("incmac_shared_work", default=None)


class shared_work:
    """Work sharing within one public call, never across calls: inside the
    block, shared(fn, *args) computes each distinct fn(*args) once and a
    raise is not stored; a nested block reuses the enclosing one, and
    nothing outlives the outermost block."""

    __slots__ = ("_token",)

    def __enter__(self):
        self._token = _SHARED.set({}) if _SHARED.get() is None else None

    def __exit__(self, *exc):
        if self._token is not None:
            _SHARED.reset(self._token)


def _in_shared_work() -> bool:
    """Whether a shared_work block is open: evaluate enters none inside one."""
    return _SHARED.get() is not None


_MISSING = object()  # shared's marker of a key not in the memo


def shared(fn, *args):
    """fn(*args), computed once per distinct call inside a shared_work
    block; a plain call outside any block.  One hash per lookup."""
    memo = _SHARED.get()
    if memo is None:
        return fn(*args)
    key = fn, args
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = fn(*args)
    return value
