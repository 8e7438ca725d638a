"""Order-shift identities, derivatives, residual checks, and the related
incomplete functions (generalized incomplete gamma, leaky aquifer,
truncated cosh integral).

Each *_residual operation evaluates one identity left-minus-right at a
point, normalized by the largest additive term.  Every value of S here is
evaluator.evaluate's at core.TIGHT, so that its error sits well under the
identity thresholds; no function takes a tolerance, and inside a
core.shared_work block each distinct value is computed once.
Anti-circularity policy: the second recurrence and the finite-difference
PDE mode use raw central differences of evaluate, never the order-shift
derivative formula, so a sign error in that formula cannot certify itself.
"""

import math
from collections import namedtuple

from .core import (
    LN2, LOG_TINY, TIGHT, TINY, DomainError, ShuParams, StepTooCoarse, _as_finite_real, _as_positive, _exp_value,
    log_half_ratio, shared,
)
from .evaluator import evaluate
from .gamma import _log_upper_gamma_bound

__all__ = [
    "ResidualReport",
    "dS_dt",
    "dS_dz",
    "recurrence1_residual",
    "recurrence2_residual",
    "diff_relation1_residual",
    "diff_relation2_residual",
    "pde_residual",
    "gen_incomplete_gamma",
    "leaky_aquifer",
    "incomplete_modified_bessel",
]

# step-halving disagreement thresholds, relative to the residual scale
_FD_CHECK = {1: 1e-5, 2: 1e-3}


class ResidualReport(namedtuple("ResidualReport", "identity point residual scale k mode")):
    """Left-minus-right of one identity at one point.

    scale is the largest-magnitude additive term, so relative_residual is
    meaningful even where the function values themselves are tiny.
    """

    __slots__ = ()

    def __new__(cls, identity, point, residual, scale, k=None, mode=None):
        if not scale > 0.0:
            raise ValueError("scale must be strictly positive")
        return tuple.__new__(cls, (identity, point, residual, scale, k, mode))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def relative_residual(self) -> float:
        return abs(self.residual) / self.scale


def _S(nu: float, z: float, t: float) -> float:
    return shared(evaluate, ShuParams(nu, z, t), TIGHT)[0].value


def dS_dt(p: ShuParams) -> float:
    """Exact endpoint derivative (1/2)(z/2)^nu e^(-t - z^2/4t) / t^(nu+1).

    Fundamental-theorem derivative of the defining integral; no quadrature.
    Returns an exact 0.0 below the smallest normal double and raises
    OverflowError past the double range (core._exp_value).
    """
    nu, z, t = p.order, p.argument, p.endpoint
    e = nu * log_half_ratio(z) - math.log(2.0) - t - 0.25 * z * z / t - (nu + 1.0) * math.log(t)
    return _exp_value(e, p)


def _d2S_dt2(p: ShuParams) -> float:
    nu, z, t = p.order, p.argument, p.endpoint
    return dS_dt(p) * (-1.0 + 0.25 * z * z / (t * t) - (nu + 1.0) / t)


def dS_dz(p: ShuParams) -> float:
    """Argument derivative through the order-shift formula
    (nu/z) S_nu - S_(nu+1), both terms from evaluate at core.TIGHT."""
    nu, z, t = p.order, p.argument, p.endpoint
    return (nu / z) * _S(nu, z, t) - _S(nu + 1.0, z, t)


def _dS_dz_fd(nu: float, z: float, t: float) -> float:
    """dS/dz as a raw central difference of evaluate, step 1e-5 z."""
    h = 1e-5 * z
    return (_S(nu, z + h, t) - _S(nu, z - h, t)) / (2.0 * h)


def _scale(*terms: float) -> float:
    return max(max(abs(x) for x in terms), TINY)


def recurrence1_residual(p: ShuParams) -> ResidualReport:
    """First recurrence: dS_(nu-1)/dt + S_(nu-1) - S_(nu+1) + (2 nu/z) S_nu."""
    nu, z, t = p.order, p.argument, p.endpoint
    dt_term = dS_dt(ShuParams(nu - 1.0, z, t))
    s_lo = _S(nu - 1.0, z, t)
    s_hi = _S(nu + 1.0, z, t)
    s_mid = (2.0 * nu / z) * _S(nu, z, t)
    residual = dt_term + s_lo - s_hi + s_mid
    return ResidualReport("Rec1", p, residual, _scale(dt_term, s_lo, s_hi, s_mid))


def recurrence2_residual(p: ShuParams) -> ResidualReport:
    """Second recurrence: dS_(nu-1)/dt + S_(nu-1) + S_(nu+1) + 2 dS_nu/dz.

    The z-derivative is a central finite difference of evaluate (step
    1e-5 z), deliberately not the order-shift formula.
    """
    nu, z, t = p.order, p.argument, p.endpoint
    dt_term = dS_dt(ShuParams(nu - 1.0, z, t))
    s_lo = _S(nu - 1.0, z, t)
    s_hi = _S(nu + 1.0, z, t)
    dz_fd = _dS_dz_fd(nu, z, t)
    residual = dt_term + s_lo + s_hi + 2.0 * dz_fd
    return ResidualReport("Rec2", p, residual, _scale(dt_term, s_lo, s_hi, 2.0 * dz_fd))


def _nested_radial_derivative(g, x: float, k: int, scale: float):
    """Apply ((1/x) d/dx)^k, k in {1, 2}, to g by nested central differences.

    Inner first differences use step 1e-4*coordinate*scale, the outer
    second-level difference 1e-3*coordinate*scale.
    """

    def d1(func, xx, h):
        return (func(xx + h) - func(xx - h)) / (2.0 * h)

    if k == 1:
        return d1(g, x, 1e-4 * x * scale) / x

    def level1(xx):
        return d1(g, xx, 1e-4 * xx * scale) / xx

    return d1(level1, x, 1e-3 * x * scale) / x


def _radial_lhs_with_check(g, z: float, k: int, rhs: float):
    """Nested-difference LHS with a step-halving consistency check.

    All steps scale together, so the composite error is one h^2 term and
    the full/half pair Richardson-combines into an h^4-accurate value;
    without that the stated steps are truncation-limited past the grid
    tolerance where the log-derivative z/2t is steep.
    """
    full = _nested_radial_derivative(g, z, k, 1.0)
    half = _nested_radial_derivative(g, z, k, 0.5)
    scale = _scale(full, rhs)
    if abs(full - half) > 10.0 * _FD_CHECK[k] * scale:
        raise StepTooCoarse(
            f"k={k} radial derivative differs by {abs(full - half):.3e} "
            f"between step scales 1 and 1/2 (scale {scale:.3e})"
        )
    return (4.0 * half - full) / 3.0


def diff_relation1_residual(p: ShuParams, k: int) -> ResidualReport:
    """k-fold radial derivative of z^nu S_nu against (-1)^k (1 + d/dt)^k
    applied to z^(nu-k) S_(nu-k); k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    nu, z, t = p.order, p.argument, p.endpoint
    if k == 0:
        val = z**nu * _S(nu, z, t)
        return ResidualReport("Diff1", p, 0.0, _scale(val), k=0)

    def g(zz):
        return zz**nu * _S(nu, zz, t)

    down = ShuParams(nu - k, z, t)
    if k == 1:
        rhs = -(z ** (nu - 1.0)) * (_S(nu - 1.0, z, t) + dS_dt(down))
    else:
        rhs = z ** (nu - 2.0) * (
            _S(nu - 2.0, z, t) + 2.0 * dS_dt(down) + _d2S_dt2(down)
        )
    lhs = _radial_lhs_with_check(g, z, k, rhs)
    return ResidualReport("Diff1", p, lhs - rhs, _scale(lhs, rhs), k=k)


def diff_relation2_residual(p: ShuParams, k: int) -> ResidualReport:
    """k-fold radial derivative of S_nu / z^nu against (-1)^k S_(nu+k)/z^(nu+k)."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    nu, z, t = p.order, p.argument, p.endpoint
    if k == 0:
        val = _S(nu, z, t) / z**nu
        return ResidualReport("Diff2", p, 0.0, _scale(val), k=0)

    def g(zz):
        return _S(nu, zz, t) / zz**nu

    rhs = (-1.0) ** k * _S(nu + k, z, t) / z ** (nu + k)
    lhs = _radial_lhs_with_check(g, z, k, rhs)
    return ResidualReport("Diff2", p, lhs - rhs, _scale(lhs, rhs), k=k)


def pde_residual(p: ShuParams, mode: str = "exact") -> ResidualReport:
    """Residual of z^2 S'' + z S' - (z^2 + nu^2) S - z^2 dS/dt.

    mode="exact" composes the z-derivatives from the order-shift ladder
    (only values at orders nu, nu+1, nu+2 are needed);
    mode="fd" uses raw central differences of evaluate in z instead,
    which confirms the equation without routing through the ladder.
    """
    mode = mode.lower()
    if mode not in ("exact", "fd"):
        raise ValueError("mode must be 'exact' or 'fd'")
    nu, z, t = p.order, p.argument, p.endpoint
    s0 = _S(nu, z, t)
    if mode == "exact":
        ds = dS_dz(p)
        s1 = _S(nu + 1.0, z, t)
        s2 = _S(nu + 2.0, z, t)
        d2s = -(nu / (z * z)) * s0 + (nu / z) * ds - (((nu + 1.0) / z) * s1 - s2)
    else:
        ds = _dS_dz_fd(nu, z, t)
        h2 = 1e-3 * z
        d2_full = (_S(nu, z + h2, t) - 2.0 * s0 + _S(nu, z - h2, t)) / (h2 * h2)
        hh = 0.5 * h2
        d2_half = (_S(nu, z + hh, t) - 2.0 * s0 + _S(nu, z - hh, t)) / (hh * hh)
        d2s = (4.0 * d2_half - d2_full) / 3.0  # one Richardson step, h^4 accurate
    terms = (
        z * z * d2s,
        z * ds,
        -(z * z + nu * nu) * s0,
        -z * z * dS_dt(p),
    )
    return ResidualReport("PDE", p, math.fsum(terms), _scale(*terms), mode=mode)


def _outside_double_range(log_bound: float, derived: str, value: float, point: str) -> float:
    """Where a related function's derived point leaves the double range:
    0.0 if e^log_bound, a bound on its value in its own variables, lies
    below the smallest normal double, else DomainError naming its inputs."""
    if log_bound < LOG_TINY:
        return 0.0
    raise DomainError(derived, value, f"leaves the double range at {point}")


def gen_incomplete_gamma(a: float, t_g: float, z_g: float) -> float:
    """Generalized incomplete gamma: integral over tau in (t_g, inf) of
    tau^(a-1) e^(-tau - z_g/tau), computed as 2 z_g^(a/2) S_a(2 sqrt(z_g),
    z_g/t_g), the prefactor in logs (core._exp_value with S the mantissa):
    0.0 below the smallest normal double, or where S is the flagged 0.0,
    and OverflowError naming the point and ln past the double range.
    Where z_g/t_g leaves the double range, the value is at most Gamma(a,
    t_g): 0.0 where that bound is below the smallest normal double, else
    DomainError naming (a, t, z)."""
    a = _as_finite_real("a", a)
    t_g = _as_positive("t", t_g)
    z_g = _as_positive("z", z_g)
    endpoint = z_g / t_g
    if not 0.0 < endpoint < math.inf:
        return _outside_double_range(_log_upper_gamma_bound(a, t_g), "z/t", endpoint, f"(a, t, z) = {(a, t_g, z_g)}")
    s = _S(a, 2.0 * math.sqrt(z_g), endpoint)
    return _exp_value(LN2 + 0.5 * a * math.log(z_g), (a, t_g, z_g), s)


def leaky_aquifer(a: float, z_l: float, t_l: float) -> float:
    """Leaky aquifer function: integral over tau in (1, inf) of
    e^(-z_l tau - t_l/tau) / tau^(a+1), computed as
    2 (z_l/t_l)^(a/2) S_(-a)(2 sqrt(z_l t_l), t_l), the prefactor in logs
    as in gen_incomplete_gamma.  Where z_l t_l leaves the double range, the
    value is at most E_(a+1)(z_l) = z_l^a Gamma(-a, z_l): 0.0 where that
    bound is below the smallest normal double, else DomainError naming (a,
    z, t)."""
    a = _as_finite_real("a", a)
    z_l = _as_positive("z", z_l)
    t_l = _as_positive("t", t_l)
    zt = z_l * t_l
    if not 0.0 < zt < math.inf:
        log_bound = a * math.log(z_l) + _log_upper_gamma_bound(-a, z_l)
        return _outside_double_range(log_bound, "z t", zt, f"(a, z, t) = {(a, z_l, t_l)}")
    s = _S(-a, 2.0 * math.sqrt(zt), t_l)
    return _exp_value(LN2 + 0.5 * a * (math.log(z_l) - math.log(t_l)), (a, z_l, t_l), s)


def incomplete_modified_bessel(a: float, z: float, t_imb: float) -> float:
    """Truncated cosh integral (1/2) integral over tau in (t_imb, inf) of
    e^(-z cosh tau) cosh(a tau), computed as the symmetric combination
    (1/2)(S_a + S_(-a)) at endpoint z e^(-t_imb)/2."""
    a = _as_finite_real("a", a)
    z = _as_positive("z", z)
    t_imb = _as_positive("t_imb", t_imb)
    endpoint = 0.5 * z * math.exp(-t_imb)
    if endpoint == 0.0:
        return 0.0  # truncation point beyond any representable contribution
    return 0.5 * (_S(a, z, endpoint) + _S(-a, z, endpoint))
