"""Adaptive Gauss-Kronrod quadrature and the reference S evaluations.

The integrator is a plain 7/15 embedded pair with bisection of the worst
panel, the same construction QUADPACK uses for smooth integrands.  The
three reference forms of the incomplete Macdonald function are the
defining endpoint integral on (0, t], the cosh representation, and the
reflected y-representation on (z^2/4t, inf); the last is the default
oracle because its integrand is smooth with plain exponential decay.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    FLAG_UNDERFLOW,
    LOG_TINY,
    TINY,
    Evaluation,
    MethodTag,
    NonConvergence,
    ShuParams,
    Tolerances,
    underflow_to_zero,
)

__all__ = ["QuadratureResult", "integrate_adaptive", "shu_oracle", "shu_oracle_cosh"]

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
# Nodes in descending order; the Gauss nodes are indices 1, 3, 5 and the
# centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with its absolute error bound and work count."""

    value: float
    error_estimate: float
    subdivisions: int
    converged: bool


def _gk15(f, a, b):
    """One Gauss-Kronrod 7/15 panel; returns (value, error, resabs)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = fc * _WGK[7]
    resabs = abs(resk)
    fv = []
    for j in range(7):
        dx = h * _XGK[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        fv.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    resg = fc * _WG[3]
    for i, j in enumerate((1, 3, 5)):
        resg += _WG[i] * (fv[j][0] + fv[j][1])
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j][0] - reskh) + abs(fv[j][1] - reskh))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > TINY / (50.0 * EPS):
        err = max(EPS * 50.0 * resabs, err)
    return value, err, resabs


def integrate_adaptive(f, a, b, tol: Tolerances = None, *, points=()) -> QuadratureResult:
    """Integrate f over (a, b) with adaptive 7/15 Gauss-Kronrod panels.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on the open interval.  For a semi-infinite
        range it must decay to an exact floating 0.0 in the far tail.
    a, b : float
        Integration bounds, a < b.  b may be math.inf; the tail is then
        mapped onto (0, 1) through y = a + u/(1-u).
    tol : Tolerances, optional
        Convergence is declared when the summed panel error falls below
        max(abs_tol, rel_tol * |integral|).  tol.max_depth caps the number
        of bisections; hitting the cap returns converged=False rather than
        a silently wrong answer.
    points : iterable of float, optional
        Interior breakpoints (peak locations, known scales) used to seed
        the initial panels.

    Raises
    ------
    NonConvergence
        Only when a panel evaluates to a non-finite value; carries the
        partial result over the remaining panels.
    """
    tol = tol or DEFAULT_TOLERANCES
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if math.isinf(a):
        raise ValueError("lower bound must be finite")

    if math.isinf(b):
        raw = f
        base = a

        def f(u):
            w = 1.0 - u
            return raw(base + u / w) / (w * w)

        seeds = {0.25, 0.5, 0.75}
        for p in points:
            if p > base and math.isfinite(p):
                seeds.add((p - base) / (1.0 + (p - base)))
        a, b = 0.0, 1.0
        breaks = sorted(s for s in seeds if a < s < b)
    else:
        breaks = sorted(p for p in set(points) if a < p < b)

    edges = [a] + breaks + [b]
    panels = []  # [lo, hi, value, err, refinable]
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, _ = _gk15(f, lo, hi)
        panels.append([lo, hi, val, err, True])

    subdivisions = 0
    while True:
        total = math.fsum(p[2] for p in panels)
        toterr = math.fsum(p[3] for p in panels)
        if not math.isfinite(total):
            finite = math.fsum(p[2] for p in panels if math.isfinite(p[2]))
            raise NonConvergence(
                "integrand produced a non-finite panel value",
                partial=finite,
                error_estimate=math.inf,
            )
        if toterr <= tol.target(total):
            return QuadratureResult(total, toterr, subdivisions, True)
        if subdivisions >= tol.max_depth:
            return QuadratureResult(total, toterr, subdivisions, False)

        worst = None
        worst_err = -1.0
        for p in panels:
            if p[4] and p[3] > worst_err:
                worst_err = p[3]
                worst = p
        if worst is None:
            return QuadratureResult(total, toterr, subdivisions, False)
        lo, hi = worst[0], worst[1]
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            worst[4] = False  # panel at floating-point resolution
            continue
        val1, err1, _ = _gk15(f, lo, mid)
        val2, err2, _ = _gk15(f, mid, hi)
        worst[:] = [lo, mid, val1, err1, True]
        panels.append([mid, hi, val2, err2, True])
        subdivisions += 1


def _log_value_bound(p: ShuParams) -> float:
    """Log-scale bound on the function value, from the y-form integrand peak."""
    nu, z = p.order, p.argument
    c = 0.25 * z * z
    y0 = c / p.endpoint
    log_pref = nu * math.log(2.0 / z) - math.log(2.0)
    ystar = 0.5 * ((nu - 1.0) + math.hypot(nu - 1.0, 2.0 * math.sqrt(c)))
    y = max(y0, ystar)
    return log_pref + (nu - 1.0) * math.log(y) - y - c / y


def _underflows(p: ShuParams) -> bool:
    # peak * generous-width still below the smallest normal
    return _log_value_bound(p) + 12.0 < LOG_TINY


def _zero_eval(tag: MethodTag) -> Evaluation:
    return Evaluation(0.0, 0.0, tag, 0, flags=(FLAG_UNDERFLOW,))


def _finish(res: QuadratureResult, tag: MethodTag) -> Evaluation:
    if not res.converged:
        raise NonConvergence(
            f"quadrature did not converge (error estimate {res.error_estimate:.3e})",
            partial=res.value,
            error_estimate=res.error_estimate,
        )
    value, err, flags = underflow_to_zero(res.value, res.error_estimate)
    return Evaluation(value, err, tag, res.subdivisions, flags)


# Oracle values by (point, tolerances, form), set only inside an
# _oracle_memo() block so that no value outlives the call that opened it.
_ORACLE_MEMO = contextvars.ContextVar("incmac_oracle_memo", default=None)


@contextlib.contextmanager
def _oracle_memo():
    """Within the block, shu_oracle integrates each distinct
    (point, tolerances, form) once; a raise is not stored."""
    token = _ORACLE_MEMO.set({})
    try:
        yield
    finally:
        _ORACLE_MEMO.reset(token)


def shu_oracle(p: ShuParams, tol: Tolerances = None, form: int = 5) -> Evaluation:
    """Reference value of S by adaptive quadrature.

    form=5 (default) integrates the reflected representation
    (1/2)(2/z)^nu * integral over y in (z^2/4t, inf) of y^(nu-1) e^(-y - z^2/4y);
    its integrand is smooth with plain e^-y decay and the moving endpoint is
    interior-safe.  form=2 integrates the defining endpoint representation on
    (0, t] as an independent cross-check; its left end is clamped where the
    essential factor e^(-z^2/4tau) alone is far below the smallest double,
    which provably contributes less than any representable tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    if form == 5:
        oracle = _oracle_y_form
    elif form == 2:
        oracle = _oracle_endpoint_form
    else:
        raise ValueError("form must be 2 or 5")
    memo = _ORACLE_MEMO.get()
    if memo is None:
        return oracle(p, tol)
    key = (p, tol, form)
    if key not in memo:
        memo[key] = oracle(p, tol)
    return memo[key]


def _oracle_y_form(p: ShuParams, tol: Tolerances) -> Evaluation:
    nu, z, t = p.order, p.argument, p.endpoint
    if _underflows(p):
        return _zero_eval(MethodTag.ORACLE5)
    c = 0.25 * z * z
    y0 = c / t
    log_pref = nu * math.log(2.0 / z) - math.log(2.0)

    def f(y):
        return math.exp(log_pref + (nu - 1.0) * math.log(y) - y - c / y)

    ystar = 0.5 * ((nu - 1.0) + math.hypot(nu - 1.0, 2.0 * math.sqrt(c)))
    pts = [y for y in (ystar, y0 + 0.5, y0 + 2.0, y0 + 10.0, y0 + 50.0) if y > y0]
    res = integrate_adaptive(f, y0, math.inf, tol, points=pts)
    return _finish(res, MethodTag.ORACLE5)


def _oracle_endpoint_form(p: ShuParams, tol: Tolerances) -> Evaluation:
    nu, z, t = p.order, p.argument, p.endpoint
    if _underflows(p):
        return _zero_eval(MethodTag.ORACLE2)
    c = 0.25 * z * z
    log_pref = nu * math.log(0.5 * z) - math.log(2.0)

    def f(tau):
        return math.exp(log_pref - tau - c / tau - (nu + 1.0) * math.log(tau))

    tau_lo = c / 760.0  # e^(-z^2/4tau) alone is ~1e-330 left of here
    tau_hi = min(t, 775.0)  # e^-tau alone underflows right of here
    if tau_lo >= tau_hi:  # only possible deep in the underflow region
        return _zero_eval(MethodTag.ORACLE2)
    taustar = 0.5 * (-(nu + 1.0) + math.hypot(nu + 1.0, 2.0 * math.sqrt(c)))
    ratio = tau_hi / tau_lo
    pts = [tau_lo * ratio**0.25, tau_lo * ratio**0.5, tau_lo * ratio**0.75, taustar]
    pts = [x for x in pts if tau_lo < x < tau_hi]
    res = integrate_adaptive(f, tau_lo, tau_hi, tol, points=pts)
    return _finish(res, MethodTag.ORACLE2)


def shu_oracle_cosh(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """S through the cosh representation (1/2) integral over w in
    (ln(z/2t), inf) of e^(-z cosh w + nu w); independent cross-check of
    shu_oracle.

    The lower endpoint may be negative (z < 2t); the integrand stays
    integrable because cosh dominates the linear term.  Both tails are
    truncated where the exponent is far below the underflow threshold.
    """
    tol = tol or DEFAULT_TOLERANCES
    nu, z, t = p.order, p.argument, p.endpoint
    if _underflows(p):
        return _zero_eval(MethodTag.ORACLE4)

    def f(w):
        return math.exp(nu * w - z * math.cosh(w) - math.log(2.0))

    w0 = math.log(0.5 * z / t)
    hi = max(w0, 0.0) + 1.0
    while z * math.cosh(hi) - nu * hi < 780.0:
        hi += 1.0
    lo = w0
    if w0 < -1.0:
        v = 1.0
        while z * math.cosh(v) + nu * v < 780.0:
            v += 1.0
        lo = max(w0, -v)
    wstar = math.asinh(nu / z)
    pts = [w for w in (wstar, 0.0, lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)) if lo < w < hi]
    res = integrate_adaptive(f, lo, hi, tol, points=pts)
    return _finish(res, MethodTag.ORACLE4)
