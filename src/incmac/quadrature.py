"""Adaptive Gauss-Kronrod quadrature and the reference S evaluations.

The integrator is a plain 7/15 embedded pair with bisection of the worst
panel, the same construction QUADPACK uses for smooth integrands.  The
three reference forms of the incomplete Macdonald function are the
defining endpoint integral on (0, t], the cosh representation, and the
reflected y-representation on (z^2/4t, inf); the last is the default
oracle because its integrand is smooth with plain exponential decay.
"""

import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    LOG_TINY,
    TINY,
    Evaluation,
    MethodTag,
    NonConvergence,
    ShuParams,
    Tolerances,
    shared,
)

__all__ = ["QuadratureResult", "integrate_adaptive", "require_converged", "shu_oracle", "shu_oracle_cosh"]

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
    """One Gauss-Kronrod 7/15 panel; returns (value, error)."""
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
    return value, err


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
        val, err = _gk15(f, lo, hi)
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
        val1, err1 = _gk15(f, lo, mid)
        val2, err2 = _gk15(f, mid, hi)
        worst[:] = [lo, mid, val1, err1, True]
        panels.append([mid, hi, val2, err2, True])
        subdivisions += 1


def require_converged(res: QuadratureResult) -> QuadratureResult:
    """res itself once it has converged; otherwise raises NonConvergence
    carrying its partial value, so no reference integral is used unchecked."""
    if not res.converged:
        raise NonConvergence(
            f"quadrature did not converge (error estimate {res.error_estimate:.3e})",
            partial=res.value,
            error_estimate=res.error_estimate,
        )
    return res


def _log_value_bound(p: ShuParams) -> float:
    """Log-scale bound on the function value, from the y-form integrand peak."""
    nu, z = p.order, p.argument
    c = 0.25 * z * z
    y0 = c / p.endpoint
    log_pref = nu * math.log(2.0 / z) - math.log(2.0)
    ystar = 0.5 * ((nu - 1.0) + math.hypot(nu - 1.0, 2.0 * math.sqrt(c)))
    y = max(y0, ystar)
    return log_pref + (nu - 1.0) * math.log(y) - y - c / y


def _y_form(nu, z, t):
    c = 0.25 * z * z
    y0 = c / t
    log_pref = nu * math.log(2.0 / z) - math.log(2.0)

    def f(y):
        return math.exp(log_pref + (nu - 1.0) * math.log(y) - y - c / y)

    ystar = 0.5 * ((nu - 1.0) + math.hypot(nu - 1.0, 2.0 * math.sqrt(c)))
    pts = [ystar, y0 + 0.5, y0 + 2.0, y0 + 10.0, y0 + 50.0]
    # at tiny z the integrand lives within a few multiples of max(y0, ystar),
    # far left of the tail map's first seed; a ladder of breakpoints in
    # steps of 4 up to 0.25 puts panel nodes where it is nonzero
    s = 4.0 * max(y0, ystar)
    while s < 0.25:
        pts.append(s)
        s *= 4.0
    return f, y0, math.inf, tuple(pts)


def _endpoint_form(nu, z, t):
    # (1/2)(z/2)^nu * integral over tau in (0, t] of tau^(-nu-1) e^(-tau - z^2/4tau)
    c = 0.25 * z * z
    log_pref = nu * math.log(0.5 * z) - math.log(2.0)

    def f(tau):
        return math.exp(log_pref - tau - c / tau - (nu + 1.0) * math.log(tau))

    tau_lo = c / 760.0  # e^(-z^2/4tau) alone is ~1e-330 left of here
    tau_hi = min(t, 775.0)  # e^-tau alone underflows right of here
    if tau_lo >= tau_hi:
        # the prefactor can outweigh e^-760; f rises on (0, tau_hi/2], where
        # c/tau >= 1520 > tau + nu + 1, and f(tau_hi/2)/f(tau_hi) <= 2^(nu+1) e^-372
        tau_lo = 0.5 * tau_hi
    taustar = 0.5 * (-(nu + 1.0) + math.hypot(nu + 1.0, 2.0 * math.sqrt(c)))
    ratio = tau_hi / tau_lo
    return f, tau_lo, tau_hi, (tau_lo * ratio**0.25, tau_lo * ratio**0.5, tau_lo * ratio**0.75, taustar)


def _cosh_form(nu, z, t):
    # (1/2) * integral over w in (ln(z/2t), inf) of e^(-z cosh w + nu w); the
    # lower end may be negative, and both tails are truncated where the
    # exponent is far below the underflow threshold
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
    return f, lo, hi, (math.asinh(nu / z), 0.0, lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))


# form -> (method tag, setup); a setup maps (nu, z, t) to (integrand, lo, hi,
# breakpoints)
_FORMS = {
    5: (MethodTag.ORACLE5, _y_form),
    2: (MethodTag.ORACLE2, _endpoint_form),
    4: (MethodTag.ORACLE4, _cosh_form),
}


def shu_oracle(p: ShuParams, tol: Tolerances = None, form: int = 5) -> Evaluation:
    """Reference value of S by adaptive quadrature of one of its integral forms.

    form=5 (default) integrates the reflected representation
    (1/2)(2/z)^nu * integral over y in (z^2/4t, inf) of y^(nu-1) e^(-y - z^2/4y);
    its integrand is smooth with plain e^-y decay and the moving endpoint is
    interior-safe.  form=2 integrates the defining endpoint representation on
    (0, t] as an independent cross-check; its left end is clamped where the
    essential factor e^(-z^2/4tau) alone is far below the smallest double,
    which contributes less than any representable tolerance.
    form=4 integrates the cosh representation (see shu_oracle_cosh).
    A value below the smallest normal double is returned as 0.0 flagged
    underflow_to_zero; a quadrature that does not converge raises
    NonConvergence.  Inside a core.shared_work block (evaluate,
    evaluate_grid, the figure sweeps, run_verification) each distinct
    (p, tol, form) is integrated once.
    """
    if form not in _FORMS:
        raise ValueError("form must be 2, 4 or 5")
    return shared(_oracle, p, tol or DEFAULT_TOLERANCES, form)


def shu_oracle_cosh(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """S through the cosh representation (1/2) integral over w in
    (ln(z/2t), inf) of e^(-z cosh w + nu w): shu_oracle(p, tol, form=4)."""
    return shared(_oracle, p, tol or DEFAULT_TOLERANCES, 4)


def _oracle(p: ShuParams, tol: Tolerances, form: int) -> Evaluation:
    tag, setup = _FORMS[form]
    log_bound = _log_value_bound(p)
    # peak times a generous width still below the smallest normal
    if log_bound + 12.0 < LOG_TINY:
        return Evaluation(0.0, 0.0, tag, 0)
    f, lo, hi, pts = setup(p.order, p.argument, p.endpoint)
    res = require_converged(integrate_adaptive(f, lo, hi, tol, points=pts))
    # the integrand's exponent, about log_bound near its peak, rounds to EPS
    # of itself, and so the integral to EPS |log_bound| relative
    err = res.error_estimate + EPS * abs(log_bound) * abs(res.value)
    return Evaluation(res.value, err, tag, res.subdivisions)
