"""Adaptive Gauss-Kronrod quadrature and the reference S evaluations.

The integrator is a plain 7/15 embedded pair with bisection of the worst
panel, the same construction QUADPACK uses for smooth integrands.  One
panel is straight-line code and the panels live in parallel lists, so
that the interpreter does little besides the float operations, which are
QUADPACK's in QUADPACK's order.  The three reference forms of the
incomplete Macdonald function are the defining endpoint integral on
(0, t], the cosh representation, and the reflected y-representation on
(z^2/4t, inf); the last is the default oracle because its integrand is
smooth with plain exponential decay.  Form 5 goes through
integrate_adaptive's own map of an infinite upper bound onto (0, 1).
"""

import math
from collections import namedtuple

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
    _log_s_peak,
    _y_peak,
    log_half_ratio,
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
# a panel's error is at least 50 EPS times the integral of |f| over it,
# where that integral is a normal double
_EPS50 = EPS * 50.0
_RESABS_FLOOR = TINY / (50.0 * EPS)


class QuadratureResult(namedtuple("QuadratureResult", "value error_estimate subdivisions converged")):
    """Integral estimate with its absolute error bound and work count."""

    __slots__ = ()


def _gk15(f, a, b):
    """One Gauss-Kronrod 7/15 panel on (a, b), a < b; returns (value, error).

    Straight-line code: the node offsets d, the values l (left of the
    centre) and r (right) are locals, and each of the sums resk, resabs,
    resg and resasc adds its terms one at a time, the centre first and
    then the node pairs from the outermost in, as QUADPACK's dqk15 loop
    does.
    """
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)  # > 0 for a < b, so |h| = h below
    d0 = h * x0
    d1 = h * x1
    d2 = h * x2
    d3 = h * x3
    d4 = h * x4
    d5 = h * x5
    d6 = h * x6
    fc = f(c)
    l0 = f(c - d0)
    r0 = f(c + d0)
    l1 = f(c - d1)
    r1 = f(c + d1)
    l2 = f(c - d2)
    r2 = f(c + d2)
    l3 = f(c - d3)
    r3 = f(c + d3)
    l4 = f(c - d4)
    r4 = f(c + d4)
    l5 = f(c - d5)
    r5 = f(c + d5)
    l6 = f(c - d6)
    r6 = f(c + d6)
    s1 = l1 + r1
    s3 = l3 + r3
    s5 = l5 + r5
    resk = (
        fc * w7
        + w0 * (l0 + r0)
        + w1 * s1
        + w2 * (l2 + r2)
        + w3 * s3
        + w4 * (l4 + r4)
        + w5 * s5
        + w6 * (l6 + r6)
    )
    resabs = (
        abs(fc * w7)
        + w0 * (abs(l0) + abs(r0))
        + w1 * (abs(l1) + abs(r1))
        + w2 * (abs(l2) + abs(r2))
        + w3 * (abs(l3) + abs(r3))
        + w4 * (abs(l4) + abs(r4))
        + w5 * (abs(l5) + abs(r5))
        + w6 * (abs(l6) + abs(r6))
    )
    resg = fc * g3 + g0 * s1 + g1 * s3 + g2 * s5
    m = 0.5 * resk
    resasc = (
        w7 * abs(fc - m)
        + w0 * (abs(l0 - m) + abs(r0 - m))
        + w1 * (abs(l1 - m) + abs(r1 - m))
        + w2 * (abs(l2 - m) + abs(r2 - m))
        + w3 * (abs(l3 - m) + abs(r3 - m))
        + w4 * (abs(l4 - m) + abs(r4 - m))
        + w5 * (abs(l5 - m) + abs(r5 - m))
        + w6 * (abs(l6 - m) + abs(r6 - m))
    )
    resabs *= h
    resasc *= h
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        scale = (200.0 * err / resasc) ** 1.5
        err = resasc * (scale if scale < 1.0 else 1.0)
    if resabs > _RESABS_FLOOR:
        floor = _EPS50 * resabs
        if not err > floor:
            err = floor
    return resk * h, err


def _tail_seeds(base, points):
    """Breakpoints on (0, 1) for the tail map y = base + u/(1 - u): the
    quarter points and the image of every finite point beyond base."""
    seeds = {0.25, 0.5, 0.75}
    for p in points:
        if p > base and math.isfinite(p):
            seeds.add((p - base) / (1.0 + (p - base)))
    return tuple(sorted(s for s in seeds if 0.0 < s < 1.0))


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

        breaks = _tail_seeds(base, points)
        a, b = 0.0, 1.0
    else:
        breaks = sorted(p for p in set(points) if a < p < b)

    # the panels as parallel lists; key is the error, or -1.0 where the
    # error is NaN or the panel is at floating-point resolution, so that
    # the first panel with the largest key is the one to bisect
    los = [a, *breaks]
    his = [*breaks, b]
    vals = []
    errs = []
    for lo, hi in zip(los, his):
        val, err = _gk15(f, lo, hi)
        vals.append(val)
        errs.append(err)
    keys = [err if err >= 0.0 else -1.0 for err in errs]

    subdivisions = 0
    while True:
        total = math.fsum(vals)
        toterr = math.fsum(errs)
        if not math.isfinite(total):
            finite = math.fsum(v for v in vals if math.isfinite(v))
            raise NonConvergence(
                "integrand produced a non-finite panel value",
                partial=finite,
                error_estimate=math.inf,
            )
        if toterr <= tol.target(total):
            return QuadratureResult(total, toterr, subdivisions, True)
        if subdivisions >= tol.max_depth:
            return QuadratureResult(total, toterr, subdivisions, False)

        worst = max(keys)
        if worst < 0.0:
            return QuadratureResult(total, toterr, subdivisions, False)
        i = keys.index(worst)
        lo = los[i]
        hi = his[i]
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            keys[i] = -1.0
            continue
        val1, err1 = _gk15(f, lo, mid)
        val2, err2 = _gk15(f, mid, hi)
        his[i] = mid
        vals[i] = val1
        errs[i] = err1
        keys[i] = err1 if err1 >= 0.0 else -1.0
        los.append(mid)
        his.append(hi)
        vals.append(val2)
        errs.append(err2)
        keys.append(err2 if err2 >= 0.0 else -1.0)
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


def _y_form(nu, z, t):
    # (1/2)(2/z)^nu * integral over y in (z^2/4t, inf) of y^(nu-1) e^(-y - z^2/4y),
    # through integrate_adaptive's own map of the infinite upper bound
    c = 0.25 * z * z
    y0 = c / t
    log_pref = nu * math.log(2.0 / z) - math.log(2.0)
    nm1 = nu - 1.0
    exp, log = math.exp, math.log

    def f(y):
        return exp(log_pref + nm1 * log(y) - y - c / y)

    ystar = _y_peak(nm1, c)
    pts = [ystar, y0 + 0.5, y0 + 2.0, y0 + 10.0, y0 + 50.0]
    # at tiny z the integrand lives within a few multiples of max(y0, ystar),
    # far left of the tail map's first seed; a ladder of breakpoints in
    # steps of 4 up to 0.25 puts panel nodes where it is nonzero
    s = 4.0 * max(y0, ystar)
    while s < 0.25:
        pts.append(s)
        s *= 4.0
    return f, y0, math.inf, pts


def _endpoint_form(nu, z, t):
    # (1/2)(z/2)^nu * integral over tau in (0, t] of tau^(-nu-1) e^(-tau - z^2/4tau)
    c = 0.25 * z * z
    log_pref = nu * math.log(0.5 * z) - math.log(2.0)
    nu1 = nu + 1.0
    exp, log = math.exp, math.log

    def f(tau):
        return exp(log_pref - tau - c / tau - nu1 * log(tau))

    tau_lo = c / 760.0  # e^(-z^2/4tau) alone is ~1e-330 left of here
    if tau_lo == 0.0:
        # z^2/4 is subnormal, and no positive double lies left of the clamp
        raise NonConvergence(f"z^2/4/760 underflows to 0 at z = {z!r}; form 2 has no left end")
    tau_hi = min(t, 775.0)  # e^-tau alone underflows right of here
    if tau_lo >= tau_hi:
        # the prefactor can outweigh e^-760; f rises on (0, tau_hi/2], where
        # c/tau >= 1520 > tau + nu + 1, and f(tau_hi/2)/f(tau_hi) <= 2^(nu+1) e^-372
        tau_lo = 0.5 * tau_hi
    ratio = tau_hi / tau_lo
    return f, tau_lo, tau_hi, (tau_lo * ratio**0.25, tau_lo * ratio**0.5, tau_lo * ratio**0.75, _y_peak(-nu1, c))


def _cosh_form(nu, z, t):
    # (1/2) * integral over w in (ln(z/2t), inf) of e^(-z cosh w + nu w); the
    # lower end may be negative, and both tails are truncated where the
    # exponent is far below the underflow threshold
    ln2 = math.log(2.0)
    exp, cosh = math.exp, math.cosh

    def f(w):
        return exp(nu * w - z * cosh(w) - ln2)

    w0 = log_half_ratio(z, t)
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
    underflow_to_zero; a quadrature that does not converge, or whose
    integrand passes the double range, raises NonConvergence.  Each call
    integrates afresh, not through core.shared: its callers seldom repeat
    a (p, tol, form).
    """
    if form not in _FORMS:
        raise ValueError("form must be 2, 4 or 5")
    return _oracle(p, tol or DEFAULT_TOLERANCES, form)


def shu_oracle_cosh(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """S through the cosh representation (1/2) integral over w in
    (ln(z/2t), inf) of e^(-z cosh w + nu w): shu_oracle(p, tol, form=4)."""
    return _oracle(p, tol or DEFAULT_TOLERANCES, 4)


def _oracle(p: ShuParams, tol: Tolerances, form: int) -> Evaluation:
    tag, setup = _FORMS[form]
    if 0.25 * p.argument * p.argument == 0.0:
        # the peak and forms 2 and 5 need z^2/4 > 0
        raise NonConvergence(f"z^2/4 underflows to 0 at z = {p.argument!r}; no quadrature form applies")
    log_peak = _log_s_peak(p)
    if log_peak == math.inf:
        raise NonConvergence(f"the y-form peak is not finite at {p}; no quadrature form applies")
    # peak times a generous width still below the smallest normal
    if log_peak + 12.0 < LOG_TINY:
        return Evaluation(0.0, 0.0, tag, 0)
    f, lo, hi, pts = setup(p.order, p.argument, p.endpoint)
    try:
        res = require_converged(integrate_adaptive(f, lo, hi, tol, points=pts))
    except OverflowError:
        # the integrand's peak can pass the double range where S does not
        raise NonConvergence(f"the form-{form} integrand exceeds the double range at {p}") from None
    except ValueError:
        # log(0): where z^2/4 is subnormal and x0 is 0, form 5's breakpoints
        # crowd so near u = 0 that a node's y rounds to 0
        raise NonConvergence(f"a form-{form} node reaches y = 0 at {p}") from None
    # the integrand's exponent, about log_peak near its peak, rounds to EPS
    # of itself, and so the integral to EPS |log_peak| relative
    err = res.error_estimate + EPS * abs(log_peak) * abs(res.value)
    return Evaluation(res.value, err, tag, res.subdivisions)
