"""Regime-switching front end: one entry point with an error estimate.

The decision order is fixed: large-endpoint asymptotics when its leading
correction is already below target, the half-order closed form (once
self-validated against the oracle), the small-endpoint series, the
small-argument series, then the quadrature oracle as universal fallback.
Leading-term approximants are never substituted silently; they live in
expansions and must be called explicitly.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    FLAG_CANCELLATION,
    TIGHT,
    DomainError,
    Evaluation,
    MethodTag,
    NonConvergence,
    ShuParams,
    Tolerances,
    underflow_to_zero,
    validate,
)
from .expansions import asympt_large_t, series_small_t, series_small_z
from .gamma import _macdonald_k_eval
from .quadrature import shu_oracle

__all__ = [
    "RegimeThresholds",
    "RegimeDecision",
    "GridCell",
    "closed_form_half",
    "evaluate",
    "evaluate_grid",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class RegimeThresholds:
    """Switching boundaries; calibration defaults, overridable per call."""

    large_t_min: float = 30.0  # endpoint at which asymptotics are considered
    small_t_exponent: float = 2.0  # required z^2/(4t) for the small-t series
    small_z_max: float = 1.0  # largest argument for the small-z series


DEFAULT_THRESHOLDS = RegimeThresholds()


@dataclass(frozen=True)
class RegimeDecision:
    """The chosen path, a short reason code, and rejected candidates."""

    chosen: MethodTag
    reason: str
    candidates_tried: tuple = ()


@dataclass(frozen=True)
class GridCell:
    """One point of a grid sweep; either an evaluation or an error marker."""

    order: float
    argument: float
    endpoint: float
    evaluation: Evaluation | None
    decision: RegimeDecision | None
    error: str | None = None


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x) for x >= 0."""
    if x < 2.5:
        return math.exp(x * x) * math.erfc(x)
    # Laplace continued fraction, modified Lentz; ~20 terms at x = 2.5
    tiny = 1e-300
    b = x
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    n = 0.0
    for _ in range(200):
        n += 0.5
        d = n * d + b
        if d == 0.0:
            d = tiny
        c = b + n / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= EPS:
            break
    return h / _SQRT_PI


def closed_form_half(p: ShuParams) -> float:
    """Closed form for order +-1/2 in terms of erfc.

    Scaled-erfc evaluation keeps both terms alive when the plain product
    e^z erfc(z/(2 sqrt t) + sqrt t) would underflow.
    """
    nu, z, t = p.order, p.argument, p.endpoint
    if abs(nu) != 0.5:
        raise ValueError(f"closed form only holds at order +-1/2, got {nu}")
    st = math.sqrt(t)
    xm = 0.5 * z / st - st
    xp = 0.5 * z / st + st
    shared = math.exp(-0.25 * z * z / t - t)  # equals e^(-z - xm^2) and e^(z - xp^2)
    term_m = shared * _erfcx(xm) if xm >= 0.0 else math.exp(-z) * math.erfc(xm)
    term_p = shared * _erfcx(xp)
    if nu > 0.0:
        return 0.5 * math.sqrt(0.5 * z) * (_SQRT_PI / z) * (term_m + term_p)
    return 0.5 * math.sqrt(2.0 / z) * (0.5 * _SQRT_PI) * (term_m - term_p)


@lru_cache(maxsize=1)
def _closed_form_half_validated() -> bool:
    """One-time gate: the closed form is implementer-derived, so it is only
    trusted after agreeing with the quadrature oracle on a small grid."""
    for nu in (0.5, -0.5):
        for z, t in ((0.7, 0.4), (2.0, 1.0), (3.0, 3.0), (5.0, 4.0)):
            want = shu_oracle(ShuParams(nu, z, t), TIGHT).value
            got = closed_form_half(ShuParams(nu, z, t))
            if abs(got - want) > 1e-9 * abs(want):
                return False
    return True


def _verdict(run, tol: Tolerances):
    """Run one candidate (a no-argument call): (evaluation, None) when it
    meets the target, otherwise (None, reason code)."""
    try:
        ev = run()
    except NonConvergence:
        return None, "NON_CONVERGENCE"
    except OverflowError:
        return None, "OVERFLOW"
    if FLAG_CANCELLATION in ev.flags:
        return None, "CANCELLATION"
    if not ev.error_estimate <= tol.target(ev.value):  # a NaN estimate fails too
        return None, "TAIL_TOO_LARGE"
    return ev, None


def evaluate(
    p: ShuParams,
    tol: Tolerances = None,
    thresholds: RegimeThresholds = None,
    *,
    _k_memo: dict = None,
) -> tuple[Evaluation, RegimeDecision]:
    """Evaluate S with the regime-switching decision procedure.

    Returns the evaluation together with the decision record (chosen
    method, reason code, and any candidates tried and rejected).  A
    candidate that does not converge, overflows, cancels or misses the
    target (a NaN error estimate included) is rejected, and the quadrature
    oracle is the fallback.  The procedure is deterministic and never
    returns a leading-term approximant.

    K_nu(z) is computed at most once per call, only when the
    large-endpoint gate or the small-argument series needs it, and shared
    by the gate and both K-based expansions.
    """
    tol = tol or DEFAULT_TOLERANCES
    th = thresholds or DEFAULT_THRESHOLDS
    nu, z, t = p.order, p.argument, p.endpoint
    tried = []
    # evaluate_grid passes one memo for the whole sweep; a raise stores nothing
    k_memo = {} if _k_memo is None else _k_memo

    def k():
        if (nu, z) not in k_memo:
            k_memo[nu, z] = _macdonald_k_eval(nu, z)
        return k_memo[nu, z]

    if t >= th.large_t_min:
        e = nu * math.log(0.5 * z) - math.log(2.0) - t - (nu + 1.0) * math.log(t)
        if math.exp(e) < tol.target(k()[0]):
            ev, rejection = _verdict(lambda: asympt_large_t(p, tol, k_eval=k()), tol)
            if ev is not None:
                return ev, RegimeDecision(MethodTag.ASYMPT_LARGE_T, "LARGE_T", tuple(tried))
        else:
            rejection = "CORRECTION_TOO_LARGE"
        tried.append((MethodTag.ASYMPT_LARGE_T, rejection))

    if abs(nu) == 0.5:
        if _closed_form_half_validated():
            v = closed_form_half(p)
            v, err, flags = underflow_to_zero(v, 8.0 * EPS * abs(v))
            ev = Evaluation(v, err, MethodTag.CLOSED_FORM_HALF, 1, flags)
            return ev, RegimeDecision(
                MethodTag.CLOSED_FORM_HALF, "HALF_ORDER_CLOSED_FORM", tuple(tried)
            )
        tried.append((MethodTag.CLOSED_FORM_HALF, "VALIDATION_FAILED"))

    # named here rather than in a module-level table, so looked up at call time
    for tag, reason, applies, run in (
        (MethodTag.SERIES_SMALL_T, "SMALL_T_CONVERGED",
         0.25 * z * z / t >= th.small_t_exponent, lambda: series_small_t(p, tol)),
        (MethodTag.SERIES_SMALL_Z, "SMALL_Z_CONVERGED",
         z <= th.small_z_max, lambda: series_small_z(p, tol, k_eval=k())),
    ):
        if applies:
            ev, rejection = _verdict(run, tol)
            if ev is not None:
                return ev, RegimeDecision(tag, reason, tuple(tried))
            tried.append((tag, rejection))

    ev = shu_oracle(p, tol)
    return ev, RegimeDecision(MethodTag.ORACLE5, "FALLBACK_ORACLE", tuple(tried))


def evaluate_grid(orders, zs, ts, tol=None, thresholds=None) -> list:
    """Row-major sweep over the Cartesian product of the three lists.

    Cells are independent (identical to pointwise evaluate); a failed cell
    carries an error marker and never aborts the sweep.  K_nu(z) is
    computed once per (order, argument) pair that needs it and shared by
    that pair's cells; the memo lives for this call only, and a K that
    raises is retried, so it fails exactly the cells pointwise evaluate
    would.
    """
    k_memo = {}
    cells = []
    for nu in orders:
        for z in zs:
            for t in ts:
                try:
                    p = validate(nu, z, t)
                    ev, dec = evaluate(p, tol, thresholds, _k_memo=k_memo)
                except (DomainError, NonConvergence, OverflowError) as exc:
                    cells.append(
                        GridCell(nu, z, t, None, None, f"{type(exc).__name__}: {exc}")
                    )
                else:
                    cells.append(GridCell(nu, z, t, ev, dec))
    return cells
