"""Regime-switching front end: one entry point with an error estimate.

The decision order is one function, _decide: the large-endpoint
expansion at t >= 30 where expansions._log_tail_bound, the one bound on
K - S, is already below K_nu(z)'s target, the half-order closed form
(once self-validated against the oracle), the small-argument series
where x0 = z^2/4t < 2, the small-endpoint series, then the quadrature
oracle as universal fallback, except where core._log_s_lower already
puts S past the double range, which raises OverflowError.  The
small-argument terms fall like x0^k/k!, so one boundary in x0 decides
where that series runs and no limit in z is needed (DLMF 8.7.1,
10.27.4); at negative non-integer order the series chooses between its
K form and its split form itself.
Each candidate runs its method's public function, which is what the CLI's
--method runs; the small-endpoint series sums in positive terms and as
the paper's alternating sum, the latter first above nu = x0 + 1, and
the large-endpoint expansion is the small-argument series' K form under
its own tag, so that each path's count keeps its meaning (see
expansions).  Both series take their sub-forms by one rule,
expansions._first_to_meet, and every candidate that runs is judged by
one rule, Evaluation.rejection, which refuses an estimate above the
target and a value or an estimate that is not finite.
Leading-term approximants are never substituted silently; they live in
expansions and must be called explicitly.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    LOG_HUGE,
    TIGHT,
    DomainError,
    Evaluation,
    MethodTag,
    NonConvergence,
    ShuParams,
    Tolerances,
    _in_shared_work,
    _log_s_lower,
    shared,
    shared_work,
)
from .expansions import (
    _log_tail_bound,
    asympt_large_t,
    series_small_t,
    series_small_z,
)
from .gamma import _legendre_cf, _macdonald_k_eval
from .quadrature import shu_oracle

__all__ = [
    "RegimeDecision",
    "GridCell",
    "closed_form_half",
    "evaluate",
    "evaluate_grid",
]

_SQRT_PI = math.sqrt(math.pi)

# Switching boundaries (calibration values)
_LARGE_T_MIN = 30.0  # endpoint at which asymptotics are considered
# z^2/(4t) below which the small-z series runs, whose terms fall like
# (z^2/4t)^k/k!
_SMALL_Z_EXPONENT = 2.0


class RegimeDecision(namedtuple("RegimeDecision", "chosen reason candidates_tried", defaults=((),))):
    """The chosen path, a short reason code, and rejected candidates."""

    __slots__ = ()


class GridCell(namedtuple("GridCell", "order argument endpoint evaluation decision error", defaults=(None,))):
    """One point of a grid sweep; either an evaluation (with its decision)
    or an error marker, the other fields None."""

    __slots__ = ()


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x) for x >= 0, from
    erfc(x) = Gamma(1/2, x^2)/sqrt(pi) at x >= 2.5.  Above 1e8 (x^2
    overflows past 1.3e154) the correction 1/(2x^2) to 1/(x sqrt(pi)) is
    below EPS."""
    if x < 2.5:
        return math.exp(x * x) * math.erfc(x)
    if x > 1e8:
        return 1.0 / (x * _SQRT_PI)
    return x * _legendre_cf(0.5, x * x) / _SQRT_PI


def _closed_form_half_eval(p: ShuParams):
    """The order +-1/2 closed form and an absolute bound on its rounding:
    a few EPS per erfc, square root and prefactor; 1.5 EPS |e| from the
    exponent e, common to the terms built on e^e; and 1.5 EPS xp from xm,
    times erfc's relative slope min(1.5, 1/|xm|)."""
    nu, z, t = p.order, p.argument, p.endpoint
    if abs(nu) != 0.5:
        raise ValueError(f"closed form only holds at order +-1/2, got {nu}")
    st = math.sqrt(t)
    xm = 0.5 * z / st - st
    xp = 0.5 * z / st + st
    e = -0.25 * z * z / t - t
    shared = math.exp(e)  # equals e^(-z - xm^2) and e^(z - xp^2)
    term_m = shared * _erfcx(xm) if xm >= 0.0 else math.exp(-z) * math.erfc(xm)
    term_p = shared * _erfcx(xp)
    if 2.0 / z == math.inf:
        # both prefactors equal sqrt(pi)/(2 sqrt(2z)), which stays finite
        pref = 0.5 * _SQRT_PI / math.sqrt(2.0 * z)
    elif nu > 0.0:
        pref = 0.5 * math.sqrt(0.5 * z) * (_SQRT_PI / z)
    else:
        pref = 0.5 * math.sqrt(2.0 / z) * (0.5 * _SQRT_PI)
    both = term_m + term_p if nu > 0.0 else term_m - term_p
    on_e = abs(both) if xm >= 0.0 else term_p
    err = 16.0 * (term_m + term_p) + 2.0 * abs(e) * on_e + 3.0 * xp / max(1.0, abs(xm)) * term_m
    return pref * both, EPS * pref * err


def closed_form_half(p: ShuParams) -> float:
    """Closed form for order +-1/2 in terms of erfc; scaled erfc keeps both
    terms alive where e^z erfc(z/(2 sqrt t) + sqrt t) would underflow."""
    return _closed_form_half_eval(p)[0]


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


def _closed_form_half_evaluation(p: ShuParams, tol: Tolerances) -> Evaluation:
    return Evaluation(*_closed_form_half_eval(p), MethodTag.CLOSED_FORM_HALF, 1)


# each candidate's decision where none was rejected before it, built once
_LARGE_T = RegimeDecision(MethodTag.ASYMPT_LARGE_T, "LARGE_T")
_HALF_ORDER = RegimeDecision(MethodTag.CLOSED_FORM_HALF, "HALF_ORDER_CLOSED_FORM")
_SMALL_Z = RegimeDecision(MethodTag.SERIES_SMALL_Z, "SMALL_Z_CONVERGED")
_SMALL_T = RegimeDecision(MethodTag.SERIES_SMALL_T, "SMALL_T_CONVERGED")


def _overflow_rule(p: ShuParams):
    """OverflowError naming core's lower bound on ln S where that exceeds
    ln DBL_MAX."""
    log_low = _log_s_lower(p)
    if log_low > LOG_HUGE:
        raise OverflowError(f"S exceeds the double range at {p}: ln S >= {log_low:.6g} > ln DBL_MAX")


def _try(first: RegimeDecision, run, p: ShuParams, tol: Tolerances, tried: list):
    """Run one candidate: (evaluation, decision) when it meets the target,
    otherwise None with (its tag, the reason code) appended to tried."""
    try:
        ev = run(p, tol)
    except NonConvergence:
        reason = "NON_CONVERGENCE"
    except OverflowError:
        reason = "OVERFLOW"
    else:
        reason = ev.rejection(tol)
        if reason is None:
            return ev, RegimeDecision(first.chosen, first.reason, tuple(tried)) if tried else first
    tried.append((first.chosen, reason))
    return None


def _decide(p: ShuParams, tol: Tolerances):
    """evaluate's decision, straight-line in decision order.  A callee is
    looked up when it runs, so a rebound module name takes effect."""
    nu, z, t = p
    tried = []
    if t >= _LARGE_T_MIN:
        # runs where the bound on K - S is below K_nu(z)'s target, which one past
        # the double range never is; where K overflows, the overflow rule raises if S does
        try:
            kval = shared(_macdonald_k_eval, nu, z)[0]
        except OverflowError:
            _overflow_rule(p)
            tried.append((MethodTag.ASYMPT_LARGE_T, "OVERFLOW"))
        else:
            e = _log_tail_bound(nu, z, t)
            if not (e < LOG_HUGE and math.exp(e) < tol.target(kval)):
                tried.append((MethodTag.ASYMPT_LARGE_T, "CORRECTION_TOO_LARGE"))
            elif found := _try(_LARGE_T, asympt_large_t, p, tol, tried):
                return found
    if abs(nu) == 0.5:
        if not _closed_form_half_validated():
            tried.append((MethodTag.CLOSED_FORM_HALF, "VALIDATION_FAILED"))
        elif found := _try(_HALF_ORDER, _closed_form_half_evaluation, p, tol, tried):
            return found
    if 0.25 * z * z / t < _SMALL_Z_EXPONENT and (found := _try(_SMALL_Z, series_small_z, p, tol, tried)):
        return found
    if found := _try(_SMALL_T, series_small_t, p, tol, tried):
        return found
    _overflow_rule(p)
    return shu_oracle(p, tol), RegimeDecision(MethodTag.ORACLE5, "FALLBACK_ORACLE", tuple(tried))


def evaluate(p: ShuParams, tol: Tolerances = None) -> tuple[Evaluation, RegimeDecision]:
    """Evaluate S with the regime-switching decision procedure.

    Returns the evaluation together with the decision record (chosen
    method, reason code, and any candidates tried and rejected).  Each
    candidate in _decide passes its gate first.  A candidate that then
    does not converge, overflows or fails Evaluation.rejection (an
    estimate above the target, or a value or estimate that is not finite)
    is rejected, and the quadrature oracle is the fallback; a sum that
    cancels shows it in its estimate.  The overflow rule, OverflowError
    naming core's lower bound on ln S where that exceeds ln DBL_MAX, runs
    before the oracle and where the large-endpoint gate finds that K_nu(z)
    overflows, so the normal path pays nothing for it.  The procedure is
    deterministic and never returns a leading-term approximant.

    The call runs in a core.shared_work block, so K_nu(z) is computed at
    most once, only when the large-endpoint gate or a K-based expansion
    needs it, and shared by all three; inside an enclosing block (as in
    evaluate_grid) it shares that block's values and opens none.
    """
    tol = tol or DEFAULT_TOLERANCES
    if _in_shared_work():
        return _decide(p, tol)
    with shared_work():
        return _decide(p, tol)


def evaluate_grid(orders, zs, ts, tol=None) -> list:
    """Row-major sweep over the Cartesian product of the three lists.

    Cells are independent (identical to pointwise evaluate); a failed cell
    carries an error marker and never aborts the sweep.  The sweep is one
    core.shared_work block: K_nu(z) and I_m(z) are computed once per
    (order, argument) pair that needs them, and each incomplete-gamma
    anchor and Legendre-anchored block of orders once per (order,
    endpoint); a value that raises is retried, so it fails exactly the
    cells pointwise evaluate would.  An oracle fallback integrates for each cell.
    """
    tol = tol or DEFAULT_TOLERANCES
    cells = []
    with shared_work():
        for nu in orders:
            for z in zs:
                for t in ts:
                    try:
                        ev, dec = evaluate(ShuParams(nu, z, t), tol)
                    except (DomainError, NonConvergence, OverflowError) as exc:
                        cells.append(GridCell(nu, z, t, None, None, f"{type(exc).__name__}: {exc}"))
                    else:
                        cells.append(tuple.__new__(GridCell, (nu, z, t, ev, dec, None)))
    return cells
