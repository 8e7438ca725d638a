"""Series evaluators of S, plus the leading-term approximants.

The two series (small endpoint, small argument) converge everywhere in the
real domain and act as exact evaluators with tail bounds.  Each of their
four sums is summed in units of one prefactor, (1/2)(z/2t)^nu e^-X, and
leaves through one exit, _sum_exit, which scales it by one exp and bounds
the exponent's rounding by one derived rule.  Three are sums of
incomplete gammas at consecutive orders (gamma._upper_gamma_orders, and
_lower_gamma_orders with I_-nu(z) in the small-argument split form at
negative non-integer order, which needs no K_nu(z)), summed and stopped
in one loop over terms, _gamma_sum, whose rounding core._sum_rounding
bounds.  The paper's large-endpoint expansion is the K form, K_nu(z)
minus that sum, so both candidates run _k_form and differ in their tag.
One proven bound on K - S, _log_tail_bound, says how far S can be from
K: the large-endpoint gate tests it, and _k_form returns K alone where
it is negligible against K.

The small-endpoint series alternates.  series_small_t holds two sums of
it: the paper's (_alternating_small_t) and one in positive terms
(_tricomi_small_t), S = (1/2)(z/2t)^nu e^(-x0-t) sum_n t^n U(n+1, nu+1,
x0), x0 = z^2/4t, from one backward recurrence for U closed at U(0, nu+1,
x0) = 1, read at the reflected point, K_nu(z) - S_-nu(z, x0), above nu =
x0 + 1, where that step cancels.  One rule, _first_to_meet, picks
between the sub-forms.  The leading_* functions are bare approximants
with no error control, for the ratio-law checks and figure overlays;
each takes its exponential through core._exp_value.
"""

import math
import warnings

from .core import (
    DEFAULT_TOLERANCES,
    EPS,
    LN2,
    LOG_HUGE,
    LOG_TINY,
    TINY,
    DomainError,
    Evaluation,
    MethodTag,
    NearPoleWarning,
    NonConvergence,
    ShuParams,
    Tolerances,
    _as_finite_real,
    _as_positive,
    _exp_value,
    _log_s_upper,
    _sum_rounding,
    log_half_ratio,
    shared,
)
from .gamma import (
    _bessel_i_series,
    _lower_gamma_orders,
    _macdonald_k_eval,
    _upper_gamma_orders,
)

__all__ = [
    "series_small_t",
    "leading_small_t",
    "series_small_z",
    "leading_small_z",
    "asympt_large_t",
    "leading_large_z",
    "leading_imb_large_z",
]

_MAX_TERMS = 200  # cap on the terms of every series and asymptotic sum
_MAX_START = 1024  # cap on the start index of the U recurrence
_LOG_EPS2 = 2.0 * math.log(EPS)


def _first_to_meet(tol: Tolerances, *forms) -> Evaluation:
    """The fallback rule between the sub-forms of one candidate, each a
    (function, arguments) pair called in turn: the first Evaluation that
    meets tol (Evaluation.rejection); where none does, the last one
    returned; where none returned, the first NonConvergence or
    OverflowError raised again, which names why the preferred sub-form
    failed."""
    ev = error = None
    for form, args in forms:
        try:
            ev = form(*args)
        except (NonConvergence, OverflowError) as exc:
            error = error or exc
            continue
        if ev.rejection(tol) is None:
            return ev
    if ev is None:
        raise error
    return ev


def _log_tail_bound(nu: float, z: float, t: float) -> float:
    """ln of a bound on K - S = (1/2)(z/2)^nu int_t^inf s^(-nu-1)
    e^(-s - z^2/4s) ds, which the large-endpoint gate and _k_form's K-alone
    exit both test.  With b = nu + 1 it is e + ln I, e the log of
    (1/2)(z/2)^nu t^-b e^-t and I a ceiling on Gamma(-nu, t) t^b e^t =
    int_0^inf e^-u (1 + u/t)^-b du, the tail with e^(-z^2/4s) <= 1: 1 for b
    >= 0; t/(t + b) for -t < b < 0, from (1 + u/t)^-b <= e^(-b u/t);
    Gamma(1 - b) t^b e^t below, as Gamma(1 - b, t) <= Gamma(1 - b), or inf
    past the double range.  Where b >= 0 and x0 = z^2/4t < t, the smaller
    of that and e - x0 - ln(1 - x0/t): s^-b <= t^-b for s >= t, and the
    convex s + z^2/4s lies above its tangent t + x0 + (1 - x0/t)(s - t)."""
    b = nu + 1.0
    e = nu * log_half_ratio(z) - LN2 - t - b * math.log(t)
    if b >= 0.0:
        x0 = 0.25 * z * z / t
        if x0 < t:
            tangent = -x0 - math.log1p(-x0 / t)
            if tangent < 0.0:
                return e + tangent
        return e
    if t + b > 0.0:
        return e + math.log(t / (t + b))
    log_i = math.lgamma(1.0 - b) + b * math.log(t) + t
    return e + log_i if log_i < LOG_HUGE else math.inf


def _negligible(log_bound: float, kval: float) -> bool:
    """Whether e^log_bound, a bound on K - S, is below EPS^2 K with a
    margin of e^8: there S is K far below K's own rounding, so the K form
    returns K with kerr + EPS K unsummed."""
    return kval > 0.0 and log_bound < math.log(kval) + _LOG_EPS2 - 8.0


def _gamma_sum(nu: float, z: float, t: float, small_t: bool, tol: Tolerances, factors, kval: float = 0.0, tail=None):
    """(1/2)(z/2t)^nu e^-X sum_k step^k/k! f_k, the one loop over terms of
    all three incomplete-gamma series: (X, step) = (x0, -t), x0 = z^2/4t,
    where small_t, else (t, -x0); coef_0 = 1, coef_(k+1) = coef_k
    step/(k+1), and (f_k, e_k) = next(factors), e_k an absolute bound, from
    gamma._upper_gamma_orders or _lower_gamma_orders at X.  Summed in units
    of the prefactor, so no term underflows, with abs_tol (the floor) and
    kval (the offset, inf past the double range) in those units.  Stops
    after two consecutive terms below max(floor, rel_tol |offset - partial
    sum|), as an alternating sum can have an accidentally tiny term; raises
    NonConvergence at a partial sum that is not finite or after _MAX_TERMS
    terms.  The estimate adds sum |coef_k| e_k, core._sum_rounding's bound
    (a step rounds twice, twice more in x0 where step = -x0), the first
    omitted term |coef_n| u, u = |f_n| + e_n, or the caller's tail(nu, X,
    step, n, coef_n, u), and _sum_exit's.  Returns (value, error, terms)."""
    x0 = 0.25 * z * z / t
    x, step, c = (x0, -t, 2) if small_t else (t, -x0, 4)
    log_q = log_half_ratio(z, t)
    lead = nu * log_q - x - LN2
    # abs_tol and kval in units of e^lead, inf where that overflows
    e = math.log(tol.abs_tol) - lead if tol.abs_tol else -math.inf
    floor = math.exp(e) if e < LOG_HUGE else math.inf
    offset = 0.0
    if kval:
        e = math.log(kval) - lead
        offset = math.exp(e) if e < LOG_HUGE else math.inf
    rel = tol.rel_tol
    coef = 1.0
    total = peak = lost = plain = stepped = 0.0
    streak = 0
    inf = math.inf
    for k in range(_MAX_TERMS):
        f, e = next(factors)
        term = coef * f
        total += term
        # comparisons, not max() or math.isfinite, in this hot loop
        mag = abs(total)
        if not mag < inf:
            raise NonConvergence(f"partial sum overflows at term {k}")
        if mag > peak:
            peak = mag
        size = abs(term)
        lost += abs(coef) * e
        plain += size + mag
        stepped += k * size
        coef *= step / (k + 1)
        target = rel * abs(offset - total)
        if size < (target if target > floor else floor):
            streak += 1
            if streak == 2:
                break
        else:
            streak = 0
    else:
        raise NonConvergence(f"series did not converge within {_MAX_TERMS} terms")
    werr = lost + _sum_rounding(c, plain, stepped)
    f, bound = next(factors)
    u = abs(f) + bound
    werr += abs(coef) * u if tail is None else tail(nu, x, step, k + 1, coef, u)
    return (*_sum_exit(nu, z, t, x0 if small_t else 0.0, 0.0 if small_t else t, log_q, total, peak, werr), k + 1)


def _sum_exit(nu: float, z: float, t: float, x0: float, xt: float, log_q: float, total: float, peak: float, werr: float):
    """The one exit of every sum of S: (1/2)(z/2t)^nu e^(-x0 - xt) total and
    a bound on its error, for a sum total in units of that prefactor, peak
    its largest |partial sum| and werr its bound; x0 is z^2/4t where the
    prefactor and the factors take it, xt is t where the prefactor does,
    each else 0, and log_q = log_half_ratio(z, t).  The exponent takes ln
    peak before the one exp, which raises OverflowError naming the point
    and ln past the double range.  The bound adds to werr the exponent's
    rounding, term by term to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §3), u = EPS/2 for each of +, -, *, /,
    one ulp, at most EPS, for log and exp:
    - ln(z/2t): u for the quotient, EPS |log_q| for the log; where z/2t is
      subnormal, EPS (|ln z| + |ln t| + |log_q| + 1) for ln z - ln t - ln
      2's logs and subtractions; times |nu|, and u |nu log_q|;
    - x0's two roundings (0.25 z exact, z^2/4 normal) move S = (1/2)
      (z/2t)^nu int_1^inf s^(nu-1) e^(-x0 s - t/s) ds by EPS x0 <s>, and
      integrating d/ds s^nu e^(-x0 s - t/s) over s >= 1 gives x0 <s> = nu + t
      <1/s> + 1/Sigma, Sigma = sum_n t^n U(n+1, nu+1, x0) >= U(1, nu+1, x0)
      >= 1/(x0 + max(0, 1 - nu)), so x0 <s> <= x0 + t + max(nu, 1).  The K
      form and split form take the exact t, and x0 only in their step;
    - u |a| for each partial sum a of ((nu log_q - x0) - xt) - ln 2 + ln
      peak (subtracting a 0 is exact), and u ln 2 for ln 2's own;
    - EPS |ln peak|; EPS for the exp, and 2u for scale (total/peak)."""
    lead = nu * log_q
    # log_half_ratio's two branches, the second with a margin
    dq = 0.5 + abs(log_q) if log_q > LOG_TINY + 1.0 else abs(math.log(z)) + abs(math.log(t)) + abs(log_q) + 1.0
    rounding = abs(nu) * dq + 0.5 * abs(lead)
    if x0:
        lead -= x0
        rounding += 0.5 * abs(lead) + x0 + t + (nu if nu > 1.0 else 1.0)  # max(nu, 1), no call
    if xt:
        lead -= xt
        rounding += 0.5 * abs(lead)
    lead -= LN2
    log_peak = math.log(peak)
    log_scale = lead + log_peak
    if log_scale > LOG_HUGE:
        raise OverflowError(f"the series exceeds the double range at {ShuParams(nu, z, t)}: ln = {log_scale:.6g} > ln DBL_MAX")
    scale = math.exp(log_scale)
    value = scale * (total / peak)
    rounding += 0.5 * (abs(lead) + LN2 + abs(log_scale)) + abs(log_peak) + 2.0
    return value, scale * (werr / peak) + EPS * rounding * abs(value)


def _alternating_small_t(p: ShuParams, tol: Tolerances) -> Evaluation:
    """The paper's alternating small-endpoint series, (1/2)(z/2)^-nu
    sum_k (-z^2/4)^k/k! Gamma(nu - k, z^2/4t): convergent everywhere (the
    k! eventually dominates), efficient where z^2/4t is a few units or
    more; _gamma_sum's with step -t and its first-omitted-term bound."""
    nu, z, t = p.order, p.argument, p.endpoint
    x0 = 0.25 * z * z / t
    if x0 == 0.0:
        # the incomplete gammas at argument 0 are Gamma(nu - k) or infinite
        raise NonConvergence(f"z^2/4t underflows to 0 at z = {z!r}, t = {t!r}; the small-t series has no terms")
    if x0 == math.inf:
        raise NonConvergence(f"x0 = z^2/4t overflows to inf at z = {z!r}, t = {t!r}; the small-t series has no terms")
    value, err, terms = _gamma_sum(nu, z, t, True, tol, _upper_gamma_orders(nu, x0))
    return Evaluation(value, err, MethodTag.SERIES_SMALL_T, terms)


def _tricomi_bracket(nu: float, x: float, t: float, start: int):
    """Bounds sl <= h_0 sum_n t^n U_n/U_0 <= sh, U_n = U(n + 1, nu + 1, x),
    h_0 = U_0, from the backward recurrence U_(n-1) = A_n U_n - B_n U_(n+1)
    (DLMF 13.3.7), A_n = 2n + 1 + x - nu, B_n = (n + 1)(n + 1 - nu), on the
    ratios r_n = U_n/U_(n-1) = 1/(A_n - B_n r_(n+1)) from index start, with
    the sums S_(n-1) = 1 + t r_n S_n alongside, closed at U_(-1) = U(0, nu
    + 1, x) = 1, so r_0 = h_0 (Miller's algorithm normalised by a known
    value; Gautschi, SIAM Rev. 9:24, 1967); an absolute bound on the
    rounding of sh; and the work, steps plus terms.  Where a denominator's
    bracket reaches 0, too wide or too rounded to bound r_n, sums are None.
    Called only at nu <= x + 1, where every A_n >= 0.

    U(a, b, x) is a mean over int_0^inf e^(-xs) s^(a-1) (1+s)^(b-a-1) ds
    (DLMF 13.4.4), so U(a+1)/U(a) = <s/(1+s)>/a, at most 1/(a + x) for a
    >= b - 1 (a factor falling in s moves the mean of s below a/x, then
    Jensen) and 1/a always.  The ratio starts at 0 and at that bound, so
    r_n, whose map is monotone, stays bracketed; below n + 1 = nu it falls
    in r_(n+1), so the two ends swap.  The upper sum starts at the geometric
    bound on the omitted tail, t/(start + 1 + x) (or t/(start + 1)) a term,
    which the caller keeps below 1.  A step's rounding: A_n, B_n and B_n r
    to a few EPS, and the carried relative bound rho times |B_n r_(n+1)|
    r_n, which is A_n r_n - 1 where B_n >= 0 and below 1 where B_n < 0 (n +
    1 < nu), as A_n >= 0; the closing step (A_0 = x + 1 - nu, B_0 = 1 - nu)
    is one such step."""
    ceiling = 1.0 / (start + 1 + x) if start + 1 >= nu else 1.0 / (start + 1)
    rl, rh = 0.0, ceiling
    sl, sh = 1.0, 1.0 / (1.0 - t * ceiling)
    rho = err = 0.0
    e2 = 2.0 * EPS
    e3 = 3.0 * EPS
    c = x + 1.0 - nu
    # the rounding of A_n: of c, carried into every A_n, and of c + 2n
    local = EPS * (x + 1.0 + 2.0 * abs(c)) + e2 * start
    m = start + 1.0
    for n in range(start, -1, -1):
        a = c + 2 * n  # afresh: a running a -= 2 would carry A_start's rounding down
        b = m * (m - nu)
        dl = a - b * rl
        dh = a - b * rh
        # the smaller denominator is at the end where b r is larger
        if b < 0.0:
            if not dl > 0.0:
                return None, None, None, 2 * (start - n)
            rl = 1.0 / dh
            rh = 1.0 / dl
            br = dh - a
        else:
            if not dh > 0.0:
                return None, None, None, 2 * (start - n)
            rl = 1.0 / dl
            rh = 1.0 / dh
            br = a - dh
        rho = (local + br * (rho + e3)) * rh + e2
        if not n:
            # the closing step's r_0 = h_0 times the sums, and its rounding
            ph = rh * sh
            return rl * sl, ph, rh * err + ph * (rho + e2), 2 * start + 1
        tr = t * rh
        u = tr * sh
        sh = 1.0 + u
        err = tr * err + u * (rho + e2) + EPS * sh
        sl = 1.0 + t * rl * sl
        m -= 1.0
        local -= e2


def _tricomi_small_t(p: ShuParams, tol: Tolerances) -> Evaluation:
    """The small-endpoint series with positive terms,
    S = (1/2)(z/2t)^nu e^(-x0 - t) sum_n t^n U(n + 1, nu + 1, x0), x0 = z^2/4t:
    y = x0 (1 + s) in S = (1/2)(z/2)^-nu int_x0^inf e^(-y - z^2/4y) y^(nu-1)
    dy, with e^(ts/(1+s)) expanded and each term integrated by DLMF 13.4.4.
    It is the binomial transform of _alternating_small_t's sum, so nothing
    cancels.  U is the minimal solution of its recurrence in a, so the sum
    comes from one backward recurrence (_tricomi_bracket), whose closing
    step gives h_0 = U(1, nu + 1, x0) in the same bracket where nu <= x0 +
    1: there A_0 = x0 + 1 - nu >= 0, B_0 r_1 <= (1 - nu)/(1 + x0) takes at
    most 1/(1 + x0) of it at nu <= 1, and above that both terms have one
    sign.  Above x0 + 1 S is K_nu(z) - S_-nu(z, x0), the reflected point,
    where -nu < t + 1, adding K's estimate (K is core.shared), EPS (K +
    S_-nu), TINY for a flagged-zero S_-nu or K, and x0's rounding as the
    reflected endpoint: t dS/dt = S/Sigma, Sigma the sum, and _sum_exit's
    bound on 1/Sigma gives EPS S_-nu (z^2/4x0 + 1 + nu).  The ratios converge
    like e^(-4 sqrt(a x0)) (DLMF 13.8.8) and the sum reaches to about n =
    t, so the start, (sqrt(t) + ln(4/rel)/(4 sqrt(x0)))^2, doubles up to
    _MAX_START while the bracket's half-width keeps the estimate off the
    target and the rounding alone does not; a start past _MAX_START, or an
    x0 below the smallest normal double, raises NonConvergence, as does a
    sum past the double range.  Each bracket leaves through _sum_exit, its
    midpoint the total and the peak, its carried rounding the sum's bound;
    the estimate adds the half-width.  S below the smallest normal double
    by core._log_s_upper is the underflow rule's 0.0.  work counts
    recurrence steps plus terms summed over every start."""
    nu, z, t = p.order, p.argument, p.endpoint
    x = 0.25 * z * z / t
    if x < TINY:
        raise NonConvergence(f"z^2/4t underflows to {x:.3g} at z = {z!r}, t = {t!r}; the U recurrence needs a normal x0")
    if x == math.inf:
        raise NonConvergence(f"x0 = z^2/4t overflows to inf at z = {z!r}, t = {t!r}; U(a, b, inf) is 0")
    if nu > x + 1.0:
        ref = _tricomi_small_t(ShuParams(-nu, z, x), tol)
        kval, kerr, _ = shared(_macdonald_k_eval, nu, z)
        err = ref.error_estimate + kerr + EPS * (kval + ref.value * (0.25 * z * z / x + 2.0 + nu))
        err += TINY if ref.flags or not kval else 0.0
        return Evaluation(kval - ref.value, err, MethodTag.SERIES_SMALL_T, ref.work)
    reach = 0.25 * math.log(4.0 / max(tol.rel_tol, EPS)) / math.sqrt(x)
    first = (math.sqrt(t) + reach) ** 2 if t + reach < _MAX_START else math.inf  # no overflow past it
    if not first < _MAX_START:  # first >= t, so t < _MAX_START below
        raise NonConvergence(f"the U recurrence needs a start index above {_MAX_START} at x0 = {x!r}, t = {t!r}")
    start = int(first) + 1
    # the tail's ratio bound, t/(start + 1 + x) or t/(start + 1), below 1
    start = max(start, int(t - x) + 1 if start + 1 >= nu else int(t) + 1)
    if _log_s_upper(p) < LOG_TINY:
        return Evaluation(0.0, 0.0, MethodTag.SERIES_SMALL_T, 0)
    log_q = log_half_ratio(z, t)
    work = 0
    while True:
        sl, sh, serr, steps = _tricomi_bracket(nu, x, t, start)
        work += steps
        if sl is None:
            # a denominator's bracket reached 0: too wide, or its rounding
            if 2 * start > _MAX_START:
                raise NonConvergence(f"U recurrence bracket lost its sign from start index {start}")
            start *= 2
            continue
        if sh == math.inf:
            # the sum grows like e^t, and a later start cannot shrink it
            raise NonConvergence(f"the U recurrence's sum exceeds the double range at {p}")
        s = 0.5 * (sl + sh)
        value, rounding = _sum_exit(nu, z, t, x, t, log_q, s, s, serr)
        err = 0.5 * (sh - sl) / s * value + rounding
        target = tol.target(value)
        if err <= target or rounding >= target or 2 * start > _MAX_START:
            return Evaluation(value, err, MethodTag.SERIES_SMALL_T, work)
        start *= 2


def series_small_t(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """The small-endpoint candidate evaluate runs: the positive-term sum
    (_tricomi_small_t), then, where that raises or misses tol, the paper's
    alternating sum, which alone meets it at negative integer orders below
    x0 = 2 (_first_to_meet); above nu = x0 + 1 the alternating sum first, as
    the positive-term sum's reflected start grows as t falls."""
    tol = tol or DEFAULT_TOLERANCES
    forms = (_tricomi_small_t, (p, tol)), (_alternating_small_t, (p, tol))
    if p.order > 0.25 * p.argument * p.argument / p.endpoint + 1.0:
        forms = forms[::-1]
    return _first_to_meet(tol, *forms)


def _split_tail(nu: float, t: float, step: float, n: int, coef: float, u: float) -> float:
    """A bound on sum_(j >= n) |coef_j L_j|, the terms the split form at
    order nu = -m leaves out after n, with |coef_(j+1)| = |coef_j| x0/(j+1)
    from coef_n = coef, x0 = -step, and |L_n| <= u (_gamma_sum's tail).
    The recurrence (m - j - 1) L_(j+1) = 1 + t L_j bounds every later L by
    U_(j+1) = (1 + t U_j)/|m - j - 1| >= |L_(j+1)|, exactly while m - j - 1
    > 0, where L > 0.  As U_j >= 1/|m - j| (so taken at j = n), the ratio of
    consecutive bounds is at most x0 (|m - j| + t)/((j + 1)|m - j - 1|), so
    at most r_j: x0/(j + 1) (1 + (1 + t)/g) while the pole at m - j = 0 lies
    ahead, g the distance from m to the nearest integer, x0/(j + 1) max(1,
    (t + |m - j|)/(1 + |m - j|)) after it.  The bounds are summed one by one
    until r_j < 1/2 and closed by a geometric rest: before the pole the
    terms may fall and rise again, L growing about t/(m - j) a step."""
    m, x0 = -nu, -step
    f = m - math.floor(m)
    ahead = 1.0 + (1.0 + t) / min(f, 1.0 - f)
    c = abs(coef)
    u = max(u, 1.0 / abs(m - n))
    tail = 0.0
    for j in range(n, n + _MAX_TERMS):
        b = m - j
        r = x0 / (j + 1) * (ahead if b > 0.0 else max(1.0, (t - b) / (1.0 - b)))
        if r < 0.5:
            return tail + c * u / (1.0 - r)
        tail += c * u
        c *= x0 / (j + 1)
        u = (1.0 + t * u) / abs(b - 1.0)
    raise NonConvergence(f"split-form tail bound still growing after {_MAX_TERMS} terms")


def _split_small_z(m: float, z: float, t: float, tol: Tolerances) -> Evaluation:
    """S at order -m, m > 0 not an integer, without K, from the split form
    (1/2)(z/2)^-m sum_k (-z^2/4)^k/k! gamma(m - k, t) - pi/(2 sin(m pi)) I_m(z).

    Writing each Gamma(m - k, t) as Gamma(m - k) - gamma(m - k, t) sums the
    Gamma(m - k) parts with K_m(z) to the I_m term (DLMF 10.27.4, 10.25.2),
    so the large K ~ z^-m is never subtracted.  With gamma(m - k, t) =
    t^(m-k) e^-t L_k (gamma._lower_gamma_orders), the sum is _gamma_sum's at
    order -m with step -x0 and _split_tail's bound, as the terms may rise
    again towards the pole at k = m past z = 1.  The estimate adds the I_m
    term's and EPS (|sum| + 4 |I term|).  Near integer order both parts grow
    like 1/sin(m pi) and cancel, which the last term and the L_k bounds
    show.  I_m(z) is core.shared, as K is."""
    part, part_err, terms = _gamma_sum(-m, z, t, False, tol, _lower_gamma_orders(m, t), tail=_split_tail)
    # pi/(2 sin(m pi)) with the argument reduced exactly
    r = round(m)
    half_pi_over_sin = 0.5 * math.pi / math.sin(math.pi * (m - r))
    if r % 2:
        half_pi_over_sin = -half_pi_over_sin
    ival, ierr = shared(_bessel_i_series, m, z)
    iterm = half_pi_over_sin * ival
    value = part - iterm
    err = part_err + abs(half_pi_over_sin) * ierr + EPS * (4.0 * abs(iterm) + abs(part))
    return Evaluation(value, err, MethodTag.SERIES_SMALL_Z, terms)


def _k_form(nu: float, z: float, t: float, tol: Tolerances, tag: MethodTag = MethodTag.SERIES_SMALL_Z) -> Evaluation:
    """K_nu(z) minus (1/2)(z/2)^nu sum_k (-z^2/4)^k/k! Gamma(-nu - k, t),
    the one sum of both K-based candidates, tagged with the caller's tag.

    Summed by _gamma_sum in units of (1/2)(z/2)^nu t^-nu e^-t with step
    -x0, x0 = z^2/4t, each Gamma(-nu - k, t) from gamma._upper_gamma_orders,
    and stopped against K minus the partial sum, the value: where x0 is
    large the terms rise to about e^x0 times the correction before they
    fall.  The first omitted term bounds the rest at every n: under Gamma's
    integral they are the remainder of e^(-z^2/4s) after n terms of its
    power series, at most the first omitted power by Lagrange's form.  The
    estimate adds K's and EPS (K + |sum|).  Where _log_tail_bound's bound on
    K - S is below EPS^2 K e^-8 (_negligible), far inside kerr + EPS K, K
    is returned alone with that estimate and work 0."""
    kval, kerr, _ = shared(_macdonald_k_eval, nu, z)
    if _negligible(_log_tail_bound(nu, z, t), kval):
        return Evaluation(kval, kerr + EPS * abs(kval), tag, 0)
    part, err, terms = _gamma_sum(nu, z, t, False, tol, _upper_gamma_orders(-nu, t), kval)
    err += kerr + EPS * (abs(kval) + abs(part))
    return Evaluation(kval - part, err, tag, terms)


def series_small_z(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """The convergent expansion in incomplete gammas of argument t.

    At order nu >= 0, and at integer orders, the K form (_k_form): valid
    everywhere, hostile at small t where the summands alternate with large
    magnitude, which its estimate shows.  At negative non-integer order
    both, by _first_to_meet: at z <= 1 the split form (_split_small_z)
    first, which needs no K and does not cancel against it, then the K
    form, which takes the points where the split form's Kummer sum passes
    the double range, past t of about 700; past z = 1 the K form first,
    which takes most points, then the split form."""
    tol = tol or DEFAULT_TOLERANCES
    nu, z, t = p.order, p.argument, p.endpoint
    if nu >= 0.0 or nu == math.floor(nu):
        return _k_form(nu, z, t, tol)
    forms = (_k_form, (nu, z, t, tol)), (_split_small_z, (-nu, z, t, tol))
    return _first_to_meet(tol, *(forms[::-1] if z <= 1.0 else forms))


def asympt_large_t(p: ShuParams, tol: Tolerances = None) -> Evaluation:
    """The paper's large-endpoint expansion, K_nu(z) - (1/2)(z/2)^nu
    sum_k (-z^2/4)^k/k! Gamma(-nu - k, t): _k_form tagged AsymptLargeT, at
    every order.  The evaluator runs it first at t >= 30 where
    _log_tail_bound's bound on K - S is below K's target, at any x0; there
    the sum stops against K within a few terms, or K returns alone."""
    tol = tol or DEFAULT_TOLERANCES
    return _k_form(p.order, p.argument, p.endpoint, tol, MethodTag.ASYMPT_LARGE_T)


def leading_small_t(p: ShuParams) -> float:
    """Leading small-endpoint approximant (1/2)(z/2)^(nu-2) e^(-z^2/4t)
    t^(1-nu); 0.0 below the smallest normal double and OverflowError past
    the double range (core._exp_value)."""
    nu, z, t = p.order, p.argument, p.endpoint
    e = (nu - 2.0) * log_half_ratio(z) - math.log(2.0) + (1.0 - nu) * math.log(t) - 0.25 * z * z / t
    return _exp_value(e, p)


def leading_small_z(p: ShuParams) -> float:
    """Leading small-argument approximant: -ln z at order 0, else
    2^(|nu|-1) Gamma(|nu|) / z^|nu| (even in the order)."""
    nu, z = p.order, p.argument
    if nu == 0.0:
        return -math.log(z)
    a = abs(nu)
    return _exp_value((a - 1.0) * math.log(2.0) + math.lgamma(a) - a * math.log(z), p)


def leading_large_z(p: ShuParams) -> float:
    """Leading large-argument approximant z^nu e^(-z^2/4t - t) / ((2t)^(nu-1)(z^2 - 4t^2)),
    valid only for z > 2t, where the exponent's endpoint minimum sits at
    positive ln(z/2t); the denominator's pole at z = 2t makes it emit
    NearPoleWarning when z < 2.5t."""
    nu, z, t = p.order, p.argument, p.endpoint
    if z <= 2.0 * t:
        raise DomainError("argument", z, f"large-argument form needs z > 2t = {2.0 * t}")
    if z < 2.5 * t:
        warnings.warn(
            f"z={z} is within 25% of the 2t={2.0 * t} pole; approximant unreliable",
            NearPoleWarning,
            stacklevel=2,
        )
    e = nu * math.log(z) - 0.25 * z * z / t - t - (nu - 1.0) * math.log(2.0 * t) - math.log(z * z - 4.0 * t * t)
    return _exp_value(e, p)


def leading_imb_large_z(order: float, z: float, t_imb: float) -> float:
    """Large-argument approximant of the truncated cosh integral:
    cosh(order*t) e^(-z cosh t) / (2 z sinh t), for endpoint t_imb > 0."""
    order = _as_finite_real("order", order)
    t_imb = _as_positive("t_imb", t_imb)  # sinh pole at 0
    z = _as_positive("z", z)
    a = abs(order * t_imb)
    log_cosh = a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)
    return _exp_value(log_cosh - z * math.cosh(t_imb) - math.log(2.0 * z * math.sinh(t_imb)), (order, z, t_imb))
