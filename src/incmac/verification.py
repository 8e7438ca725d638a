"""The full verification battery behind the verify command.

Runs the three-form oracle consistency sweep, the identity residual
battery, the related-function round trips, and the expansion trend
checks, returning one record per identity per grid point.  Pass
thresholds are pinned here; the acceptance test suite asserts against
the same records.

Every value of S is evaluate's at core.TIGHT (relations._S), except in
the two checks about the integrals themselves, which take form 5 of the
quadrature oracle: the three-form sweep, and the large-endpoint limit,
where evaluate returns K_nu(z) itself and the residual would read 0.
"""

import math
from collections import namedtuple

from .core import EPS, TIGHT, ShuParams, shared_work
from .expansions import (
    leading_imb_large_z,
    leading_large_z,
    leading_small_t,
    leading_small_z,
)
from .gamma import macdonald_k
from .quadrature import _endpoint_form, integrate_adaptive, require_converged, shu_oracle
from .relations import (
    _S,
    _dS_dz_fd,
    _scale,
    dS_dt,
    dS_dz,
    diff_relation1_residual,
    diff_relation2_residual,
    gen_incomplete_gamma,
    incomplete_modified_bessel,
    leaky_aquifer,
    pde_residual,
    recurrence1_residual,
    recurrence2_residual,
)

__all__ = ["VerifyRecord", "IDENTITY_TOLERANCES", "run_verification", "summarize"]

# Residual-style identities and their maximum relative residuals.  Window
# and trend checks (bounded ratios, orderings) carry their bounds inline.
IDENTITY_TOLERANCES = {
    "ThreeForm": 1e-9,
    "Rec1": 1e-6,
    "Rec2": 1e-6,
    "dSdz": 1e-6,
    "dSdt": 1e-8,
    "RecSum": 1e-6,
    "Diff1_k1": 1e-6,
    "Diff1_k2": 1e-4,
    "Diff2_k1": 1e-6,
    "Diff2_k2": 1e-4,
    "PDE_exact": 1e-7,
    "PDE_fd": 1e-5,
    "GenGammaDef": 1e-8,
    "LeakyDef": 1e-8,
    "ImbDef": 1e-8,
    "GenGammaInv": 1e-9,
    "LeakyInv": 1e-9,
    "LargeTLimit": 1e-12,
}


class VerifyRecord(namedtuple("VerifyRecord", "identity nu z t residual scale passed")):
    """One identity checked at one parameter point."""

    __slots__ = ()

    @property
    def relative(self) -> float:
        return abs(self.residual) / self.scale


def _grids(grid: str):
    if grid == "default":
        three = ((-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 3.0, 8.0), (0.2, 1.0, 3.0, 10.0))
        ident = ((-0.5, 0.0, 0.5, 1.0, 2.0), (1.0, 3.0, 8.0), (0.5, 2.0, 10.0))
    elif grid == "dense":
        three = (
            (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0),
            (0.5, 1.0, 2.0, 3.0, 8.0),
            (0.2, 0.5, 1.0, 3.0, 10.0),
        )
        ident = ((-0.5, 0.0, 0.5, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 8.0), (0.5, 1.0, 2.0, 10.0))
    else:
        raise ValueError("grid must be 'default' or 'dense'")
    return three, ident


def _rec(identity, nu, z, t, residual, scale):
    tol = IDENTITY_TOLERANCES[identity]
    return VerifyRecord(identity, nu, z, t, residual, scale, abs(residual) / scale <= tol)


def _window(identity, nu, z, t, value, lo, hi):
    # value recorded as the residual with unit scale; pass iff inside [lo, hi]
    return VerifyRecord(identity, nu, z, t, value, 1.0, lo <= value <= hi)


def _tail_gap(nu: float, z: float, t: float) -> float:
    """K - S as the explicit tail integral, of form 2's integrand over
    (t, inf); accurate even when far below double resolution of K itself."""
    f = _endpoint_form(nu, z, t)[0]
    hi = min(t + 740.0, 1e30)
    pts = (t + 1.0, t + 5.0, t + 25.0, t + 125.0)
    return require_converged(integrate_adaptive(f, t, hi, TIGHT, points=pts)).value


def _three_form(records, grid):
    nus, zs, ts = grid
    for nu in nus:
        for z in zs:
            for t in ts:
                p = ShuParams(nu, z, t)
                v5 = shu_oracle(p, TIGHT).value
                v2 = shu_oracle(p, TIGHT, form=2).value
                v4 = shu_oracle(p, TIGHT, form=4).value
                worst = max(abs(v5 - v2), abs(v5 - v4), abs(v2 - v4))
                records.append(_rec("ThreeForm", nu, z, t, worst, _scale(v5, v2, v4)))


def _identities(records, grid):
    nus, zs, ts = grid
    for nu in nus:
        for z in zs:
            for t in ts:
                p = ShuParams(nu, z, t)
                for rep in (
                    recurrence1_residual(p),
                    recurrence2_residual(p),
                    diff_relation1_residual(p, 1),
                    diff_relation1_residual(p, 2),
                    diff_relation2_residual(p, 1),
                    diff_relation2_residual(p, 2),
                ):
                    name = rep.identity if rep.k is None else f"{rep.identity}_k{rep.k}"
                    records.append(_rec(name, nu, z, t, rep.residual, rep.scale))
                rep = pde_residual(p, "exact")
                records.append(_rec("PDE_exact", nu, z, t, rep.residual, rep.scale))
                rep = pde_residual(p, "fd")
                records.append(_rec("PDE_fd", nu, z, t, rep.residual, rep.scale))

                s0 = _S(nu, z, t)

                # order-shift z-derivative against a raw central difference
                fd = _dS_dz_fd(nu, z, t)
                exact = dS_dz(p)
                records.append(_rec("dSdz", nu, z, t, exact - fd, _scale(exact, fd)))

                # endpoint derivative against a Richardson-combined central
                # difference; the pass threshold keeps the eps|S|/h difference
                # resolution in view, which dominates where the derivative has
                # saturated to e^-t scale against S itself
                ht = 1e-5 * t
                fd_full = (_S(nu, z, t + ht) - _S(nu, z, t - ht)) / (2.0 * ht)
                fd_half = (_S(nu, z, t + 0.5 * ht) - _S(nu, z, t - 0.5 * ht)) / ht
                fd_t = (4.0 * fd_half - fd_full) / 3.0
                exact_t = dS_dt(p)
                scale_t = _scale(exact_t, fd_t)
                floor = 6.0 * EPS * abs(s0) / ht
                resid_t = exact_t - fd_t
                records.append(
                    VerifyRecord(
                        "dSdt", nu, z, t, resid_t, scale_t,
                        abs(resid_t) <= max(IDENTITY_TOLERANCES["dSdt"] * scale_t, floor),
                    )
                )

                # sum of the two recurrences: -dS/dz - (nu/z)S = S_(nu-1) + dS_(nu-1)/dt
                s_lo = _S(nu - 1.0, z, t)
                dt_lo = dS_dt(ShuParams(nu - 1.0, z, t))
                terms = (-fd, -(nu / z) * s0, -s_lo, -dt_lo)
                records.append(_rec("RecSum", nu, z, t, math.fsum(terms), _scale(*terms)))


def _round_trips(records):
    # defining integrals on a 3x3x3 grid per function
    for a in (-0.5, 0.5, 2.0):
        for tg in (0.5, 1.0, 3.0):
            for zg in (0.5, 2.0, 5.0):
                via_s = gen_incomplete_gamma(a, tg, zg)

                def f(u, a=a, zg=zg):
                    return math.exp((a - 1.0) * math.log(u) - u - zg / u)

                direct = require_converged(
                    integrate_adaptive(f, tg, math.inf, TIGHT, points=(tg + 1.0, tg + 5.0, tg + 25.0))
                ).value
                records.append(_rec("GenGammaDef", a, zg, tg, via_s - direct, _scale(via_s, direct)))
    for a in (-0.5, 0.5, 2.0):
        for zl in (0.3, 1.0, 2.0):
            for tl in (0.5, 1.0, 3.0):
                via_s = leaky_aquifer(a, zl, tl)

                def f(u, a=a, zl=zl, tl=tl):
                    return math.exp(-zl * u - tl / u - (a + 1.0) * math.log(u))

                direct = require_converged(
                    integrate_adaptive(f, 1.0, math.inf, TIGHT, points=(2.0, 5.0, 25.0))
                ).value
                records.append(_rec("LeakyDef", a, zl, tl, via_s - direct, _scale(via_s, direct)))
    for a in (0.0, 1.0, 2.5):
        for z in (1.0, 3.0, 6.0):
            for ti in (0.3, 1.0, 2.0):
                via_s = incomplete_modified_bessel(a, z, ti)

                def f(u, a=a, z=z):
                    zc = z * math.cosh(u)
                    return 0.25 * (math.exp(-zc + a * u) + math.exp(-zc - a * u))

                hi = ti + 1.0
                while z * math.cosh(hi) - a * hi < 760.0:
                    hi += 1.0
                direct = require_converged(integrate_adaptive(f, ti, hi, TIGHT)).value
                records.append(_rec("ImbDef", a, z, ti, via_s - direct, _scale(via_s, direct)))

    # inverse relations reproduce S
    for nu in (-0.5, 0.0, 1.5):
        for z in (1.0, 3.0):
            for t in (0.7, 3.0):
                want = _S(nu, z, t)
                got = 0.5 * (2.0 / z) ** nu * gen_incomplete_gamma(
                    nu, 0.25 * z * z / t, 0.25 * z * z
                )
                records.append(_rec("GenGammaInv", nu, z, t, got - want, _scale(got, want)))
                got = 0.5 * (0.5 * z / t) ** nu * leaky_aquifer(-nu, 0.25 * z * z / t, t)
                records.append(_rec("LeakyInv", nu, z, t, got - want, _scale(got, want)))


def _trends(records):
    # large endpoint: the integral pinned against K, gap bracketed by the
    # leading correction within a factor 2.  The limit takes form 5, since
    # at t = 40 evaluate returns K itself and the residual would read 0
    for nu in (0.0, 1.0, 2.0):
        K = macdonald_k(nu, 3.0)
        s = shu_oracle(ShuParams(nu, 3.0, 40.0), TIGHT).value
        records.append(_rec("LargeTLimit", nu, 3.0, 40.0, s - K, abs(K)))
        for t in (15.0, 20.0, 30.0):
            gap = _tail_gap(nu, 3.0, t)
            corr = 0.5 * 1.5**nu * math.exp(-t) / t ** (nu + 1.0)
            records.append(_window("LargeTGapBound", nu, 3.0, t, gap / corr, 0.5, 2.0))

    # small endpoint ratio law at (2, 3): first-order shrink per halving,
    # and better agreement at higher order
    def dev_small_t(nu, t):
        s = _S(nu, 3.0, t)
        return abs(s / leading_small_t(ShuParams(nu, 3.0, t)) - 1.0)

    d1, d2, d3 = dev_small_t(2.0, 0.1), dev_small_t(2.0, 0.05), dev_small_t(2.0, 0.025)
    records.append(_window("SmallTRatio", 2.0, 3.0, 0.1, d1 / d2, 1.5, 2.5))
    records.append(_window("SmallTRatio", 2.0, 3.0, 0.05, d2 / d3, 1.5, 2.5))
    records.append(
        _window("SmallTOrder", 3.0, 3.0, 0.05, dev_small_t(3.0, 0.05) / dev_small_t(1.0, 0.05), 0.0, 1.0)
    )

    # small argument: log-law improvement at order 0, absolute gap growing
    # with order
    def dev0(z):
        s = _S(0.0, z, 3.0)
        return abs(s / (-math.log(z)) - 1.0)

    records.append(_window("SmallZTrend", 0.0, 1e-4, 3.0, dev0(1e-4) / dev0(1e-2), 0.0, 1.0))
    gap1 = abs(_S(1.0, 1e-2, 3.0) - leading_small_z(ShuParams(1.0, 1e-2, 3.0)))
    gap3 = abs(_S(3.0, 1e-2, 3.0) - leading_small_z(ShuParams(3.0, 1e-2, 3.0)))
    records.append(_window("SmallZOrder", 1.0, 1e-2, 3.0, gap1 / gap3, 0.0, 1.0))

    # large argument: approximant within 10% at z = 12, improving with z
    def dev_large_z(z):
        s = _S(0.0, z, 1.0)
        return abs(s / leading_large_z(ShuParams(0.0, z, 1.0)) - 1.0)

    s12 = _S(0.0, 12.0, 1.0)
    ratio12 = s12 / leading_large_z(ShuParams(0.0, 12.0, 1.0))
    records.append(_window("LargeZWindow", 0.0, 12.0, 1.0, ratio12, 0.9, 1.1))
    records.append(_window("LargeZTrend", 0.0, 20.0, 1.0, dev_large_z(20.0) / dev_large_z(12.0), 0.0, 1.0))

    # truncated cosh integral: approximant moves toward the integral as z grows
    def imb_ratio(z):
        def f(u, z=z):
            return 0.5 * math.exp(-z * math.cosh(u))

        direct = require_converged(integrate_adaptive(f, 1.0, 8.0, TIGHT)).value
        return leading_imb_large_z(0.0, z, 1.0) / direct

    records.append(
        _window("ImbTrend", 0.0, 30.0, 1.0, abs(imb_ratio(30.0) - 1.0) / abs(imb_ratio(15.0) - 1.0), 0.0, 1.0)
    )


def run_verification(grid: str = "default", fail_fast: bool = False) -> list:
    """Run the battery and return one VerifyRecord per identity per point.

    With fail_fast, stops after the first section containing a failure.
    S comes from evaluate at core.TIGHT, except in ThreeForm and
    LargeTLimit, which take the form-5 oracle.  The call is one
    core.shared_work block: each distinct evaluate value (point,
    tolerances) is computed once and reused by every check that asks for
    it, and nothing is kept after the call returns.  shu_oracle is not
    shared: the battery asks for each (point, tolerances, form) once.
    """
    three, ident = _grids(grid)
    records = []
    with shared_work():
        for section in (
            lambda r: _three_form(r, three),
            lambda r: _identities(r, ident),
            _round_trips,
            _trends,
        ):
            start = len(records)
            section(records)
            if fail_fast and any(not r.passed for r in records[start:]):
                break
    return records


def summarize(records):
    """Aggregate records per identity: (identity, points, worst_relative, passed)."""
    order = []
    seen = {}
    for r in records:
        if r.identity not in seen:
            seen[r.identity] = [0, 0.0, True]
            order.append(r.identity)
        entry = seen[r.identity]
        entry[0] += 1
        entry[1] = max(entry[1], r.relative)
        entry[2] = entry[2] and r.passed
    return [(name, *seen[name]) for name in order]
