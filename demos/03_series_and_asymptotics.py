"""Series evaluators and leading-term approximants in their home regimes.

The convergent expansions double as exact evaluators (with tail bounds);
the leading terms are one-line approximants whose quality improves toward
the corresponding limit, in the direction the residual trends show.
"""

from incmac import (
    ShuParams,
    Tolerances,
    leading_large_z,
    leading_small_t,
    leading_small_z,
    series_small_t,
    series_small_z,
    shu_oracle,
)
from incmac.expansions import _alternating_small_t, _tricomi_small_t

tol = Tolerances(abs_tol=1e-300, rel_tol=1e-12, max_depth=120)


def oracle(nu, z, t):
    return shu_oracle(ShuParams(nu, z, t), tol).value


print("small-endpoint series at (1, 3, t): work and agreement")
for t in (0.05, 0.2, 1.0):
    ev = series_small_t(ShuParams(1.0, 3.0, t), tol)
    ref = oracle(1.0, 3.0, t)
    print(f"  t={t:>5}: work {ev.work:>3}, estimate {ev.error_estimate:.1e}, "
          f"vs oracle {abs(ev.value - ref) / ref:.1e}")

# series_small_t, the candidate evaluate runs, sums the series in positive
# terms, t^n U(n+1, nu+1, z^2/4t), and the paper's alternating sum only
# where that misses; at (0, 6, 3) the alternating sum misses the tight target
p = ShuParams(0.0, 6.0, 3.0)
ref = oracle(0.0, 6.0, 3.0)
print("\nsmall-endpoint series at (0, 6, 3), summed two ways:")
for name, ev in (("alternating", _alternating_small_t(p, tol)), ("positive terms", _tricomi_small_t(p, tol))):
    verdict = "meets" if ev.rejection(tol) is None else "misses"
    print(f"  {name:>14}: work {ev.work:>3}, estimate {ev.error_estimate / ev.value:.1e}, "
          f"vs oracle {abs(ev.value - ref) / ref:.1e}, {verdict} the target")

print("\nsmall-argument series at (1, z, 2):")
for z in (0.05, 0.3, 1.0):
    ev = series_small_z(ShuParams(1.0, z, 2.0), tol)
    ref = oracle(1.0, z, 2.0)
    print(f"  z={z:>5}: {ev.work:>3} terms, vs oracle {abs(ev.value - ref) / ref:.1e}")

print("\nleading small-endpoint term, deviation shrinks like the endpoint (order 2, z=3):")
for t in (0.2, 0.1, 0.05, 0.025):
    dev = abs(oracle(2.0, 3.0, t) / leading_small_t(ShuParams(2.0, 3.0, t)) - 1.0)
    print(f"  t={t:>6}: |S/leading - 1| = {dev:.4f}")

print("\nleading small-argument term at t=3 (order 0 is the -ln z law):")
for z in (1e-1, 1e-2, 1e-4):
    dev = abs(oracle(0.0, z, 3.0) / leading_small_z(ShuParams(0.0, z, 3.0)) - 1.0)
    print(f"  z={z:>6}: |S/(-ln z) - 1| = {dev:.4f}")

print("\nleading large-argument term at t=1 (valid for z > 2t, quadratic falloff):")
for z in (6.0, 12.0, 24.0, 48.0):
    dev = abs(oracle(0.0, z, 1.0) / leading_large_z(ShuParams(0.0, z, 1.0)) - 1.0)
    print(f"  z={z:>4g}: |S/leading - 1| = {dev:.5f}")
