"""Evaluating the incomplete Macdonald function at single points.

The front end picks an evaluation path per parameter regime and reports
which one it used, its internal error estimate, and the work spent.
"""

from incmac import ShuParams, Tolerances, evaluate, macdonald_k

points = [
    (0.0, 3.0, 0.2),    # small endpoint: expansion in incomplete gammas
    (0.0, 3.0, 3.0),    # z^2/4t < 2 past z = 1: K minus convergent series
    (0.0, 15.0, 10.0),  # near z = 2t the small-endpoint series cancels, and its estimate shows it
    (0.5, 2.0, 1.0),    # half order: erfc closed form
    (1.0, 0.5, 2.0),    # small argument: K minus convergent series
    (0.0, 3.0, 60.0),   # large endpoint: asymptotic correction to K
]

print(f"{'order':>6} {'z':>5} {'t':>6}  {'value':>24} {'est.err':>9}  {'method':<14} reason")
for nu, z, t in points:
    ev, dec = evaluate(ShuParams(nu, z, t))
    print(
        f"{nu:>6g} {z:>5g} {t:>6g}  {ev.value:>24.16e} {ev.error_estimate:>9.1e}"
        f"  {ev.method.value:<14} {dec.reason}"
    )

# the endpoint integral saturates to the Macdonald function
print("\nsaturation toward K as the endpoint grows (order 0, argument 3):")
K = macdonald_k(0.0, 3.0)
tol = Tolerances(abs_tol=1e-300, rel_tol=1e-12)
for t in (1.0, 5.0, 10.0, 20.0, 40.0):
    ev, _ = evaluate(ShuParams(0.0, 3.0, t), tol)
    print(f"  t={t:>5g}: S={ev.value:.15f}   K-S={K - ev.value:.3e}")
print(f"  K_0(3) = {K:.15f}")
