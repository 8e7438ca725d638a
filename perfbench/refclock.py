"""Reference seconds: wall time corrected for how fast the machine runs.

On a shared machine the speed of one core can change by a factor of two
within a second, as other tenants come and go, so raw wall times of the
same code differ between runs by far more than the changes a benchmark is
meant to show.  The benchmark therefore times a fixed pure-Python loop
(`chunk`), which never changes with the package, before and after each
stretch of measured calls, and divides each call's wall time by the
machine's speed over that stretch.  One reference second is the time the
machine takes for UNITS_PER_REF_S units of the loop; on the 2-vCPU Intel
Xeon virtual machine the benchmark was written on, that is about one wall
second.
"""

import math
import time

UNITS_PER_REF_S = 40000
CHUNK_UNITS = 1500  # one calibration chunk, ~40 ms

# 15-point Kronrod abscissae on [-1, 1]; the loop mimics a quadrature panel
_NODES = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
    -0.5860872354676911, -0.4058451513773972, -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
    0.8648644233597691, 0.9491079123427585, 0.9914553711208126,
)


def _integrand(x):
    e = -x - 0.25 / x
    return math.exp(e) if e > -745.0 else 0.0


def _unit():
    total = 0.0
    for k in range(1, 9):
        centre = 0.5 * k
        for node in _NODES:
            total += _integrand(centre + 0.25 * node)
    return total


def chunk():
    """Wall seconds the machine takes for one calibration chunk now."""
    start = time.perf_counter()
    for _ in range(CHUNK_UNITS):
        _unit()
    return time.perf_counter() - start


def ref_per_wall(before, after):
    """Reference seconds per wall second, from the chunks on either side."""
    return (CHUNK_UNITS / UNITS_PER_REF_S) / (0.5 * (before + after))
