"""The three benchmark workloads: seeded inputs, the public calls one pass
makes, and the correctness check of what a pass returned.

This module imports nothing from incmac, so that a set-up child can build
its inputs before it starts the clock on `import incmac`.  Every method
takes the imported package as its first argument and goes through its
public entry points.
"""

import functools
import math
import random
import sys

# The CLI's tight tolerance: Tolerances(abs_tol=5e-324, rel_tol=1e-12, max_depth=120).
TOLERANCE = {"abs_tol": 5e-324, "rel_tol": 1e-12, "max_depth": 120}

# Errors a call may raise on a valid point: NonConvergence and OverflowError
# are ArithmeticErrors, DomainError and PoleError are ValueErrors.
CALL_ERRORS = (ArithmeticError, ValueError)


def tolerance(pkg):
    return pkg.Tolerances(**TOLERANCE)


def _ladder(lo, hi, n, phase):
    """n log-spaced values in [lo, hi), the first a fraction `phase` of a step above lo."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + phase) / n) for i in range(n)]


def classify(pkg, tol, point, ev):
    """'ok', 'unreferenced' or 'wrong': whether the value agrees with both,
    one or neither of the reference forms 5 (shu_oracle) and 4
    (shu_oracle_cosh) within its claimed error.  Also returns how many
    reference forms raised; a form that raised agrees with nothing.

    A reference flagged underflow_to_zero returns 0.0 with error 0.0, but
    claims only that |S| lies below the smallest normal double, so that is
    taken as its error.
    """
    agree = 0
    ref_raised = 0
    for oracle in (pkg.shu_oracle, pkg.shu_oracle_cosh):
        try:
            ref = oracle(point, tol)
        except CALL_ERRORS:
            ref_raised += 1
            continue
        ref_error = ref.error_estimate
        if pkg.FLAG_UNDERFLOW in ref.flags:
            ref_error = max(ref_error, sys.float_info.min)
        slack = 10.0 * ev.error_estimate + ref_error + 1e-12 * abs(ref.value)
        if abs(ev.value - ref.value) <= slack:
            agree += 1
    return ("wrong", "unreferenced", "ok")[agree], ref_raised


def _evaluations(pkg, tol, outcomes, items):
    """Check (point, method, Evaluation or error name) outcomes of evaluate."""
    counts = {"ok": 0, "unreferenced": 0, "wrong": 0, "raised": 0, "reference_raised": 0, "subnormal": 0}
    by_path = {}
    for point, method, ev in outcomes:
        if isinstance(ev, str):
            kind, method = "raised", ev
        else:
            kind, ref_raised = classify(pkg, tol, point, ev)
            counts["reference_raised"] += ref_raised
            # values the underflow-to-zero policy would have returned as 0.0
            counts["subnormal"] += 0.0 < abs(ev.value) < sys.float_info.min
        counts[kind] += 1
        if kind != "ok":
            by_path[f"{kind}:{method}"] = by_path.get(f"{kind}:{method}", 0) + 1
    returned = items - counts["raised"]
    return {
        "counts": counts,
        "by_path": by_path,
        "complete": len(outcomes) == items,
        "completed": returned,
        "failed": counts["raised"] + counts["wrong"],
        "fractions": {
            "fail_frac": counts["raised"] / items,
            "wrong_frac": counts["wrong"] / returned if returned else 0.0,
            "unreferenced_frac": counts["unreferenced"] / returned if returned else 0.0,
        },
    }


class Workload:
    """Seeded inputs and the public calls of one pass.

    `calls` gives the zero-argument calls of a pass, `first_call` is the
    call set-up ends with, and `check` turns the outputs of one pass into
    a summary: counts, non-ok counts by path, whether the pass is complete,
    how many items completed and failed, and the correctness fractions.
    """

    name = ""
    # A survey counts wrong values and raised calls in `failed` without
    # failing the correctness gate; other workloads must have none.
    survey = False


class GridTable(Workload):
    """One evaluate_grid call over orders x z-ladder x t-ladder, as
    `incmac table` and the figure sweeps run it."""

    name = "grid-table"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        n_free, n_z, n_t = (2, 3, 4) if small else (6, 12, 20)
        # One free order in the middle half of each of n_free equal bins of
        # [-4, 4], and ladder phases in the middle half of a step: seeds
        # change the points but barely the work, since the cost of an order
        # varies by up to 2x across [-4, 4].
        width = 8.0 / n_free
        free = [-4.0 + width * (k + 0.25 + 0.5 * rng.random()) for k in range(n_free)]
        self.orders = sorted(free + [-0.5, 0.5])
        self.zs = _ladder(0.01, 20.0, n_z, 0.25 + 0.5 * rng.random())
        self.ts = _ladder(0.02, 100.0, n_t, 0.25 + 0.5 * rng.random())
        self.items = len(self.orders) * len(self.zs) * len(self.ts)

    def first_call(self, pkg, tol):
        return pkg.evaluate_grid(self.orders, self.zs, self.ts, tol)

    def calls(self, pkg, tol):
        return [functools.partial(pkg.evaluate_grid, self.orders, self.zs, self.ts, tol)]

    def check(self, pkg, tol, outputs):
        (cells,) = outputs
        outcomes = []
        for c in cells:
            point = pkg.ShuParams(c.order, c.argument, c.endpoint)
            if c.evaluation is None:
                outcomes.append((point, None, c.error.split(":")[0]))
            else:
                outcomes.append((point, c.decision.chosen.value, c.evaluation))
        return _evaluations(pkg, tol, outcomes, self.items)


class ScatterWide(Workload):
    """Independent points over the wide box, one timed evaluate each."""

    name = "scatter-wide"
    # Most points lie outside the range the tests cover (|nu| <= 5), where
    # the package has known wrong values and raised calls.
    survey = True

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        n = 50 if small else 2000
        self.points = [
            (
                rng.uniform(-30.0, 30.0),
                math.exp(rng.uniform(math.log(1e-6), math.log(3e3))),
                math.exp(rng.uniform(math.log(1e-4), math.log(3e3))),
            )
            for _ in range(n)
        ]
        self.items = n

    def first_call(self, pkg, tol):
        return pkg.evaluate(pkg.ShuParams(*self.points[0]), tol)

    def calls(self, pkg, tol):
        return [functools.partial(pkg.evaluate, pkg.ShuParams(*p), tol) for p in self.points]

    def check(self, pkg, tol, outputs):
        outcomes = []
        for p, out in zip(self.points, outputs):
            point = pkg.ShuParams(*p)
            if isinstance(out, str):
                outcomes.append((point, None, out))
            else:
                ev, dec = out
                outcomes.append((point, dec.chosen.value, ev))
        return _evaluations(pkg, tol, outcomes, self.items)


class VerifyBattery(Workload):
    """run_verification("default"), the CI user's workload."""

    name = "verify-battery"
    RECORDS = 732

    def __init__(self, seed, small=False):
        # the battery's grid is fixed; the seed changes nothing here
        self.items = self.RECORDS

    def first_call(self, pkg, tol):
        return pkg.run_verification("default")

    def calls(self, pkg, tol):
        return [functools.partial(pkg.run_verification, "default")]

    def check(self, pkg, tol, outputs):
        (records,) = outputs
        failing = [r.identity for r in records if not r.passed]
        by_path = {}
        for identity in failing:
            by_path[f"failed:{identity}"] = by_path.get(f"failed:{identity}", 0) + 1
        return {
            "counts": {"records": len(records), "failed_records": len(failing)},
            "by_path": by_path,
            "complete": len(records) == self.RECORDS,
            "completed": len(records),
            "failed": len(failing),
            "fractions": {"fail_frac": len(failing) / self.RECORDS},
        }


WORKLOADS = {w.name: w for w in (GridTable, ScatterWide, VerifyBattery)}


def make(name, seed, small=False):
    return WORKLOADS[name](seed, small)
