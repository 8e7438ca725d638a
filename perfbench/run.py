"""Benchmark of the incmac package, measured from outside through its
public entry points.

    python3 perfbench/run.py --workload grid-table --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and README.md): grid-table, scatter-wide,
verify-battery, or `all` for each in turn.  Each is a closed loop with one
caller in one process.  A run:

1. times set-up in fresh child interpreters (child.py) and takes the median;
2. makes one untimed warm-up pass, whose outputs are the ones checked, so
   that lazy set-up (the half-order gate) is paid before timing;
3. repeats passes for --seconds and reports medians (with --trace 1: half
   the time untraced, half with span wrappers at every module boundary);
4. checks the warm-up outputs against two quadrature reference forms, and
   that every timed pass returned exactly the same outputs.

Times are in reference seconds (refclock.py): wall time divided by the
machine's speed, measured by a fixed calibration loop between stretches of
calls.  The report also gives the raw wall-clock figures.

It prints a report, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  It
exits with a non-zero code and prints no result when the package source
is missing.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILDREN = 5
CHILD_TIMEOUT_S = 120
SEGMENT_S = 0.2  # wall seconds of calls between two calibration chunks

# The metrics the last line carries, with their units, as BENCHMARK.json
# declares them; the report prints more.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _import_package():
    if not (SRC / "incmac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'incmac'}")
    sys.path.insert(0, str(SRC))
    import incmac
    import incmac.cli  # noqa: F401  -- so that its namespace is traced too

    return incmac


def _commit():
    """The checked-out commit, read from a .git directory inside the checkout only."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup(name, seed, small):
    """Median set-up and import time over fresh interpreters: (ref s, wall s, import ref s)."""
    setup, wall, imports = [], [], []
    for _ in range(1 if small else CHILDREN):
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py"), name, str(seed), str(int(small)), str(SRC)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        speed = refclock.ref_per_wall(*out["chunks"])
        setup.append(out["setup_s"] * speed)
        wall.append(out["setup_s"])
        imports.append(out["import_s"] * speed)
    return statistics.median(setup), statistics.median(wall), statistics.median(imports)


def _call(fn):
    try:
        return fn(), True
    except workloads.CALL_ERRORS as exc:
        return type(exc).__name__, False


def _measure(calls, seconds, reference, after_pass=None):
    """Passes over `calls` until `seconds` have gone (at least one pass),
    with a calibration chunk after every SEGMENT_S of calls.

    Returns per-pass lists of (reference seconds, succeeded) per call, the
    wall seconds per pass, and whether every pass returned `reference`
    (compared by repr, which is exact for floats and lets NaN equal NaN).
    """
    expected = repr(reference)
    clock = time.perf_counter
    chunks = [refclock.chunk()]
    samples = []  # per pass: [(wall s, ok, segment)]
    same = True
    end = clock() + seconds
    segment_end = clock() + SEGMENT_S
    while True:
        outputs, timed = [], []
        for fn in calls:
            start = clock()
            out, ok = _call(fn)
            stop = clock()
            timed.append((stop - start, ok, len(chunks) - 1))
            outputs.append(out)
            if stop >= segment_end:
                chunks.append(refclock.chunk())
                segment_end = clock() + SEGMENT_S
        samples.append(timed)
        same = same and repr(outputs) == expected
        if after_pass is not None:
            after_pass()
        if clock() >= end:
            break
    chunks.append(refclock.chunk())
    speed = [refclock.ref_per_wall(a, b) for a, b in zip(chunks, chunks[1:])]
    ref = [[(w * speed[seg], ok) for w, ok, seg in timed] for timed in samples]
    wall = [sum(w for w, _, _ in timed) for timed in samples]
    return ref, wall, same


def run(name, seed, seconds, trace_on, small=False):
    """Run one workload; returns (report lines, result dict)."""
    work = workloads.make(name, seed, small)
    pkg = _import_package()
    tol = workloads.tolerance(pkg)
    setup_s, setup_wall, import_s = _setup(name, seed, small)
    calls = work.calls(pkg, tol)

    if trace_on:
        tracer = tracing.Tracer(pkg)
        with tracer:
            reference = [_call(fn)[0] for fn in work.calls(pkg, tol)]
        # the warm-up is the first call in this process, so it pays the gate
        half_gate_s = tracing.layer_metrics(tracer.spans)["evaluator.half_gate_s"]
        tracer.spans.clear()
    else:
        reference = [_call(fn)[0] for fn in calls]

    untraced_s = seconds / 2 if trace_on else seconds
    per_pass, wall, same = _measure(calls, untraced_s, reference)

    if trace_on:
        passes = []

        def collect():
            passes.append(tracing.layer_metrics(tracer.spans))
            if len(passes) == 1:
                OUT.mkdir(exist_ok=True)
                tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
            tracer.spans.clear()

        with tracer:
            traced_pass, _, traced_same = _measure(
                work.calls(pkg, tol), seconds / 2, reference, collect
            )
        same = same and traced_same

    summary = work.check(pkg, tol, reference)
    correct = summary["complete"] and same and (work.survey or summary["failed"] == 0)

    busy = [sum(t for t, _ in p) for p in per_pass]
    latencies = [t if ok else math.inf for p in per_pass for t, ok in p]
    e2e = {
        "setup_s": setup_s,
        "points_per_s": summary["completed"] / statistics.median(busy),
        "latency_p50_us": statistics.median(latencies) * 1e6,
    }
    extra = {}
    if len(latencies) >= 1000:  # at least ten samples beyond the 99th percentile
        extra["latency_p99_us"] = statistics.quantiles(latencies, n=100)[98] * 1e6
    if name == "verify-battery":
        extra["battery_s"] = statistics.median(busy)
    extra.update(summary["fractions"])

    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace_on)} "
        f"python={sys.version.split()[0]} commit={_commit()}",
        f"  passes={len(busy)} latency_samples={len(latencies)} items_per_pass={work.items}"
        f" ref_s_per_wall_s={sum(busy) / sum(wall):.3f}",
    ]
    for key, value in {**e2e, **extra}.items():
        lines.append(f"  {key:<22} {value:.6g} {_unit(key)}")
    lines.append(
        f"  wall clock: setup_s={setup_wall:.6g} s points_per_s="
        f"{summary['completed'] / statistics.median(wall):.6g} 1/s"
    )
    lines.append(
        "  correctness: "
        + " ".join(f"{k}={v}" for k, v in summary["counts"].items())
        + f" deterministic={same} complete={summary['complete']} correct={correct}"
    )
    if summary["by_path"]:
        by_path = sorted(summary["by_path"].items())
        lines.append("  not ok by path: " + " ".join(f"{k}={v}" for k, v in by_path))

    metrics = e2e
    if trace_on:
        metrics = dict(passes[0])
        for key in metrics:
            if key not in tracing.COUNTS:
                metrics[key] = statistics.median(p[key] for p in passes)
        repeat = all(p[k] == passes[0][k] for p in passes for k in tracing.COUNTS)
        traced_busy = [sum(t for t, _ in p) for p in traced_pass]
        metrics["evaluator.half_gate_s"] = half_gate_s
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_ratio"] = statistics.median(traced_busy) / statistics.median(busy)
        lines.append(f"  traced passes={len(passes)} counts repeat across passes={repeat}")
        for key, value in metrics.items():
            lines.append(f"  {key:<36} {value:.6g} {_unit(key)}")

    emitted = SPEC["per_layer"] if trace_on else SPEC["end_to_end"]
    result = {
        "correct": correct,
        "attempted": work.items,
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in emitted},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        lines, result = run(name, args.seed, args.seconds, bool(args.trace), args.small)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
