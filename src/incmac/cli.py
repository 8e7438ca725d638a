"""Command line interface.

Subcommands: eval (single point), kfun (the Macdonald limit), figure
(CSV data behind the six standard sweeps), table (Cartesian-product
tabulation), verify (the full identity battery).

Exit codes: 0 success, 1 usage or I/O error, 2 domain error, 3
non-convergence or overflow, 4 verification failure.
"""

import argparse
import json
import sys
import warnings

from .core import (
    EPS, TIGHT, DomainError, NearPoleWarning, NonConvergence, ShuParams, Tolerances, _as_count, _as_finite_real, shared,
    shared_work, validate,
)
from .evaluator import evaluate, evaluate_grid
from .expansions import asympt_large_t, leading_large_z, leading_small_t, leading_small_z, series_small_t, series_small_z
from .gamma import _macdonald_k_eval
from .quadrature import shu_oracle
from .verification import IDENTITY_TOLERANCES, run_verification, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

_FLAG_FOR_FIELD = {"order": "--nu", "argument": "--z", "endpoint": "--t", "z": "--z", "t": "--t", "rel_tol": "--tol"}

# --method value -> function of (point, tolerances) returning an Evaluation
_METHODS = {
    "auto": lambda p, tol: evaluate(p, tol)[0],
    "oracle": shu_oracle,
    "small-t": series_small_t,
    "small-z": series_small_z,
    "large-t": asympt_large_t,
}

# argparse reads a leading "-" as a flag, so a list that starts negative
# must be written in the --flag=value form
_ORDERS_HELP = "comma-separated orders; write {}=-1,0 when the first is negative"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract reserves 2 for
    # domain errors and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerances(args) -> Tolerances:
    if getattr(args, "tol", None) is None:
        return TIGHT
    rel = args.tol
    if not rel >= EPS:
        # no path resolves a value more finely (NaN fails too; Tolerances refuses inf)
        raise DomainError("tol", rel, f"must be at least the double resolution {EPS:.3g}")
    return Tolerances(TIGHT.abs_tol, rel, TIGHT.max_depth)


def _print_eval(value, err, method, work, as_json, flags=()):
    # flags only when there are some: an unflagged result prints four fields
    if as_json:
        fields = {"value": value, "error_estimate": err, "method": method, "work": work}
        if flags:
            fields["flags"] = list(flags)
        print(json.dumps(fields))
    else:
        line = f"value={value:.17g} error_estimate={err:.3e} method={method} work={work}"
        print(f"{line} flags={','.join(flags)}" if flags else line)


def _cmd_eval(args) -> int:
    p = validate(args.nu, args.z, args.t)
    ev = _METHODS[args.method](p, _tolerances(args))
    _print_eval(ev.value, ev.error_estimate, ev.method.value, ev.work, args.json, ev.flags)
    return EXIT_OK


def _cmd_kfun(args) -> int:
    value, err, work = _macdonald_k_eval(args.nu, args.z)
    _print_eval(value, err, "MacdonaldK", work, args.json)
    return EXIT_OK


def _logspace(lo: float, hi: float, n: int):
    if n == 1:
        return [lo]
    ratio = hi / lo
    return [lo * ratio ** (i / (n - 1)) for i in range(n)]


# id -> (sweep name, lo, hi, fixed value, overlay kind)
_FIGURES = {
    1: ("t", 0.05, 20.0, 3.0, None),
    2: ("x", 0.5, 12.0, 3.0, None),
    3: ("t", 0.01, 0.5, 3.0, "small_t"),
    4: ("x", 0.01, 1.0, 3.0, "small_z"),
    5: ("t", 5.0, 60.0, 3.0, "large_t"),
    6: ("x", 6.0, 40.0, 3.0, "large_z"),
}


def _figure_rows(fig_id: int, orders, n_points: int, tol: Tolerances):
    sweep, lo, hi, fixed, overlay = _FIGURES[fig_id]
    sweep_values = _logspace(lo, hi, n_points)
    header = [sweep]
    for o in orders:
        header.append(f"S_n{o:g}")
        if overlay is not None:
            header.append(f"approx_n{o:g}")
    rows = [header]
    # one block for the whole sweep, as evaluate_grid opens: its rows and
    # the large-endpoint overlay share K_nu(z)
    with shared_work():
        for v in sweep_values:
            z, t = (fixed, v) if sweep == "t" else (v, fixed)
            row = [f"{v:.17g}"]
            for o in orders:
                point = ShuParams(o, z, t)
                ev, _ = evaluate(point, tol)
                row.append(f"{ev.value:.17g}")
                if overlay is None:
                    continue
                if overlay == "small_t":
                    row.append(f"{leading_small_t(point):.17g}")
                elif overlay == "small_z":
                    row.append(f"{leading_small_z(point):.17g}")
                elif overlay == "large_t":
                    row.append(f"{shared(_macdonald_k_eval, point.order, point.argument)[0]:.17g}")
                else:  # large_z, undefined at and below the z = 2t pole
                    if z > 2.0 * t:
                        with warnings.catch_warnings():
                            # the sweep knowingly enters the near-pole band
                            warnings.simplefilter("ignore", NearPoleWarning)
                            row.append(f"{leading_large_z(point):.17g}")
                    else:
                        row.append("")
            rows.append(row)
    return rows


def _cmd_figure(args) -> int:
    # each order under its own flag: a ShuParams would name it --nu
    orders = [_as_finite_real("orders", o) for o in _parse_list(args.orders, "--orders")]
    tol = _tolerances(args)
    rows = _figure_rows(args.id, orders, _as_count("points", args.points, 1), tol)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
    return EXIT_OK


def _parse_list(text: str, flag: str):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise DomainError(flag.lstrip("-"), text, "must be a comma-separated list of numbers")
    if not values:
        raise DomainError(flag.lstrip("-"), text, "must be non-empty")
    return values


def _cmd_table(args) -> int:
    nus = _parse_list(args.nu_list, "--nu-list")
    zs = _parse_list(args.z_list, "--z-list")
    ts = _parse_list(args.t_list, "--t-list")
    tol = _tolerances(args)
    cells = evaluate_grid(nus, zs, ts, tol)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("nu,z,t,value,error_estimate,method\n")
        for c in cells:
            if c.evaluation is None:
                fh.write(
                    f"{c.order:.17g},{c.argument:.17g},{c.endpoint:.17g},,,"
                    f"ERROR:{c.error.split(':')[0]}\n"
                )
            else:
                ev = c.evaluation
                fh.write(
                    f"{c.order:.17g},{c.argument:.17g},{c.endpoint:.17g},"
                    f"{ev.value:.17g},{ev.error_estimate:.17g},{ev.method.value}\n"
                )
    return EXIT_OK


def _cmd_verify(args) -> int:
    records = run_verification(args.grid, fail_fast=args.fail_fast)
    if args.json:
        payload = [
            {
                "identity": r.identity,
                "nu": r.nu,
                "z": r.z,
                "t": r.t,
                "residual": r.residual,
                "scale": r.scale,
                "pass": r.passed,
            }
            for r in records
        ]
        print(json.dumps(payload))
    else:
        print(f"{'identity':<16} {'points':>6} {'worst_rel':>12} {'threshold':>10} status")
        for name, pts, worst, ok in summarize(records):
            tol = IDENTITY_TOLERANCES.get(name)
            tol_text = f"{tol:.1e}" if tol is not None else "window"
            print(f"{name:<16} {pts:>6} {worst:>12.3e} {tol_text:>10} {'PASS' if ok else 'FAIL'}")
        failures = sum(1 for r in records if not r.passed)
        print(f"verify: {'PASS' if failures == 0 else 'FAIL'} "
              f"({len(records)} checks, {failures} failures)")
    return EXIT_OK if all(r.passed for r in records) else EXIT_VERIFY_FAILED


def _build_parser() -> _Parser:
    parser = _Parser(prog="incmac", description="Incomplete Macdonald function toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one point", parents=[], add_help=True)
    p.add_argument("--nu", type=float, required=True, help="order")
    p.add_argument("--z", type=float, required=True, help="argument (> 0)")
    p.add_argument("--t", type=float, required=True, help="endpoint (> 0)")
    p.add_argument(
        "--method", choices=tuple(_METHODS), default="auto",
        help="auto runs evaluate; each other method runs the candidate evaluate reports under its tag",
    )
    p.add_argument("--tol", type=float, help="relative tolerance (default 1e-12)")
    p.add_argument("--json", action="store_true", help="emit a single JSON object")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("kfun", help="evaluate the Macdonald function K")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kfun)

    p = sub.add_parser("figure", help="write CSV data for one of the six standard sweeps")
    p.add_argument("--id", type=int, required=True, choices=sorted(_FIGURES))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--orders", default="0,1,2,3", help=_ORDERS_HELP.format("--orders"))
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("table", help="tabulate a Cartesian product grid to CSV")
    p.add_argument("--nu-list", required=True, help=_ORDERS_HELP.format("--nu-list"))
    p.add_argument("--z-list", required=True)
    p.add_argument("--t-list", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the identity and consistency battery")
    p.add_argument("--grid", choices=("default", "dense"), default="default")
    p.add_argument("--json", action="store_true", help="emit one JSON record per check")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        flag = _FLAG_FOR_FIELD.get(exc.field, f"--{exc.field}")
        print(f"incmac: domain error: {flag}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NonConvergence as exc:
        print(f"incmac: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:
        print(f"incmac: overflow: a value exceeded the double range ({exc})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"incmac: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
