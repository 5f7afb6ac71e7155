"""Command-line interface: classify, verify, shoot, sweep, export.

Exit codes: 0 success, 1 failed verification check, 2 invalid parameters
(among them a root of the coupling function beyond the range of a double,
named by its log s), 3 no usable (non-degenerate) root, 5 unwritable output
path, 6 integration failed (step size underflow, step budget exceeded,
floating-point overflow, or a shooting run that did not turn).  Exit code 4,
once "shooting bracket not found", is retired.

Every warning the library raises is printed to stderr as one line,
``warning: <message>``, when it is raised.

``classify`` and ``sweep`` run on Python floats and never load numpy;
``verify``, ``shoot`` and ``export`` import the modules they use, and numpy
with them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import warnings

from .coupling import classify, find_positive_roots
from .errors import IntegrationError, ParameterError
from .params import ProblemParams
from .profiles import MIN_RADIUS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_DEGENERATE_ONLY = 3
EXIT_UNWRITABLE = 5
EXIT_INTEGRATION_FAILED = 6


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="space dimension (>= 3)")
    sub.add_argument("--gamma", type=float, default=0.0,
                     help="Hardy coefficient of both equations")
    sub.add_argument("--nu", type=float, default=0.0, help="coupling strength (>= 0)")
    sub.add_argument("--alpha", type=float, required=True,
                     help="coupling exponent; beta = 2* - alpha")
    sub.add_argument("--mu0", type=float, default=1.0, help="profile scale")


def _build_params(args) -> ProblemParams:
    return ProblemParams(args.n, args.gamma, args.nu, args.alpha)


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _families(p, mu0):
    """classify's families; no family is a stderr line."""
    families = classify(p, mu0)
    if not families:
        print("no usable root of the coupling function", file=sys.stderr)
    return families


def cmd_classify(args) -> int:
    p = _build_params(args)
    families = _families(p, args.mu0)
    if not families:
        return EXIT_DEGENERATE_ONLY
    rows = [{"c_tilde": f.c_tilde, "c1": f.c1, "c2": f.c2,
             "f_prime": f.root.f_prime} for f in families]
    fh, close = _open_out(args.out)
    try:
        if args.format == "json":
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(["c_tilde", "c1", "c2", "f_prime"])
            for row in rows:
                writer.writerow(["%.17g" % row[k]
                                 for k in ("c_tilde", "c1", "c2", "f_prime")])
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import full_verification
    p = _build_params(args)
    report = full_verification(p, args.mu0, integration_tol=args.tol)
    if report.n_families == 0:
        print("no usable root of the coupling function; nothing to verify",
              file=sys.stderr)
        return EXIT_DEGENERATE_ONLY
    fh, close = _open_out(args.out)
    try:
        if args.format == "json":
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["name", "value", "threshold", "passed"])
            for c in report.checks:
                writer.writerow([c.name, "%.17g" % c.value, "%.17g" % c.threshold,
                                 "true" if c.passed else "false"])
            writer.writerow(["overall", "", "", "true" if report.overall else "false"])
        else:
            fh.write(report.to_text())
    finally:
        if close:
            fh.close()
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def _selected_family(p, args):
    """The family at ``--root-index``; None, after a message, if there is none."""
    families = _families(p, args.mu0)
    if not families:
        return None
    if not 0 <= args.root_index < len(families):
        raise ParameterError(
            f"root index {args.root_index} out of range (found {len(families)} families)")
    return families[args.root_index]


def cmd_shoot(args) -> int:
    from .emdenfowler import shoot_synchronized
    p = _build_params(args)
    fam = _selected_family(p, args)
    if fam is None:
        return EXIT_DEGENERATE_ONLY
    recovered = float(shoot_synchronized(p, fam.root, tol=args.tol).y_u[-1])
    target = fam.peak_amplitude
    rel = abs(recovered - target) / target
    print(f"recovered_amplitude: {recovered:.17g}")
    print(f"closed_form_target: {target:.17g}")
    print(f"relative_error: {rel:.17g}")
    return EXIT_OK


def _samples(start, stop, count):
    """np.linspace(start, stop, count).tolist() without numpy: the same
    formula, so the same bits unless the step underflows to zero."""
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _sweep_value(base, name, value):
    p = dataclasses.replace(base, **{name: value})
    return value, [r for r in find_positive_roots(p) if not r.is_degenerate]


def cmd_sweep(args) -> int:
    base = _build_params(args)
    if args.samples < 2:
        raise ParameterError("a sweep needs at least two samples")
    values = _samples(args.start, args.stop, args.samples)
    # the endpoints go first so that bad ranges fail before any other work
    first = _sweep_value(base, args.param, values[0])
    last = _sweep_value(base, args.param, values[-1])
    results = ([first] + [_sweep_value(base, args.param, v) for v in values[1:-1]]
               + [last])
    fh, close = _open_out(args.out)
    try:
        writer = csv.writer(fh)
        writer.writerow(["index", args.param, "root_count", "roots"])
        for i, (value, roots) in enumerate(results):
            writer.writerow([i, "%.17g" % value, len(roots),
                             ";".join("%.17g" % r.c_tilde for r in roots)])
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_export(args) -> int:
    import numpy as np

    from .emdenfowler import exact_trajectory
    p = _build_params(args)
    if not MIN_RADIUS <= args.grid_lo < args.grid_hi < math.inf:
        raise ParameterError("the grid needs 1e-300 <= --grid-lo < --grid-hi < inf")
    if args.grid_n < 2 or args.t_points < 2:
        raise ParameterError("--grid-n and --t-points must be at least 2")
    if not 0 < args.t_halfspan < math.inf:
        raise ParameterError("--t-halfspan must be positive and finite")
    fam = _selected_family(p, args)
    if fam is None:
        return EXIT_DEGENERATE_ONLY

    targets = []
    if args.what in ("profile", "both"):
        path = args.out if args.what == "profile" else args.out + ".profile.csv"
        targets.append(("profile", path))
    if args.what in ("trajectory", "both"):
        path = args.out if args.what == "trajectory" else args.out + ".trajectory.csv"
        targets.append(("trajectory", path))

    for kind, path in targets:
        try:
            fh = open(path, "w", newline="")
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
        with fh:
            if kind == "profile":
                r = np.geomspace(args.grid_lo, args.grid_hi, args.grid_n)
                u = fam.u(r)
                v = fam.v(r)
                fh.write("r,u,v,r_tau1_u,r_tau2_u\n")
                wt1 = np.power(r, p.tau1) * u
                wt2 = np.power(r, p.tau2) * u
                for vals in zip(r, u, v, wt1, wt2):
                    fh.write(",".join("%.17g" % x for x in vals) + "\n")
            else:
                t0 = math.log(args.mu0)
                half = np.linspace(0.0, args.t_halfspan, args.t_points // 2 + 1)
                t_grid = np.concatenate([(t0 - half)[::-1][:-1], t0 + half])
                exact_trajectory(fam, t_grid).write_csv(fh)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardysys",
        description="classify, verify, and export synchronized solutions of the "
                    "doubly critical inverse-square system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="list roots of the coupling function "
                        "with their constants")
    _add_param_flags(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="run the full verification battery")
    _add_param_flags(sp)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--out", default=None)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="tolerance of each family's one shooting run, in [1e-12, 1e-4]")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("shoot", help="recover the homoclinic amplitude by shooting")
    _add_param_flags(sp)
    sp.add_argument("--root-index", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="integration tolerance of the one shooting run, in [1e-12, 1e-4]")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("sweep", help="root counts over a parameter range")
    _add_param_flags(sp)
    sp.add_argument("--param", choices=("nu", "alpha"), required=True)
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("export", help="write profile and/or trajectory CSV files")
    _add_param_flags(sp)
    sp.add_argument("--what", choices=("profile", "trajectory", "both"),
                    default="both")
    sp.add_argument("--out", required=True, help="output path (or prefix for --what both)")
    sp.add_argument("--root-index", type=int, default=0)
    sp.add_argument("--grid-lo", type=float, default=1e-6)
    sp.add_argument("--grid-hi", type=float, default=1e6)
    sp.add_argument("--grid-n", type=int, default=2048)
    sp.add_argument("--t-halfspan", type=float, default=10.0)
    sp.add_argument("--t-points", type=int, default=2000)
    sp.set_defaults(func=cmd_export)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return args.func(args)
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
