"""Command-line interface: classify, verify, shoot, sweep, export.

Every flag a command accepts changes its output.  ``--mu0``, the profile
scale, is a flag of ``export`` only: the roots, the constants, the shooting
amplitude and every check of ``verify`` do not depend on it.  ``sweep``
ignores the flag of the parameter it sweeps, and checks the parameters of
every sample before its first root search.  A tangential root is left out
of a sample's count with ``classify``'s warning line, printed as the sample
is searched, before any skipped-sample line.  A sample with a root beyond
the range of a double is left out of the table, with one line
``warning: sample <i> (<param> = <value>) skipped: <message>``.  An infinite
``--start`` or ``--stop``, or ends whose difference is beyond a double, is
refused naming both.  Every CSV table, stdout or file, has one dialect:
17 significant digits and lines ended with ``\\r\\n``.

Exit codes: 0 success, 1 failed verification check, 2 invalid parameters
(among them a coupling coefficient nu alpha or nu beta beyond the range of
a double, a dimension whose amplitude or peak is beyond it, from n = 258 on
at gamma = 0, a root of the coupling function beyond it, named by its log s
and in ``sweep`` only when every sample has one, constants of a root or a
term of their system beyond it, a constants-system residual above 1e-12,
and an ``export`` profile beyond it), 3 no usable root (every root
degenerate, no root, or f identically zero), 5 unwritable output path (one
stderr line, ``output error: <message>``, that names the path), 6
integration failed (step size underflow, step budget exceeded,
floating-point overflow, or a shooting run that did not turn).  Exit code 4
is not used.  Commands return 0 or 1; ``main`` maps refusals to 2, 3, 5 and
6, one exception type each: ``ParameterError``, ``_NoUsableRoot``,
``OSError`` and ``IntegrationError``.

Every warning the library raises is printed to stderr as one line,
``warning: <message>``, when it is raised.

The root search adds its terms left to right, so every command prints the
same roots, bit for bit, on Python 3.10 to 3.13.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings

from .coupling import _usable_roots, classify
from .errors import IntegrationError, ParameterError
from .params import ProblemParams
from .profiles import MIN_RADIUS, _closed_form_arrays

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_NO_USABLE_ROOT = 3
EXIT_UNWRITABLE = 5
EXIT_INTEGRATION_FAILED = 6


class _NoUsableRoot(Exception):
    """No usable root, so nothing to print: ``main`` exits 3 with the message."""


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="space dimension (>= 3)")
    sub.add_argument("--gamma", type=float, default=0.0,
                     help="Hardy coefficient of both equations")
    sub.add_argument("--nu", type=float, default=0.0, help="coupling strength (>= 0)")
    sub.add_argument("--alpha", type=float, required=True,
                     help="coupling exponent; beta = 2* - alpha")


def _build_params(args) -> ProblemParams:
    return ProblemParams(args.n, args.gamma, args.nu, args.alpha)


@contextlib.contextmanager
def _output(*paths):
    """One handle per path, stdout for None, every file opened before any is
    written: when one cannot be opened, those opened (and emptied) before it
    are removed and the OSError reaches ``main``, so exit 5 leaves no table."""
    with contextlib.ExitStack() as stack:
        handles = []
        try:
            for path in paths:
                handles.append(sys.stdout if path is None
                               else stack.enter_context(open(path, "w", newline="")))
        except OSError:
            stack.close()
            for path in paths[:len(handles)]:
                os.remove(path)
            raise
        yield handles


def _write_csv(fh, header, rows):
    """The one CSV writer: a header row, then the rows, every cell not
    already a string written with 17 significant digits, and every line ended
    with csv's default \\r\\n."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([c if isinstance(c, str) else "%.17g" % c for c in row]
                     for row in rows)


def _families(p, mu0=1.0):
    """classify's families, at least one."""
    families = classify(p, mu0)
    if not families:
        raise _NoUsableRoot("no usable root of the coupling function")
    return families


def cmd_classify(args) -> int:
    header = ("c_tilde", "c1", "c2", "f_prime")
    rows = [(f.c_tilde, f.c1, f.c2, f.root.f_prime) for f in _families(_build_params(args))]
    with _output(args.out) as (fh,):
        if args.format == "json":
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)
            fh.write("\n")
        else:
            _write_csv(fh, header, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import full_verification
    p = _build_params(args)
    report = full_verification(p, integration_tol=args.tol)
    if report.n_families == 0:
        raise _NoUsableRoot("no usable root of the coupling function; nothing to verify")
    with _output(args.out) as (fh,):
        if args.format == "json":
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            rows = [(c.name, c.value, c.threshold, "true" if c.passed else "false")
                    for c in report.checks]
            rows.append(("overall", "", "", "true" if report.overall else "false"))
            _write_csv(fh, ("name", "value", "threshold", "passed"), rows)
        else:
            fh.write(report.to_text())
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def _selected_family(p, index, mu0=1.0):
    """The family at ``--root-index``."""
    families = _families(p, mu0)
    if not 0 <= index < len(families):
        raise ParameterError(
            f"root index {index} out of range (found {len(families)} families)")
    return families[index]


def cmd_shoot(args) -> int:
    from .emdenfowler import _check_shooting_tol, shoot_synchronized
    p = _build_params(args)
    _check_shooting_tol(args.tol)  # before the root search, like verify's
    fam = _selected_family(p, args.root_index)
    recovered = shoot_synchronized(p, fam.root, tol=args.tol).y_u[-1]
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


def cmd_sweep(args) -> int:
    if args.samples < 2:
        raise ParameterError("a sweep needs at least two samples")
    # an infinite end or width makes sample 0 start + 0*inf = nan; a nan end
    # is left to the parameter check, which names the parameter
    if any(map(math.isinf, (args.start, args.stop, args.stop - args.start))):
        raise ParameterError("--start, --stop and their difference must be finite, "
                             f"got {args.start:g} and {args.stop:g}")
    values = _samples(args.start, args.stop, args.samples)
    # every sample is checked before the first root search; the swept
    # parameter's own flag is never read
    fixed = {name: getattr(args, name) for name in ("n", "gamma", "nu", "alpha")
             if name != args.param}
    params = [ProblemParams(**fixed, **{args.param: v}) for v in values]
    # a sample whose root search is refused (a root beyond the range of a
    # double) is left out with a warning, unless every sample is
    rows, skipped = [], []
    for i, (value, p) in enumerate(zip(values, params)):
        try:
            found = _usable_roots(p)
        except ParameterError as exc:
            skipped.append((i, value, exc))
            continue
        rows.append((i, value, len(found), ";".join("%.17g" % r.c_tilde for r in found)))
    if not rows:
        raise skipped[0][2]
    for i, value, exc in skipped:
        print(f"warning: sample {i} ({args.param} = {value:.17g}) skipped: {exc}",
              file=sys.stderr)
    with _output(args.out) as (fh,):
        _write_csv(fh, ("index", args.param, "root_count", "roots"), rows)
    return EXIT_OK


def _export_path(args, what):
    """``--out`` itself, or ``<prefix>.<what>.csv`` for ``--what both``."""
    return args.out if args.what == what else f"{args.out}.{what}.csv"


def cmd_export(args) -> int:
    p = _build_params(args)
    if not MIN_RADIUS <= args.grid_lo < args.grid_hi < math.inf:
        raise ParameterError("the grid needs 1e-300 <= --grid-lo < --grid-hi < inf")
    if args.grid_n < 2 or args.t_points < 2:
        raise ParameterError("--grid-n and --t-points must be at least 2")
    if not 0 < args.t_halfspan < math.inf:
        raise ParameterError("--t-halfspan must be positive and finite")
    fam = _selected_family(p, args.root_index, args.mu0)

    # every table, a header and its columns, is computed before any file is
    # opened
    tables = {}
    if args.what != "trajectory":
        # r log-uniform, 10^x on evenly spaced x = log10 r, with both ends
        # exactly --grid-lo and --grid-hi
        lo, hi = args.grid_lo, args.grid_hi
        inner = _samples(math.log10(lo), math.log10(hi), args.grid_n)[1:-1]
        r = [lo, *(10.0 ** x for x in inner), hi]
        # r^tau u = c exp(log U + tau log r): r^tau2 alone overflows where u
        # underflows
        log_u = fam.profile._log_values(r)
        try:
            columns = (r, [fam.c1 * math.exp(a) for a in log_u],
                       [fam.c2 * math.exp(a) for a in log_u],
                       [fam.c1 * math.exp(a + p.tau1 * math.log(x)) for a, x in zip(log_u, r)],
                       [fam.c1 * math.exp(a + p.tau2 * math.log(x)) for a, x in zip(log_u, r)])
        except OverflowError:
            raise ParameterError(
                f"the profile table exceeds the range of a double on [{lo:g}, {hi:g}]"
            ) from None
        tables["profile"] = (("r", "u", "v", "r_tau1_u", "r_tau2_u"), columns)
    if args.what != "profile":
        # t = log r, symmetric about t0 = log mu0; the closed form reads log rho
        t0 = math.log(args.mu0)
        half = _samples(0.0, args.t_halfspan, args.t_points // 2 + 1)
        t = [t0 - h for h in reversed(half[1:])] + [t0 + h for h in half]
        tables["trajectory"] = (("t", "y_u", "p_u", "y_v", "p_v"),
                                (t, *_closed_form_arrays(fam, [x - t0 for x in t])))
    with _output(*(_export_path(args, what) for what in tables)) as handles:
        for (header, columns), fh in zip(tables.values(), handles):
            _write_csv(fh, header, zip(*columns))
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
    sp.add_argument("--mu0", type=float, default=1.0, help="profile scale")
    sp.add_argument("--what", choices=("profile", "trajectory", "both"),
                    default="both")
    sp.add_argument("--out", required=True, help="output path (or prefix for --what both)")
    sp.add_argument("--root-index", type=int, default=0)
    sp.add_argument("--grid-lo", type=float, default=1e-6,
                    help="least profile radius, >= 1e-300")
    sp.add_argument("--grid-hi", type=float, default=1e6, help="greatest profile radius")
    sp.add_argument("--grid-n", type=int, default=2048, help="profile rows, geometric in r")
    sp.add_argument("--t-halfspan", type=float, default=10.0,
                    help="trajectory half-width in log r, symmetric about log mu0")
    sp.add_argument("--t-points", type=int, default=2000,
                    help="N: the trajectory holds 2*floor(N/2) + 1 rows, so 2000 writes "
                         "2001 and 2 writes 3")
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
    except _NoUsableRoot as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_USABLE_ROOT
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION_FAILED
