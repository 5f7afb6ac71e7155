import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import hardysys as hs
from hardysys.cli import main
from hardysys.emdenfowler import _manifold_start, integrate
from reference import bounded_closed_form, log_values, profile_value

N4 = ["--n", "4", "--gamma", "0", "--nu", "1", "--alpha", "2"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- classify -------------------------------------------------------------------


def test_classify_three_rows():
    code, out, _ = run_cli(["classify", "--n", "3", "--gamma", "0",
                            "--nu", "1", "--alpha", "3"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    roots = [float(r["c_tilde"]) for r in rows]
    assert roots == sorted(roots)


def test_classify_benchmark_constants():
    code, out, _ = run_cli(["classify", *N4, "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert abs(rows[0]["c1"] - 0.5773503) <= 1e-6
    assert abs(rows[0]["c2"] - 0.5773503) <= 1e-6


def test_classify_decoupled():
    code, out, _ = run_cli(["classify", "--n", "4", "--nu", "0", "--alpha", "2",
                            "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["c1"] == 1.0 and rows[0]["c2"] == 1.0


def test_classify_invalid_params_exit2():
    code, _, err = run_cli(["classify", "--n", "4", "--gamma", "1.5",
                            "--nu", "1", "--alpha", "2"])
    assert code == 2
    assert "invalid parameters" in err


@pytest.mark.parametrize("argv,name", [
    (["classify", "--n", "3", "--gamma", "0", "--nu", "nan", "--alpha", "3"], "nu"),
    (["classify", "--n", "3", "--gamma", "0", "--nu", "inf", "--alpha", "3"], "nu"),
    (["classify", "--n", "3", "--gamma", "0", "--nu", "1", "--alpha", "nan"], "alpha"),
    (["classify", "--n", "4", "--gamma", "nan", "--nu", "1", "--alpha", "2"], "gamma"),
    (["export", *N4, "--mu0", "nan", "--out", "/nonexistent-dir/x"], "scale"),
    (["export", *N4, "--mu0", "inf", "--out", "/nonexistent-dir/x"], "scale"),
    (["verify", *N4, "--mu0", "nan"], "scale"),
    (["verify", *N4, "--mu0", "inf"], "scale"),
    (["sweep", "--n", "3", "--gamma", "0", "--nu", "1", "--alpha", "3", "--param", "nu",
      "--start", "0.1", "--stop", "nan", "--samples", "5"], "nu"),
])
def test_non_finite_parameters_exit2(argv, name):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"invalid parameters: {name} must be ")


@pytest.mark.parametrize("argv", [
    ["classify", *N4], ["shoot", *N4],
    ["sweep", *N4, "--param", "nu", "--start", "0.1", "--stop", "2", "--samples", "3"]])
def test_mu0_refused_where_unread(argv):
    # roots, constants and the shooting amplitude do not depend on the
    # scale: only verify and export take --mu0
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        main([*argv, "--mu0", "2"])
    assert exc.value.code == 2
    assert err.getvalue().endswith("error: unrecognized arguments: --mu0 2\n")


def test_classify_degenerate_only_exit3():
    code, _, err = run_cli(["classify", "--n", "3", "--gamma", "0",
                            "--nu", str(2.0 / 3.0), "--alpha", "3"])
    assert code == 3
    assert "degenerate" in err


def test_classify_tiny_coupling_prints_both_roots():
    code, out, _ = run_cli(["classify", "--n", "3", "--gamma", "0", "--nu", "1e-8",
                            "--alpha", "1.05"])
    assert code == 0
    roots = [float(r["c_tilde"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(roots) == 2
    assert abs(roots[0] / 3.99256e-9 - 1.0) <= 1e-5
    assert abs(roots[1] - 1.00000001) <= 1e-9


def test_classify_root_beyond_double_range_exit2():
    code, out, err = run_cli(["classify", "--n", "4", "--gamma", "0", "--nu", "1.6e-8",
                              "--alpha", "2.0136"])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid parameters:") and "log s = 1269." in err
    assert len(err.splitlines()) == 1


#: n = 150 points whose constants c1, c2 (about 1e-306 to 1e-439) leave the
#: range of a double, the second at gamma = lambda_150 / 2
CONSTANTS_BEYOND_A_DOUBLE = (
    ["--n", "150", "--nu", "277032279.5490757", "--alpha", "1.0234711151999298"],
    ["--n", "150", "--gamma", "2738", "--nu", "353442576882.3206",
     "--alpha", "1.0245123188120597"],
    ["--n", "150", "--nu", "733570424133.4932", "--alpha", "1.0012491346457573"],
)


@pytest.mark.parametrize("command", ["classify", "verify", "shoot", "export"])
@pytest.mark.parametrize("params", CONSTANTS_BEYOND_A_DOUBLE)
def test_constants_beyond_double_range_exit2(command, params, tmp_path):
    # they raised OverflowError, ConvergenceError (residual inf) or "constants
    # must be positive, got (0.0, 0.0)"
    extra = ["--out", str(tmp_path / "x")] if command == "export" else []
    code, out, err = run_cli([command, *params, *extra])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid parameters:") and "beyond the range of a double" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "verify", "shoot", "export"])
def test_constants_system_residual_exit2(monkeypatch, command, tmp_path):
    # a finite constants-system residual above 1e-12 (ConvergenceError) is a
    # refusal of the point, like every other refusal of constants_from_root,
    # not a traceback
    monkeypatch.setattr(hs.coupling, "verify_constants_system",
                        lambda c1, c2, p: (1e-11, 0.0))
    extra = ["--out", str(tmp_path / "x")] if command == "export" else []
    code, out, err = run_cli([command, *N4, *extra])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid parameters: constants system residuals")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params", [
    ["--n", "150", "--nu", "182797434.30013418", "--alpha", "1.019603784221409"],
    ["--n", "150", "--gamma", "3969.915893387126", "--nu", "185766274.20473182",
     "--alpha", "1.010056960915477"],
])
def test_constants_near_the_least_normal_double_classify(params):
    # c1 and c2 are about 1e-306: formed factor by factor, c1^alpha was
    # subnormal, and the first point ended in a ConvergenceError traceback,
    # or nu alpha c1^(alpha-2) overflowed, and the second exited 2
    code, out, err = run_cli(["classify", *params])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2
@pytest.mark.parametrize("argv", [
    ["classify", "--n", "4", "--nu", "1e308", "--alpha", "2"],
    ["classify", "--n", "3", "--nu", "6e307", "--alpha", "3"],
    ["verify", "--n", "3", "--nu", "6e307", "--alpha", "3"],
    ["sweep", "--n", "3", "--nu", "1", "--alpha", "3", "--param", "nu",
     "--start", "1", "--stop", "1e308", "--samples", "3"],
])
def test_coupling_coefficient_beyond_a_double_exit2(argv):
    # nu alpha and nu beta overflowed in the root search, which then found
    # no root and exited 3, though s = 1 is one
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid parameters: the coupling coefficients nu alpha = inf")


def test_classify_largest_coupling_coefficient_finds_the_root():
    code, out, _ = run_cli(["classify", "--n", "4", "--nu", "1e307", "--alpha", "2"])
    assert code == 0
    assert [float(r["c_tilde"]) for r in csv.DictReader(io.StringIO(out))] == [1.0]


def test_classify_searches_roots_once(monkeypatch):
    calls = []
    search = hs.coupling.find_positive_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hs.coupling, "find_positive_roots", counting)
    monkeypatch.setattr(hs.cli, "find_positive_roots", counting)
    code, out, _ = run_cli(["classify", "--n", "3", "--gamma", "0",
                            "--nu", "1", "--alpha", "3"])
    assert code == 0
    assert len(out.splitlines()) == 4
    assert len(calls) == 1


def test_classify_dimension_two_with_split_gamma_exit2():
    # 2* = 2n/(n-2) must not be formed before n is validated
    code, _, err = run_cli(["classify", "--n", "2", "--gamma", "0.1", "--alpha", "2"])
    assert code == 2
    assert "dimension too small" in err


def test_classify_out_file(tmp_path):
    out_file = tmp_path / "roots.csv"
    code, _, _ = run_cli(["classify", "--n", "3", "--gamma", "0", "--nu", "1",
                          "--alpha", "3", "--out", str(out_file)])
    assert code == 0
    with out_file.open() as fh:
        assert len(list(csv.DictReader(fh))) == 3


# --- verify ---------------------------------------------------------------------


def test_verify_benchmark_exit0():
    code, out, _ = run_cli(["verify", *N4])
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True


@pytest.mark.parametrize("n", [6, 8, 10, 14])
@pytest.mark.parametrize("nu", ["0", "1"])
def test_verify_high_dimension_exit0(n, nu):
    # gamma = 0, alpha = 2*/2.  An orbit integrated from the maximum into the
    # saddle grew its error like e^(kappa t), kappa = (n - 2) / 2, and failed
    # here; the trace from the origin does not
    alpha = repr(hs.critical_exponent(n) / 2.0)
    code, out, err = run_cli(["verify", "--n", str(n), "--gamma", "0", "--nu", nu,
                              "--alpha", alpha])
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


def test_verify_perturbed_amplitude_exit1():
    # the loosest tolerance accepted lets the integrated orbit drift from the
    # closed form (3.8e-5)
    code, out, _ = run_cli(["verify", *N4, "--tol", "1e-4"])
    assert code == 1
    report = json.loads(out)
    assert report["overall"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "f0.integration_deviation" in failed


def test_verify_gamma_at_hardy_constant_exit2():
    code, _, _ = run_cli(["verify", "--n", "4", "--gamma", "1.0",
                          "--nu", "1", "--alpha", "2"])
    assert code == 2


def test_verify_zero_families_exit3():
    code, _, err = run_cli(["verify", "--n", "4", "--gamma", "0",
                            "--nu", "0.5", "--alpha", "2"])
    assert code == 3
    assert "nothing to verify" in err


def test_verify_csv_format():
    code, out, _ = run_cli(["verify", *N4, "--format", "csv"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "name,value,threshold,passed"
    assert rows[-1].startswith("overall,")


def test_verify_text_format():
    code, out, _ = run_cli(["verify", *N4, "--format", "text"])
    assert code == 0
    assert out.startswith("hardysys verification report\n")
    assert out.rstrip().endswith("overall: pass")


@pytest.mark.parametrize("mu0", ["1e5", "1e-5"])
def test_verify_far_scale_exit0(mu0):
    # far from mu0 = 1, the limits at fixed radii 1e-8..1e8 would not be
    # reached; the orbit's limits are carried to t0 = log mu0 exactly
    code, out, err = run_cli(["verify", *N4, "--mu0", mu0])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] is True


def test_verify_scale_past_the_range_of_a_double_exit0():
    # n = 6: kappa = 2, so mu0^-kappa = 1e-600 and the limit at 0 are not
    # doubles; the gap is taken in logs.  The orbit's limit reads 1.4e-12
    # here, as at mu0 = 1: the scale costs nothing
    code, out, err = run_cli(["verify", "--n", "6", "--gamma", "0", "--nu", "0",
                              "--alpha", "1.5", "--mu0", "1e300"])
    assert (code, err) == (0, "")
    checks = {c["name"]: c["value"] for c in json.loads(out)["checks"]}
    assert checks["f0.asymptotic_u0"] <= 1e-11


def test_verify_extreme_scale_no_overflow_warning():
    # the radii of the checks lie so far below mu = 1e150 that (r/mu)^-q
    # overflows, and mu0^kappa is no double at 1e-250 and 1e300: neither may
    # be evaluated.  The orbit's limits read 2.4e-12, as at mu0 = 1
    for mu0 in ("1e150", "1e-250", "1e300"):
        code, out, err = run_cli(["verify", *N4, "--mu0", mu0])
        assert (code, err) == (0, "")
        checks = {c["name"]: c["value"] for c in json.loads(out)["checks"]}
        assert checks["f0.asymptotic_u0"] <= 1e-11


@pytest.mark.parametrize("gamma", ["0.24", "0.2475", "0.249975"])
def test_verify_near_hardy_constant_exit0(gamma):
    # gamma = 0.96, 0.99 and 0.9999 lambda_3: kappa is small, so the
    # compensated profile settles only over hundreds of decades of r (past
    # the smallest double at 0.9999); the orbit's limits need no samples
    code, out, err = run_cli(["verify", "--n", "3", "--gamma", gamma, "--nu", "1",
                              "--alpha", "3"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] is True and report["families"] == 3


def test_verify_output_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["verify", *N4, "--out", str(a)])[0] == 0
    assert run_cli(["verify", *N4, "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- shoot ----------------------------------------------------------------------


def test_shoot_benchmark_reports_error():
    code, out, _ = run_cli(["shoot", *N4])
    assert code == 0
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert float(lines["relative_error"]) <= 1e-6
    target = float(lines["closed_form_target"])
    assert abs(target - math.sqrt(2.0 / 3.0)) <= 1e-12


def test_shoot_scalar_case():
    code, out, _ = run_cli(["shoot", "--n", "5", "--gamma", "0", "--nu", "0",
                            "--alpha", str(5.0 / 3.0)])
    assert code == 0
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert float(lines["relative_error"]) <= 1e-6


def test_shoot_root_index_out_of_range_exit2():
    code, _, err = run_cli(["shoot", *N4, "--root-index", "5"])
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("command", ["shoot", "export"])
def test_degenerate_only_reported_as_one_line_exit3(command, tmp_path):
    # f = (s-1)^3 (s+1): the only root is tangential; classify prints the same record
    argv = [command, "--n", "3", "--gamma", "0", "--nu", str(2.0 / 3.0), "--alpha", "3"]
    if command == "export":
        argv += ["--out", str(tmp_path / "deg")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 3
    assert caught == []
    assert "RuntimeWarning" not in err
    assert err.splitlines() == ["warning: 1 degenerate root(s) excluded: 1",
                                "no usable root of the coupling function"]


def test_verify_degenerate_only_reported_as_one_line_exit3():
    code, out, err = run_cli(["verify", "--n", "3", "--gamma", "0",
                              "--nu", str(2.0 / 3.0), "--alpha", "3"])
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "warning: 1 degenerate root(s) excluded: 1",
        "no usable root of the coupling function; nothing to verify"]


def test_shoot_strong_coupling_n14_exit0():
    # a bracketed search from the maximum lost this root to a step size
    # underflow in a far trial; the trace from the origin does not
    code, out, err = run_cli(["shoot", "--n", "14", "--gamma", "0", "--nu", "10",
                              "--alpha", "1.1"])
    assert (code, err) == (0, "")
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert float(lines["relative_error"]) <= 1e-10


TINY_ROOT = ["--n", "4", "--nu", "6.771602131663632e-05", "--alpha", "1.984557056190681"]


def test_shoot_and_verify_at_a_tiny_root_exit0():
    # the first root is s = 1.97e-251, a normal double, where s^-beta, and
    # the equilibrium's K = 1 + nu alpha s^-beta, overflow: both commands
    # raised OverflowError before the start read log K
    code, out, err = run_cli(["shoot", *TINY_ROOT])
    assert (code, err) == (0, "")
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert float(lines["relative_error"]) <= 0.5e-9
    code, out, err = run_cli(["verify", *TINY_ROOT])
    assert (code, err) == (0, "")
    assert json.loads(out)["families"] == 2


def test_simple_root_with_tiny_slope_keeps_its_family():
    # the third root, s = 1.93e12, is simple (s f'(s) = -8.4e3), but f' itself
    # is -4.4e-9: an absolute threshold on |f'| once dropped its family
    p = hs.ProblemParams(14, 0.0, 3.676e-09, 1.009952)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fams = hs.classify(p)
    assert caught == []
    assert len(fams) == 3
    assert (fams[2].root.c_tilde, fams[2].root.f_prime) == (1931755846419.1572,
                                                            -4.3617131237597382e-09)
    code, out, err = run_cli(["shoot", "--n", "14", "--nu", "3.676e-09", "--alpha", "1.009952",
                              "--root-index", "2"])
    assert (code, err) == (0, "")
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert float(lines["relative_error"]) <= 0.5e-9


def test_shoot_wide_bracket_recovers_amplitude():
    # this case once needed a wide bracket, (0.1, 100), and a loose stage to
    # integrate its far end trial.  The run now climbs from the start on
    # the unstable manifold up to a*, with no end trial at all
    code, out, err = run_cli(["shoot", "--n", "3", "--gamma", "0", "--nu", "1",
                              "--alpha", "3"])
    assert (code, err) == (0, "")
    lines = dict(ln.split(": ") for ln in out.strip().splitlines())
    assert abs(float(lines["recovered_amplitude"]) - 0.34198352055495) <= 1e-12
    assert float(lines["relative_error"]) <= 1e-10


@pytest.mark.parametrize("argv", [["verify", *N4], ["shoot", *N4]])
def test_integration_failure_one_line_exit6(monkeypatch, argv):
    # a shooting run that fails (here: out of steps) ends the command with
    # one line and exit 6
    monkeypatch.setattr(hs.emdenfowler, "MAX_STEPS", 20)
    code, out, err = run_cli(argv)
    assert code == 6
    assert out == ""
    assert err == "integration failed: step budget exceeded (20 steps)\n"


UNDERFLOW, OVERFLOW = "step size underflow at t-offset ", "floating-point overflow at t-offset 0"
BUDGET = "step budget exceeded (20000 steps)"


@pytest.mark.parametrize("command,cases", [
    ("verify", (("1e-17", (BUDGET,)), ("1e-170", (UNDERFLOW,)))),
    ("shoot", (("1e-60", (UNDERFLOW,)), ("1e-300", (OVERFLOW,)))),
], ids=["verify", "shoot"])
def test_tiny_tolerance_integrate_error_cli_exit2(monkeypatch, command, cases):
    # integrate itself still fails in one IntegrationError at tolerances that
    # doubles cannot meet.  Each slope's error is scaled by at least kappa |y|,
    # so nothing shrinks the steps at N4's turn, and the shot completes down
    # to 1e-16.  At 1e-17, below the spacing of doubles, the roundoff of the
    # error estimate is about tol per unit step whatever the step size, so
    # the steps shrink and crawl through the step budget (2,000,000 steps
    # take about 20 s; lowered here).  At 1e-170 they underflow at the start, and at 1e-300
    # scaling the error estimate by tol overflows its square at the first
    # step.  The command refuses such a tolerance before any step: one line,
    # exit 2
    monkeypatch.setattr(hs.emdenfowler, "MAX_STEPS", 20000)
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    s = hs.classify(p, 1.0)[0].c_tilde
    for tol, messages in cases:
        with pytest.raises(hs.IntegrationError) as info:
            integrate(_manifold_start(p, s), (0.0, 30.0), p, tol=float(tol),
                      stop=lambda t, yu, pu, yv, pv: pu <= 0.0)
        assert str(info.value).startswith(messages)
        code, out, err = run_cli([command, *N4, "--tol", tol])
        assert (code, out) == (2, "")
        assert err == f"invalid parameters: tolerance must be in [1e-12, 1e-4], got {float(tol):g}\n"


def test_tightest_tolerance_exit0():
    # 1e-12, the tightest tolerance accepted, verifies
    code, out, err = run_cli(["verify", *N4, "--tol", "1e-12"])
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize("command,tol", [("verify", "nan"), ("shoot", "nan"),
                                         ("shoot", "inf")])
def test_non_finite_tolerance_exit2(command, tol):
    code, _, err = run_cli([command, *N4, "--tol", tol])
    assert code == 2
    assert err == f"invalid parameters: tolerance must be in [1e-12, 1e-4], got {tol}\n"


@pytest.mark.parametrize("command", ["verify", "shoot"])
@pytest.mark.parametrize("tol", ["2e-4", "10", "1e10"])
def test_loose_tolerance_exit2(command, tol):
    # above 1e-4 the shooting start is no longer near the origin, and the
    # amplitude errs by more than tol / 2 (38.8 relative at 1e10)
    code, out, err = run_cli([command, *N4, "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"invalid parameters: tolerance must be in [1e-12, 1e-4], got {float(tol):g}\n"


@pytest.mark.parametrize("command", ["verify", "shoot"])
@pytest.mark.parametrize("tol", ["nan", "1e-3"])
def test_tolerance_exit2_where_no_root_exists(command, tol):
    # f vanishes identically here, which exits 3 at a valid tolerance; the
    # tolerance is checked first, so it exits 2 as wherever a root exists
    code, out, err = run_cli([command, "--n", "4", "--gamma", "0", "--nu", "0.5",
                              "--alpha", "2", "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"invalid parameters: tolerance must be in [1e-12, 1e-4], got {float(tol):g}\n"


# --- sweep ----------------------------------------------------------------------


def test_sweep_records_root_count_transition(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--n", "3", "--gamma", "0", "--alpha", "3",
                          "--nu", "1", "--param", "nu", "--start", "0.1",
                          "--stop", "2", "--samples", "20", "--out", str(out_file)])
    assert code == 0
    with out_file.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    counts = [int(r["root_count"]) for r in rows]
    # single root below the tangency at nu = 2/3, three above
    assert counts[0] == 1
    assert counts[-1] == 3
    assert set(counts) == {1, 3}


def test_sweep_through_zero_coupling(tmp_path):
    # samples avoid nu = 1/2, where f = (1-2 nu)(s^2-1) vanishes identically
    out_file = tmp_path / "sweep0.csv"
    code, _, _ = run_cli(["sweep", "--n", "4", "--gamma", "0", "--alpha", "2",
                          "--nu", "1", "--param", "nu", "--start", "0",
                          "--stop", "0.9", "--samples", "4", "--out", str(out_file)])
    assert code == 0
    with out_file.open() as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[0]["root_count"]) == 1  # decoupled sample
    assert all(int(r["root_count"]) == 1 for r in rows)


def test_classify_identically_zero_coupling_function_exit3():
    # n=4, alpha=beta=2, nu=1/2: no isolated roots exist at all
    code, _, err = run_cli(["classify", "--n", "4", "--gamma", "0",
                            "--nu", "0.5", "--alpha", "2"])
    assert code == 3
    assert "no usable root" in err


@pytest.mark.parametrize("argv,exit_code", [
    (["classify", "--n", "4", "--gamma", "0", "--nu", "0.5", "--alpha", "2"], 3),
    (["sweep", "--n", "4", "--gamma", "0", "--alpha", "2", "--param", "nu",
      "--start", "0", "--stop", "1", "--samples", "3"], 0),
])
def test_identically_zero_coupling_function_warns_on_stderr(argv, exit_code):
    # the sweep's middle sample is nu = 1/2; its row alone cannot tell f = 0
    # from a lost root
    code, _, err = run_cli(argv)
    assert code == exit_code
    assert err.splitlines()[0] == (
        "warning: the coupling function vanishes identically (every merged "
        "coefficient is zero); no isolated roots exist")


SWEEP_PAST_A_DOUBLE = ["sweep", "--n", "4", "--gamma", "0", "--nu", "1.6e-8",
                       "--alpha", "2", "--param", "alpha"]


def test_sweep_skips_a_sample_with_a_root_beyond_a_double():
    # only alpha = 2.025 has a root beyond the range of a double (log s = 690.8)
    code, out, err = run_cli([*SWEEP_PAST_A_DOUBLE, "--start", "1.95", "--stop", "2.05",
                              "--samples", "5"])
    assert code == 0
    assert err.splitlines() == [
        "warning: sample 3 (alpha = 2.0249999999999999) skipped: the coupling "
        "function has a root at log s = 690.804, beyond the range of a double"]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["index"] for r in rows] == ["0", "1", "2", "4"]
    for row in rows:
        p = hs.ProblemParams(4, 0.0, 1.6e-8, float(row["alpha"]))
        roots = [f.c_tilde for f in hs.classify(p)]
        assert int(row["root_count"]) == len(roots)
        assert [float(s) for s in row["roots"].split(";")] == roots


def test_sweep_with_every_root_beyond_a_double_exit2():
    code, out, err = run_cli([*SWEEP_PAST_A_DOUBLE, "--start", "2.01", "--stop", "2.02",
                              "--samples", "2"])
    assert (code, out) == (2, "")
    assert err == ("invalid parameters: the coupling function has a root at "
                   "log s = 1726.25, beyond the range of a double\n")


def test_sweep_bad_range_exit2():
    code, _, _ = run_cli(["sweep", "--n", "3", "--gamma", "0", "--alpha", "3",
                          "--nu", "1", "--param", "nu", "--start", "0.1",
                          "--stop", "2", "--samples", "1"])
    assert code == 2


def _count_root_searches(monkeypatch):
    calls = []
    search = hs.cli.find_positive_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hs.cli, "find_positive_roots", counting)
    return calls


def test_sweep_searches_once_per_sample(monkeypatch, tmp_path):
    calls = _count_root_searches(monkeypatch)
    out_file = tmp_path / "sweep.csv"
    # forward, reversed, two-sample and the benchmark's range
    for start, stop, samples in ((0.5, 1.5, 9), (1.5, 0.5, 9), (0.5, 1.5, 2),
                                 (1.9, 0.1, 2), (0.1, 2.0, 200)):
        calls.clear()
        code, _, _ = run_cli(["sweep", "--n", "3", "--gamma", "0", "--alpha", "3",
                              "--nu", "1", "--param", "nu", "--start", str(start),
                              "--stop", str(stop), "--samples", str(samples),
                              "--out", str(out_file)])
        assert code == 0
        assert len(calls) == samples
        rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
        # %.17g round-trips a double, so this compares bits
        assert [float(r["nu"]) for r in rows] == np.linspace(start, stop, samples).tolist()


@pytest.mark.parametrize("start,stop,samples", [
    (-2.5, -0.3, 7), (-0.3, -2.5, 7), (-1.0, 1.0, 11), (3.0, -7.25, 2),
    (-1e-3, -1e-9, 50), (0.1, 0.1, 4), (1e6, -1e-6, 33)])
def test_sweep_samples_are_linspace_bits(start, stop, samples):
    # ranges no valid sweep reaches (negative nu or alpha) included
    assert hs.cli._samples(start, stop, samples) == np.linspace(start, stop, samples).tolist()


def test_sweep_bad_endpoint_fails_before_the_interior(monkeypatch):
    # beta = 2* - alpha falls below 1 from alpha = 3.03 on; every sample's
    # parameters are checked before the first root search
    calls = _count_root_searches(monkeypatch)
    code, _, _ = run_cli(["sweep", *N4, "--param", "alpha", "--start", "1.5",
                          "--stop", "4.5", "--samples", "50"])
    assert code == 2
    assert len(calls) == 0


@pytest.mark.parametrize("param,bad,good,start,stop", [
    ("alpha", "99", "3", "2.5", "3.5"), ("nu", "-5", "1", "0.1", "2")])
def test_sweep_ignores_the_swept_flag(param, bad, good, start, stop):
    # the swept parameter's own flag is never read, so a value it would
    # refuse writes the bytes of a valid one
    def sweep(value):
        flags = {"alpha": "3", "nu": "1", param: value}
        return run_cli(["sweep", "--n", "3", "--gamma", "0", "--nu", flags["nu"],
                        "--alpha", flags["alpha"], "--param", param, "--start", start,
                        "--stop", stop, "--samples", "3"])

    assert sweep(bad) == sweep(good)
    assert sweep(bad)[0] == 0


def test_sweep_deterministic(tmp_path):
    args = ["sweep", "--n", "3", "--gamma", "0", "--alpha", "3", "--nu", "1",
            "--param", "nu", "--start", "0.5", "--stop", "1.5", "--samples", "8"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)])[0] == 0
    assert run_cli(args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- export ---------------------------------------------------------------------


def test_export_profile_contract(tmp_path):
    out_file = tmp_path / "profile.csv"
    code, _, _ = run_cli(["export", *N4, "--what", "profile", "--out", str(out_file)])
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "r,u,v,r_tau1_u,r_tau2_u"
    assert len(rows) == 2049
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    assert np.all(np.diff(data[:, 0]) > 0)


def test_export_trajectory_evenness(tmp_path):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(["export", *N4, "--what", "trajectory", "--out", str(out_file)])
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "t,y_u,p_u,y_v,p_v"
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    y_u = data[:, 1]
    assert np.max(np.abs(y_u - y_u[::-1])) <= 1e-13


def test_export_round_trip_residual(tmp_path):
    out_file = tmp_path / "profile.csv"
    assert run_cli(["export", *N4, "--what", "profile", "--out", str(out_file)])[0] == 0
    data = np.array([[float(v) for v in ln.split(",")]
                     for ln in out_file.read_text().splitlines()[1:]])
    r, u, v, wt1, wt2 = data.T
    p = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    np.testing.assert_allclose(u, fam.c1 * profile_value(fam.profile, r), rtol=1e-15)
    np.testing.assert_allclose(v, fam.c2 * profile_value(fam.profile, r), rtol=1e-15)
    np.testing.assert_allclose(wt1, r ** p.tau1 * u, rtol=1e-13)
    np.testing.assert_allclose(wt2, r ** p.tau2 * u, rtol=1e-13)
    ru, rv = hs.emdenfowler.radial_system_residual(fam, np.log(r))
    assert max(ru, rv) <= 1e-9


def test_export_both_files(tmp_path):
    prefix = tmp_path / "case"
    code, _, _ = run_cli(["export", *N4, "--out", str(prefix)])
    assert code == 0
    assert (tmp_path / "case.profile.csv").exists()
    assert (tmp_path / "case.trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    ["classify", *N4], ["verify", *N4],
    ["sweep", *N4, "--param", "nu", "--start", "0.1", "--stop", "2", "--samples", "3"],
    ["export", *N4, "--what", "profile"], ["export", *N4, "--what", "trajectory"]],
    ids=["classify", "verify", "sweep", "export-profile", "export-trajectory"])
def test_unwritable_output_exit5(argv):
    # one path for every output file: main's handler, one line naming the path
    code, out, err = run_cli([*argv, "--out", "/nonexistent-dir/x"])
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("output error: ") and "/nonexistent-dir/x" in err


def test_export_both_unwritable_trajectory_leaves_no_profile(tmp_path):
    # both files are opened before either is written: a trajectory path
    # that cannot be opened ends the command before any profile row
    (tmp_path / "case.trajectory.csv").mkdir()
    code, out, err = run_cli(["export", *N4, "--out", str(tmp_path / "case")])
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("output error: ") and "case.trajectory.csv" in err
    assert not (tmp_path / "case.profile.csv").exists()


@pytest.mark.parametrize("what, bad", [
    ("profile", ["--grid-n", "1"]),
    ("profile", ["--grid-lo", "0"]),
    ("profile", ["--grid-lo", "10", "--grid-hi", "1"]),
    ("profile", ["--grid-hi", "inf"]),
    ("trajectory", ["--t-halfspan", "-1"]),
    ("trajectory", ["--t-halfspan", "nan"]),
    ("trajectory", ["--t-points", "-5"]),
])
def test_export_bad_grid_exit2_no_file(tmp_path, what, bad):
    out_file = tmp_path / "x.csv"
    code, _, err = run_cli(["export", *N4, "--what", what, "--out", str(out_file), *bad])
    assert code == 2
    assert err.startswith("invalid parameters:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_export_grid_below_min_radius_exit2_no_file(tmp_path):
    # a positive --grid-lo that the profile evaluators would reject
    out_file = tmp_path / "lo.csv"
    code, _, err = run_cli(["export", *N4, "--what", "profile", "--out", str(out_file),
                            "--grid-lo", "1e-310", "--grid-hi", "1"])
    assert code == 2
    assert err.startswith("invalid parameters:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


N150 = ["--n", "150", "--gamma", "5475", "--nu", "0", "--alpha", "1.0135135135135136"]


def test_export_weighted_columns_stay_finite_at_large_n(tmp_path):
    # r^tau2 alone overflows from r = 1.3e4 on at n = 150, where u
    # underflows; c exp(log u + tau log r) gives r^tau u in range
    out_file = tmp_path / "large.csv"
    code, _, err = run_cli(["export", *N150, "--grid-lo", "1e-3", "--what", "profile",
                            "--out", str(out_file)])
    assert (code, err) == (0, "")
    r, u, _, wt1, wt2 = np.array([[float(v) for v in ln.split(",")]
                                  for ln in out_file.read_text().splitlines()[1:]]).T
    assert np.all(np.isfinite(wt1)) and np.all(np.isfinite(wt2))
    p = hs.ProblemParams(150, 5475.0, 0.0, 1.0135135135135136)
    # r^tau1 u = A (1 + r^q)^(-delta) and r^tau2 u = r^(2 kappa) times that
    log_w1 = math.log(p.amplitude) - p.delta * np.log1p(r ** (2.0 * p.kappa / p.delta))
    np.testing.assert_allclose(wt1, np.exp(log_w1), rtol=1e-12)
    np.testing.assert_allclose(wt2, np.exp(log_w1 + 2.0 * p.kappa * np.log(r)), rtol=1e-12)
    assert u[-1] == 0.0  # 4.6e-445 underflows: a double cannot hold it


def test_export_profile_beyond_a_double_exit2_no_file(tmp_path):
    # on the default grid u reaches 1e438 at r = 1e-6
    code, _, err = run_cli(["export", *N150, "--out", str(tmp_path / "case")])
    assert code == 2
    assert err.startswith("invalid parameters:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _ulp_distance(a, b):
    """Elementwise distance in ulps between two float64 arrays, across zero too."""
    def ordered(x):
        bits = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.int64(-2 ** 63) - bits, bits)
    return np.abs(ordered(a) - ordered(b))


def _csv_columns(path):
    lines = path.read_text().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]).T


@pytest.mark.parametrize("flags, mu0, grid_lo, grid_hi", [
    (N4, 1.0, 1e-6, 1e6), (N4, 1e-300, 1e-6, 1e6), (N4, 1e300, 1e-6, 1e6),
    (N150, 1.0, 1e-3, 1e6), (N4, 1.0, 3e-5, 7.7e5)],
    ids=["n4", "n4-mu1e-300", "n4-mu1e300", "n150", "n4-odd-ends"])
def test_export_matches_the_numpy_reference(tmp_path, flags, mu0, grid_lo, grid_hi):
    # export runs on Python floats; the reference is np.geomspace and the
    # closed form in numpy, the way export computed its tables before.  The
    # radii are np.geomspace's within 1 ulp (10.0 ** x against np.power);
    # at the exported radii, u, v and the trajectory are within 4 ulps, an
    # ulp of exp (numpy's differs from libm's, on AVX-512 hosts in about 5 %
    # of points) rounded through c and y'; r^tau u reads log r too, and tau
    # log r carries an ulp of log r times tau: within 32 ulps (14 at n = 150,
    # where tau2 = 75).  The t column is the same bits.  The last case's ends
    # are not 10.0 ** log10 of themselves.
    out = tmp_path / "case"
    assert main(["export", *flags, "--mu0", repr(mu0), "--grid-lo", repr(grid_lo),
                 "--grid-hi", repr(grid_hi), "--out", str(out)]) == 0
    p = hs.ProblemParams(*(float(v) for v in flags[1::2]))
    fam = hs.classify(p, mu0)[0]

    r, u, v, wt1, wt2 = _csv_columns(tmp_path / "case.profile.csv")
    r_ref = np.geomspace(grid_lo, grid_hi, 2048)
    assert r.shape == r_ref.shape
    assert (r[0], r[-1]) == (grid_lo, grid_hi)  # both ends exact, as np.geomspace sets them
    assert _ulp_distance(r, r_ref).max() <= 1
    log_u, log_r = log_values(fam.profile, r), np.log(r)
    for got, want, bound in ((u, fam.c1 * np.exp(log_u), 4), (v, fam.c2 * np.exp(log_u), 4),
                             (wt1, fam.c1 * np.exp(log_u + p.tau1 * log_r), 32),
                             (wt2, fam.c1 * np.exp(log_u + p.tau2 * log_r), 32)):
        assert _ulp_distance(got, want).max() <= bound

    t, *columns = _csv_columns(tmp_path / "case.trajectory.csv")
    t0, half = math.log(mu0), np.linspace(0.0, 10.0, 1001)
    t_ref = np.concatenate([(t0 - half)[::-1][:-1], t0 + half])
    assert t.tobytes() == t_ref.tobytes()
    for got, want in zip(columns, bounded_closed_form(fam, t_ref - t0)):
        assert _ulp_distance(got, want).max() <= 4


def test_export_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["export", *N4, "--what", "profile", "--out", str(a)])[0] == 0
    assert run_cli(["export", *N4, "--what", "profile", "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- module entry point -----------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hardysys", "classify", *N4, "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["c_tilde"] == 1.0


# --- console table ----------------------------------------------------------------

with open(os.path.join(os.path.dirname(__file__), os.pardir, ".github",
                       "console-table.txt")) as fh:
    CONSOLE_TABLE = [line.split(" ", 1) for line in fh.read().splitlines()
                     if line and not line.startswith("#")]


@pytest.mark.parametrize("want,args", CONSOLE_TABLE, ids=[args for _, args in CONSOLE_TABLE])
def test_console_table_row(want, args, tmp_path):
    # each row of .github/console-table.txt in process, checked as
    # console-table.sh checks the installed script: the listed exit code, and
    # no stderr line on exit 0, exactly one otherwise
    code, _, err = run_cli(shlex.split(args.replace("{tmp}", str(tmp_path))))
    assert code == int(want), err
    assert len(err.splitlines()) == (code != 0), err


# --- README -----------------------------------------------------------------------


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every `hardysys ...` line of the README, continuations joined, so that a
    # stale flag in the docs fails here
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("hardysys ")]
    assert {argv[0] for argv in commands} == {"classify", "verify", "shoot", "sweep",
                                              "export"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)
