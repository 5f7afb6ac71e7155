import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import ConvergenceError, ParameterError
from hardysys.emdenfowler import integrate
from reference import convergence_order, fd_derivative


# --- finite-difference oracle -----------------------------------------------


def test_fd_first_derivative_exact_on_quadratic():
    assert_allclose(fd_derivative(lambda r: r * r, 1.0, 1e-3, order=1), 2.0,
                    rtol=0, atol=1e-9)


def test_fd_second_derivative_on_cubic():
    val = fd_derivative(lambda r: r ** 3, 2.0, 1e-4, order=2)
    assert abs(val - 12.0) <= 1e-5


def test_fd_rejects_bad_stencils():
    with pytest.raises(ParameterError):
        fd_derivative(lambda r: r, 0.1, 0.05, order=1)  # r - 2h = 0
    with pytest.raises(ParameterError):
        fd_derivative(lambda r: r, 1.0, -1e-3, order=1)
    with pytest.raises(ValueError):
        fd_derivative(lambda r: r, 1.0, 1e-3, order=3)


# --- convergence order ---------------------------------------------------------


def test_convergence_order_synthetic():
    hs_ = [0.1 / 2 ** k for k in range(5)]
    quad = [(h, h ** 2) for h in hs_]
    assert abs(convergence_order(quad) - 2.0) <= 1e-10
    quart = [(h, h ** 4) for h in hs_]
    assert abs(convergence_order(quart) - 4.0) <= 1e-10


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1e-2), (0.2, 1e-3), (0.05, 1e-4)])  # not decreasing
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1e-2), (0.05, 1e-3)])  # too few
    with pytest.raises(ConvergenceError):
        convergence_order([(0.1, 1e-16), (0.05, 1e-16), (0.025, 1e-16)])


# --- radial grid -----------------------------------------------------------------


def test_log_uniform_grid_contract(monkeypatch, benchmark4):
    # the radii full_verification passes to the radial residual
    p, _ = benchmark4
    grids = []
    residual = hs.verify.radial_system_residual

    def capturing(fam, grid):
        grids.append(grid)
        return residual(fam, grid)

    monkeypatch.setattr(hs.verify, "radial_system_residual", capturing)
    hs.full_verification(p, 1.0)
    assert len(grids) == 1
    grid = grids[0]
    assert len(grid) == 2048
    assert grid[0] == pytest.approx(1e-6)
    assert grid[-1] == pytest.approx(1e6)
    assert np.all(np.diff(grid) > 0)
    ratios = grid[1:] / grid[:-1]
    assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-10


# --- full verification -------------------------------------------------------------


#: check names full_verification may emit (the energy one only when nu = 0)
DOCUMENTED_CHECKS = {
    "constants_residual", "ratio_identity", "radial_residual",
    "weighted_residual_tau1", "weighted_residual_tau2", "ef_residual",
    "integration_deviation", "proportionality_defect", "asymptotic_u0",
    "shooting_recovery", "energy_invariant",
}


def _base_names(report):
    return {c.name.split(".", 1)[1] for c in report.checks}


def test_full_verification_benchmark4(benchmark4):
    p, _ = benchmark4
    report = hs.full_verification(p, 1.0)
    assert report.overall
    assert report.n_families == 1
    assert _base_names(report) == DOCUMENTED_CHECKS - {"energy_invariant"}
    assert report.overall == all(c.passed for c in report.checks)


def test_full_verification_benchmark3(benchmark3):
    p, _ = benchmark3
    report = hs.full_verification(p, 1.0)
    assert report.overall
    assert report.n_families == 3
    assert {c.name.split(".", 1)[0] for c in report.checks} == {"f0", "f1", "f2"}


def test_full_verification_scalar_regression():
    p = hs.ProblemParams.symmetric(3, 0.1875, 0.0, 3.0)
    report = hs.full_verification(p, 2.0)
    assert report.overall
    assert "energy_invariant" in {c.name.split(".", 1)[1] for c in report.checks}


def test_full_verification_flags_perturbed_amplitude(monkeypatch, benchmark4):
    p, _ = benchmark4
    exact = hs.verify.classify
    # every family 10% too tall: the equations no longer hold
    monkeypatch.setattr(hs.verify, "classify", lambda p, mu0: [
        replace(f, c1=1.1 * f.c1, c2=1.1 * f.c2) for f in exact(p, mu0)])
    report = hs.full_verification(p, 1.0)
    assert not report.overall
    failed = {c.name.split(".", 1)[1] for c in report.checks if not c.passed}
    assert "radial_residual" in failed
    assert "ef_residual" in failed


def test_verified_orbit_is_mirror_symmetric(matrix_trajectories):
    # the reference mirror, which acceptance criteria 05 and 07 read, reflects
    # the half orbit that shooting traces about its turn: y is even about t0
    # bit for bit, y' odd, and the turn is the peak
    for case in matrix_trajectories:
        orbit, t0 = case["orbit"], math.log(case["mu0"])
        mid = orbit.t.size // 2
        assert orbit.t.size % 2 == 1 and orbit.t[mid] == t0
        assert np.all(np.diff(orbit.t) > 0)
        assert_allclose(orbit.t - t0, t0 - orbit.t[::-1], rtol=0, atol=1e-14)
        for y, slope in ((orbit.y_u, orbit.p_u), (orbit.y_v, orbit.p_v)):
            assert y.tobytes() == y[::-1].tobytes()
            # == rather than bytes: the slopes at the turn are zeros of either sign
            assert np.array_equal(slope, -slope[::-1])
            assert slope[mid] == 0.0 and y[mid] == np.max(y)


def test_full_verification_integrates_one_leg_per_family(monkeypatch, benchmark3):
    # exactly one integrate call per family, made inside shoot_synchronized
    # at the verification tolerance
    p, fams = benchmark3
    tols, per_shot = [], []

    def counting(*args, **kwargs):
        tols.append(kwargs["tol"])
        return integrate(*args, **kwargs)

    shoot = hs.verify.shoot_synchronized

    def counting_shoot(*args, **kwargs):
        before = len(tols)
        try:
            return shoot(*args, **kwargs)
        finally:
            per_shot.append(len(tols) - before)

    monkeypatch.setattr(hs.emdenfowler, "integrate", counting)
    monkeypatch.setattr(hs.verify, "shoot_synchronized", counting_shoot)
    assert not hasattr(hs.verify, "integrate")
    report = hs.full_verification(p, 1.0, integration_tol=1e-11)
    assert report.overall
    assert len(fams) == 3
    assert per_shot == [1, 1, 1]
    assert tols == [1e-11] * 3


#: (n, gamma / lambda_n, nu, f, mu0), alpha = 1 + f (2* - 2): f = 0.5 is alpha = beta
THINNED_BOX = ([(n, frac, nu, 0.5, 2.0) for n in (6, 8, 10, 14) for frac in (0.0, 0.99)
                for nu in (0.0, 1.0, 10.0)] + [(14, 0.0, 1.0, 0.2, 2.0)]
               + [(n, 0.99, 1.0, 0.5, mu0) for n in (3, 6, 14) for mu0 in (1e-300, 1e300)])


def test_full_verification_passes_on_a_thinned_box():
    # n >= 6, where an orbit integrated from its maximum into the saddle grew
    # its error like e^(kappa t) and failed at gamma = 0; and mu0 = 1e-+300
    # near the Hardy constant, where r^tau u settles only past the doubles
    for n, frac, nu, f, mu0 in THINNED_BOX:
        ts = hs.critical_exponent(n)
        p = hs.ProblemParams(n, frac * hs.hardy_constant(n), nu, 1.0 + f * (ts - 2.0))
        report = hs.full_verification(p, mu0)
        assert report.n_families >= 1, (n, frac, nu, f, mu0)
        assert report.overall, (n, frac, nu, f, mu0,
                                [c for c in report.checks if not c.passed])


@pytest.mark.parametrize("factor,fails", [(1.0 + 1e-5, True), (1.0 + 1e-7, False)])
def test_asymptotic_checks_detect_a_wrong_amplitude(factor, fails):
    # the orbit's limit does not use the closed form: a closed-form amplitude
    # A off by 1e-5 fails asymptotic_u0, and one off by 1e-7 reads as that
    # offset
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    object.__setattr__(p, "amplitude", p.amplitude * factor)  # frozen dataclass
    for mu0 in (1.0, 1e-300):
        check = {c.name: c for c in hs.full_verification(p, mu0).checks}["f0.asymptotic_u0"]
        assert check.passed is not fails
        assert abs(check.value - (factor - 1.0) / factor) <= 1e-9


def test_proportionality_defect_detects_an_orbit_off_the_ray(monkeypatch):
    # DP5 keeps an orbit that starts on the ray y_v = y_u / s on it; one that
    # starts 1e-6 off it (y_v and y_v' scaled by 1 + 1e-6) is no homoclinic
    # of the ray, and proportionality_defect reads about 1.6e-6 > 1e-8
    on_ray = hs.emdenfowler._manifold_start

    def off_ray(p, s, tol):
        start, coordinates = on_ray(p, s, tol)
        return replace(start, y_v=start.y_v * (1.0 + 1e-6),
                       p_v=start.p_v * (1.0 + 1e-6)), coordinates

    monkeypatch.setattr(hs.emdenfowler, "_manifold_start", off_ray)
    checks = {c.name: c for c in
              hs.full_verification(hs.ProblemParams(4, 0.0, 1.0, 2.0)).checks}
    check = checks["f0.proportionality_defect"]
    assert not check.passed
    assert 1e-6 <= check.value <= 1e-5


def test_report_deterministic(benchmark4):
    p, _ = benchmark4
    a = hs.full_verification(p, 1.0)
    b = hs.full_verification(p, 1.0)
    assert a.to_text() == b.to_text()
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_report_text_and_json_schema(benchmark4):
    p, _ = benchmark4
    report = hs.full_verification(p, 1.0)
    text = report.to_text()
    assert text.startswith("hardysys verification report\n")
    assert text.rstrip().endswith("overall: pass")
    assert text.count("check: ") == len(report.checks)
    payload = report.to_json_dict()
    assert list(payload) == ["params", "mu0", "families", "checks", "overall"]
    assert list(payload["params"]) == ["n", "gamma1", "gamma2", "nu", "alpha", "beta"]
    for entry in payload["checks"]:
        assert list(entry) == ["name", "value", "threshold", "passed"]


def test_report_checks_map_to_documented_invariants(benchmark3):
    p, _ = benchmark3
    scalar = hs.ProblemParams.symmetric(3, 0.125, 0.0, 3.0)
    seen = set()
    for report in (hs.full_verification(p, 1.0), hs.full_verification(scalar, 1.0)):
        seen |= _base_names(report)
    assert seen == DOCUMENTED_CHECKS


# float.hex of every check value, recorded before the residual helpers and the
# closed-form core were shared: any change in a report's numbers shows up here.
# The shooting_recovery values were recorded again when shooting became one
# run along the unstable manifold, and the asymptotic_* values when the
# compensated values moved to logs.  The orbit checks, shooting_recovery and
# asymptotic_u0/uinf were recorded again when the shooting trace, mirrored,
# became the one integrated orbit and the limits' gaps were taken in logs,
# and integration_deviation, proportionality_defect (at roundoff),
# shooting_recovery and the asymptotic_* values when the trace started on the
# manifold by its series and the limits were read off it.  The six checks
# that held by construction (simultaneous_max_gap, max_location_error,
# quotient_limit_minus/plus, asymptotic_uinf and asymptotic_ratio) left with
# the mirror; the values kept, read off the half orbit, are the same bits.
REPORT_PINS = {
    "n4-nu1-alpha2": ((
        "0x0.0p+0", "0x0.0p+0", "0x1.d64d5275b2829p-49", "0x1.d64d5275b2829p-49",
        "0x1.61d7dcf3e259fp-50", "0x1.0000000000000p-51", "0x1.ad00000000000p-45",
        "0x0.0p+0", "0x1.5a73fffffe2b2p-39", "0x1.06186c4bfa1bdp-44"),),
    "n3-nu1-alpha3": ((
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.e1cd5f2b5b25cp-49",
        "0x1.e1cd5f2b5b25cp-49", "0x1.f0c00b3b54000p-35", "0x1.e000000000000p-52",
        "0x1.b050000000000p-44", "0x1.d3dbda6758233p-50", "0x1.0627fffffde71p-38",
        "0x1.7d98eaef7d8e7p-45"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.ca7bb15d402e5p-49",
        "0x1.ca7bb15d402e5p-49", "0x1.6d18c00cb0000p-35", "0x1.4000000000000p-52",
        "0x1.3680000000000p-44", "0x0.0p+0", "0x1.04bafffffdecep-38",
        "0x1.6e3da519bbee6p-45"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.e1cd5f2b5b25cp-49",
        "0x1.e1cd5f2b5b25cp-49", "0x1.f0c00b3b54000p-35", "0x1.e000000000000p-52",
        "0x1.ad70000000000p-44", "0x1.41abcc717c3bcp-50", "0x1.05bc7ffffde8dp-38",
        "0x1.72d0b658282b0p-45")),
    # gamma != 0, where the kernel's delta^2 - gamma and kappa^2 need not
    # agree to the last bit
    "n4-gamma0.5-nu1-alpha2": ((
        "0x0.0p+0", "0x0.0p+0", "0x1.11bbee6c6bee0p-51", "0x1.6f2d60f23a893p-48",
        "0x1.7524ff47e0670p-50", "0x1.4000000000000p-52", "0x1.bb00000000000p-45",
        "0x0.0p+0", "0x1.0cc7fffffdcbap-38", "0x1.7fa6358086656p-44"),),
    # mu0 = 2: t0 = log 2 != 0, so the orbit's times t0 + t are rounded
    "n3-nu1-alpha3-mu2": ((
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.2600000000000p-49",
        "0x1.2600000000000p-49", "0x1.693b943484800p-35", "0x1.d000000000000p-52",
        "0x1.b050000000000p-44", "0x1.d3dbda6758233p-50", "0x1.0627fffffde71p-38",
        "0x1.7d98eaef7d8e7p-45"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.8000000000000p-50",
        "0x1.8000000000000p-50", "0x1.097ed09580000p-35", "0x1.4000000000000p-52",
        "0x1.3680000000000p-44", "0x0.0p+0", "0x1.04bbfffffdecep-38",
        "0x1.6e3da519bbee6p-45"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.2600000000000p-49",
        "0x1.2600000000000p-49", "0x1.693b943484800p-35", "0x1.d000000000000p-52",
        "0x1.ad70000000000p-44", "0x1.41abcc717c3bcp-50", "0x1.05bd7ffffde8dp-38",
        "0x1.72d0b658282b0p-45")),
}

# the check order of one coupled (nu > 0) family
COUPLED_CHECKS = (
    "constants_residual", "ratio_identity", "radial_residual",
    "weighted_residual_tau1", "weighted_residual_tau2", "ef_residual",
    "integration_deviation", "proportionality_defect", "asymptotic_u0",
    "shooting_recovery",
)


# ((n, gamma, nu, alpha), mu0) of each pinned report
REPORT_CASES = {
    "n4-nu1-alpha2": ((4, 0.0, 1.0, 2.0), 1.0),
    "n3-nu1-alpha3": ((3, 0.0, 1.0, 3.0), 1.0),
    "n4-gamma0.5-nu1-alpha2": ((4, 0.5, 1.0, 2.0), 1.0),
    "n3-nu1-alpha3-mu2": ((3, 0.0, 1.0, 3.0), 2.0),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_bitwise_regression(name):
    args, mu0 = REPORT_CASES[name]
    report = hs.full_verification(hs.ProblemParams.symmetric(*args), mu0)
    expected = [(f"f{i}.{check}", value)
                for i, values in enumerate(REPORT_PINS[name])
                for check, value in zip(COUPLED_CHECKS, values)]
    assert [(c.name, c.value.hex()) for c in report.checks] == expected
    assert report.overall
