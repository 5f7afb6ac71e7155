import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import ConvergenceError, ParameterError
from hardysys.emdenfowler import exact_ef_solution, integrate
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
    "integration_deviation", "proportionality_defect", "simultaneous_max_gap",
    "max_location_error", "quotient_limit_minus", "quotient_limit_plus",
    "asymptotic_u0", "asymptotic_uinf", "asymptotic_ratio",
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


def test_backward_leg_is_the_forward_leg_mirrored(matrix_families):
    # full_verification integrates one leg per family over (0, 10) and mirrors it
    for p, mu0, fam in matrix_families:
        t0 = math.log(mu0)
        start = exact_ef_solution(fam, t0)
        leg = integrate(start, (0.0, 10.0), p)
        for sign in (1.0, -1.0):
            run = integrate(start, (t0, t0 + sign * 10.0), p)
            assert (run.accepted, run.rejected) == (leg.accepted, leg.rejected)
            assert run.y_u.tobytes() == leg.y_u.tobytes()
            assert run.y_v.tobytes() == leg.y_v.tobytes()
            assert np.array_equal(run.t, t0 + sign * leg.t)
            # == rather than bytes: the slopes at the start are zeros of either sign
            assert np.array_equal(run.p_u, sign * leg.p_u)
            assert np.array_equal(run.p_v, sign * leg.p_v)


def test_full_verification_integrates_one_leg_per_family(monkeypatch, benchmark3):
    p, fams = benchmark3
    legs, trials, per_shot = [], [], []

    def counting(calls):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)
        return wrapped

    shoot = hs.verify.shoot_synchronized

    def counting_shoot(*args, **kwargs):
        before = len(trials)
        try:
            return shoot(*args, **kwargs)
        finally:
            per_shot.append(len(trials) - before)

    monkeypatch.setattr(hs.verify, "integrate", counting(legs))
    monkeypatch.setattr(hs.emdenfowler, "integrate", counting(trials))
    monkeypatch.setattr(hs.verify, "shoot_synchronized", counting_shoot)
    report = hs.full_verification(p, 1.0)
    assert report.overall
    assert len(legs) == len(fams) == 3
    # every other integration is a shooting trial
    assert len(per_shot) == 3
    assert sum(per_shot) == len(trials)
    assert all(3 <= k <= 15 for k in per_shot)


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
# The shooting_recovery values were recorded again when far shooting trials
# moved to a looser tolerance.
REPORT_PINS = {
    "n4-nu1-alpha2": ((
        "0x0.0p+0", "0x0.0p+0", "0x1.d64d5275b2829p-49", "0x1.d64d5275b2829p-49",
        "0x1.61d7dcf3e259fp-50", "0x1.0000000000000p-51", "0x1.99c473d6c0000p-32",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.3988e1409212ep-53", "0x1.d64d51e0db1c6p-51", "0x0.0p+0",
        "0x1.c7c2186dfc55cp-40"),),
    "n3-nu1-alpha3": ((
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.e1cd5f2b5b25cp-49",
        "0x1.e1cd5f2b5b25cp-49", "0x1.f0c00b3b54000p-35", "0x1.e000000000000p-52",
        "0x1.61b0000000000p-44", "0x1.ec9f570383bdfp-46", "0x0.0p+0", "0x0.0p+0",
        "0x1.93e4a264df4bap-39", "0x1.93e4a264df4bap-39", "0x1.08a9310f53ce1p-53",
        "0x1.3a48ea423384bp-49", "0x0.0p+0", "0x1.93e4cb8b37293p-43"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.ca7bb15d402e5p-49",
        "0x1.ca7bb15d402e5p-49", "0x1.6d18c00cb0000p-35", "0x1.4000000000000p-52",
        "0x1.06e0000000000p-44", "0x1.2ebf3d6c79db4p-47", "0x0.0p+0", "0x0.0p+0",
        "0x1.f070000000000p-41", "0x1.f070000000000p-41", "0x1.131703da7272bp-53",
        "0x1.3579e455c0c10p-49", "0x0.0p+0", "0x1.9317c3c9bbfc9p-43"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.e1cd5f2b5b25cp-49",
        "0x1.e1cd5f2b5b25cp-49", "0x1.f0c00b3b54000p-35", "0x1.e000000000000p-52",
        "0x1.c0be000000000p-44", "0x1.b54589ea44f51p-50", "0x0.0p+0", "0x0.0p+0",
        "0x1.66aa84849a19dp-43", "0x1.66aa84849a19dp-43", "0x1.945daa5a56f0ep-53",
        "0x1.488c1a6966a3cp-49", "0x0.0p+0", "0x1.93c3a49e72ad4p-43")),
    # gamma != 0, where the kernel's delta^2 - gamma and kappa^2 need not
    # agree to the last bit
    "n4-gamma0.5-nu1-alpha2": ((
        "0x0.0p+0", "0x0.0p+0", "0x1.11bbee6c6bee0p-51", "0x1.6f2d60f23a893p-48",
        "0x1.7524ff47e0670p-50", "0x1.4000000000000p-52", "0x1.82022ac000000p-36",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.bb67ae8584cabp-53", "0x1.d71e296ddd176p-49", "0x0.0p+0",
        "0x1.65ab2246b39d8p-39"),),
    # mu0 = 2: t0 = log 2 != 0, so the mirrored leg's times t0 - t are rounded
    "n3-nu1-alpha3-mu2": ((
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.2600000000000p-49",
        "0x1.2600000000000p-49", "0x1.693b943484800p-35", "0x1.d000000000000p-52",
        "0x1.61b0000000000p-44", "0x1.ec9f570383bdfp-46", "0x0.0p+0", "0x0.0p+0",
        "0x1.93e4a264df4bap-39", "0x1.93e4a264df4bap-39", "0x1.76497b85e02d9p-53",
        "0x1.d3dbda675838fp-49", "0x0.0p+0", "0x1.93e4cb8b37293p-43"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.8000000000000p-50",
        "0x1.8000000000000p-50", "0x1.097ed09580000p-35", "0x1.4000000000000p-52",
        "0x1.06e0000000000p-44", "0x1.2ebf3d6c79db4p-47", "0x0.0p+0", "0x0.0p+0",
        "0x1.f070000000000p-41", "0x1.f070000000000p-41", "0x1.85092ed86a26ap-53",
        "0x1.e64b7a8e84b05p-49", "0x0.0p+0", "0x1.9317c3c9bbfc9p-43"), (
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.2600000000000p-49",
        "0x1.2600000000000p-49", "0x1.693b943484800p-35", "0x1.d000000000000p-52",
        "0x1.c0be000000000p-44", "0x1.b54589ea44f51p-50", "0x0.0p+0", "0x0.0p+0",
        "0x1.66aa84849a19dp-43", "0x1.66aa84849a19dp-43", "0x1.1dee0b0f8aecbp-52",
        "0x1.e281b2aa3a6f7p-49", "0x0.0p+0", "0x1.93c3a49e72ad4p-43")),
}

# the check order of one coupled (nu > 0) family
COUPLED_CHECKS = (
    "constants_residual", "ratio_identity", "radial_residual",
    "weighted_residual_tau1", "weighted_residual_tau2", "ef_residual",
    "integration_deviation", "proportionality_defect", "simultaneous_max_gap",
    "max_location_error", "quotient_limit_minus", "quotient_limit_plus",
    "asymptotic_u0", "asymptotic_uinf", "asymptotic_ratio", "shooting_recovery",
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
