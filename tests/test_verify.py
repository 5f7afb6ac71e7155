import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import ParameterError
from hardysys.emdenfowler import integrate
from hardysys.profiles import ScalarProfile
from reference import (LOG_RHO_GRID, all_terms_residual, bounded_units, convergence_order,
                       encoding_residual, fd_derivative, manifold_coefficients,
                       manifold_series_start)


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
    with pytest.raises(ValueError, match="roundoff floor"):
        convergence_order([(0.1, 1e-16), (0.05, 1e-16), (0.025, 1e-16)])


# --- scale invariance -------------------------------------------------------------


@pytest.mark.parametrize("args", [(4, 0.0, 1.0, 2.0), (5, 1.125, 1.0, 5.0 / 3.0),
                                  (3, 0.0, 1.0, 3.0), (4, 0.0, 0.0, 2.0),
                                  (150, 5475.0, 0.0, 1.0135135135135136)])
def test_encoding_residuals_do_not_depend_on_mu0(args):
    # rescaling by mu0 maps solutions to solutions: the orbit checks on log
    # rho, and asymptotic_u0, the limit mu0^kappa r^tau1 u = c1 A, read no
    # mu0, so every check keeps the bits of mu0 = 1
    p = hs.ProblemParams(*args)

    def values(mu0):
        return [(c.name, c.value.hex()) for c in hs.full_verification(p, mu0).checks]

    at_one = values(1.0)
    # four checks per family, at every nu
    assert len(at_one) == len(hs.classify(p)) * 4
    for mu0 in (0.5, 2.0, 1e-300, 1e300):
        assert values(mu0) == at_one, mu0


# --- full verification -------------------------------------------------------------


#: check names full_verification emits for every family
DOCUMENTED_CHECKS = {
    "integration_deviation", "proportionality_defect", "asymptotic_u0", "shooting_recovery",
}


def _base_names(report):
    return {c.name.split(".", 1)[1] for c in report.checks}


def test_full_verification_benchmark4(benchmark4):
    p, _ = benchmark4
    report = hs.full_verification(p, 1.0)
    assert report.overall
    assert report.n_families == 1
    assert _base_names(report) == DOCUMENTED_CHECKS
    assert report.overall == all(c.passed for c in report.checks)


def test_full_verification_benchmark3(benchmark3):
    p, _ = benchmark3
    report = hs.full_verification(p, 1.0)
    assert report.overall
    assert report.n_families == 3
    assert {c.name.split(".", 1)[0] for c in report.checks} == {"f0", "f1", "f2"}


def test_full_verification_scalar_regression():
    p = hs.ProblemParams(3, 0.1875, 0.0, 3.0)
    report = hs.full_verification(p, 2.0)
    assert report.overall
    assert _base_names(report) == DOCUMENTED_CHECKS  # nu = 0 adds none


def test_full_verification_flags_perturbed_amplitude(monkeypatch, benchmark4):
    p, _ = benchmark4
    exact = hs.verify.classify
    # every family 10% too tall: the closed form is no longer the orbit that
    # shooting traces from the root, which keeps its ray
    monkeypatch.setattr(hs.verify, "classify", lambda p, mu0: [
        f._replace(c1=1.1 * f.c1, c2=1.1 * f.c2) for f in exact(p, mu0)])
    report = hs.full_verification(p, 1.0)
    assert not report.overall
    failed = {c.name.split(".", 1)[1] for c in report.checks if not c.passed}
    assert failed == {"integration_deviation", "asymptotic_u0", "shooting_recovery"}


@pytest.mark.parametrize("args", [(4, 0.0, 1.0, 2.0), (5, 1.125, 1.0, 5.0 / 3.0),
                                  (3, 0.0, 1.0, 3.0)])
def test_residual_checks_detect_constants_or_amplitude_off_by_1e_6(args):
    # the closed-form residual on the log rho grid, the weighted encoding at
    # tau2: with c1 and c2 both 1e-6 too large, or the amplitude A, each
    # equation's y^m term is off by about m 1e-6 of its size, and it fails
    # the 1e-9 bound; y^m comes from the profile's log value, so A shows
    def assert_all_fail(families):
        assert families
        for fam in families:
            value = max(hs.emdenfowler.weighted_system_residual(
                fam, fam.profile.params.tau2, LOG_RHO_GRID))
            assert value >= 1e-7

    p = hs.ProblemParams(*args)
    assert_all_fail([f._replace(c1=f.c1 * (1.0 + 1e-6), c2=f.c2 * (1.0 + 1e-6))
                     for f in hs.classify(p)])
    p = p._make([*p[:-1], p.amplitude * (1.0 + 1e-6)])  # skips the constructor
    assert_all_fail(hs.classify(p))


def test_full_verification_at_n150_raises_no_numpy_warning():
    # n = 150 near the Hardy constant: the r-space residuals overflowed here
    # into NaN; every check stays a double, and no warning is raised
    p = hs.ProblemParams(150, 5475.0, 0.0, 1.0135135135135136)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        report = hs.full_verification(p, 1.0)
    assert report.overall, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("tol", [math.nan, 1e-3, 1e-13])
def test_tolerance_is_refused_before_the_root_search(tol):
    # f vanishes identically at n = 4, nu = 1/2, alpha = beta = 2, so there is
    # no family to shoot; the tolerance is refused all the same, and the root
    # search never runs to warn
    p = hs.ProblemParams(4, 0.0, 0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"tolerance must be in \[1e-12, 1e-4\]"):
            hs.full_verification(p, 1.0, integration_tol=tol)


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
    p = p._make([*p[:-1], p.amplitude * factor])  # skips the constructor
    for mu0 in (1.0, 1e-300):
        check = {c.name: c for c in hs.full_verification(p, mu0).checks}["f0.asymptotic_u0"]
        assert check.passed is not fails
        assert abs(check.value - (factor - 1.0) / factor) <= 1e-9


def test_proportionality_defect_detects_an_orbit_off_the_ray(monkeypatch):
    # DP5 keeps an orbit that starts on the ray y_v = y_u / s on it; one that
    # starts 1e-6 off it (y_v and y_v' scaled by 1 + 1e-6) is no homoclinic
    # of the ray, and proportionality_defect reads about 1.2e-6 > 1e-8
    on_ray = hs.emdenfowler._manifold_start

    def off_ray(p, s):
        start = on_ray(p, s)
        return start._replace(y_v=start.y_v * (1.0 + 1e-6), p_v=start.p_v * (1.0 + 1e-6))

    monkeypatch.setattr(hs.emdenfowler, "_manifold_start", off_ray)
    checks = {c.name: c for c in
              hs.full_verification(hs.ProblemParams(4, 0.0, 1.0, 2.0)).checks}
    check = checks["f0.proportionality_defect"]
    assert not check.passed
    assert 1e-6 <= check.value <= 1e-5


def _skewed_series_start(p, s):
    """The start summed from the manifold's series with g_1 off by 1e-5."""
    logs = manifold_coefficients(p.two_star, 2.0 * p.two_star * 0.25)
    logs[1] *= 1.0 + 1e-5
    return manifold_series_start(p, s, logs)


def test_orbit_checks_detect_a_wrong_manifold_series(monkeypatch):
    # the run starts at rho = 1/4, where the manifold carries the climb: a
    # start summed from its series with the first coefficient g_1 off by
    # 1e-5 (G off by 1e-5 of its first term) lies off the manifold, and the
    # three checks read off the orbit fail (about 2.9e-6, 3.7e-6 and 2.9e-6
    # against 1e-6)
    monkeypatch.setattr(hs.emdenfowler, "_manifold_start", _skewed_series_start)
    checks = {c.name: c for c in
              hs.full_verification(hs.ProblemParams(4, 0.0, 1.0, 2.0)).checks}
    for name in ("integration_deviation", "asymptotic_u0", "shooting_recovery"):
        check = checks["f0." + name]
        assert not check.passed
        assert 1e-6 < check.value <= 1e-5


def test_integration_deviation_is_relative_to_the_peak(monkeypatch):
    # at nu = 1e8 the orbit's peak is about 1e-4: the skewed start above
    # deviates by about 2.9e-6 of it, which fails; measured against
    # max(1, peak) it read 2.9e-10 and passed
    p = hs.ProblemParams(4, 0.0, 1e8, 2.0)
    assert hs.full_verification(p).overall
    monkeypatch.setattr(hs.emdenfowler, "_manifold_start", _skewed_series_start)
    check = {c.name: c for c in hs.full_verification(p).checks}["f0.integration_deviation"]
    assert not check.passed
    assert 1e-6 < check.value <= 1e-5


class _SkewedQ(ScalarProfile):
    """The profile with q = 2 kappa / delta off by 1e-6."""

    @property
    def _q(self):
        return super()._q * (1.0 + 1e-6)


#: (n, gamma / lambda_n, nu, f), alpha = 1 + f (2* - 2), mu0 = 1: thinned
#: from the 506-family box of the residual's mutation study (CHANGES.md)
MUTATION_BOX = ([(n, frac, nu, f) for n in (3, 5, 10, 20) for frac in (0.0, 0.5, 0.99)
                 for nu in (0.0, 0.3, 1.0, 10.0) for f in (0.2, 0.8)]
                + [(150, 0.0, 1.0, 0.5), (150, 5475.0 / hs.hardy_constant(150), 0.0, 0.5)])


class _SkewedW(ScalarProfile):
    """The profile with w off by 1e-6 of itself."""

    def _bounded_units(self, log_rho):
        log_w, log_om, log_y = super()._bounded_units(log_rho)
        return [x + math.log1p(1e-6) for x in log_w], log_om, log_y


class _SkewedY(ScalarProfile):
    """The profile with log y, so y^m, off by 1e-6."""

    def _bounded_units(self, log_rho):
        log_w, log_om, log_y = super()._bounded_units(log_rho)
        return log_w, log_om, [x + 1e-6 for x in log_y]


def _mutants(fam):
    """The family with c1, c2 or both off by -+1e-6, or with w, y^m or q
    off by 1e-6 of itself (y^m as log y off by 1e-6)."""
    for k1, k2 in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        for sign in (1.0, -1.0):
            yield fam._replace(c1=fam.c1 * (1.0 + sign * k1 * 1e-6),
                               c2=fam.c2 * (1.0 + sign * k2 * 1e-6))
    for skewed in (_SkewedW, _SkewedY, _SkewedQ):
        yield fam._replace(profile=skewed(fam.profile.params, fam.profile.mu))


def test_equation_residual_fails_every_mutant_any_encoding_fails():
    # the four encodings (plain, weighted at tau1 and tau2, phase plane) sum
    # one function of rho; the residual of the radial equations on the log
    # rho grid, the weighted one at tau2 under the scale max(1, c-terms),
    # fails every mutant that any of them fails, whether under that scale or
    # under max(1, |terms|) over all five terms.  The array form reads the
    # units through the profile's _bounded_units, which the mutants skew
    escapes, mutants, caught, worst = [], 0, 0, 0.0
    for n, frac, nu, f in MUTATION_BOX:
        ts = hs.critical_exponent(n)
        p = hs.ProblemParams(n, frac * hs.hardy_constant(n), nu, 1.0 + f * (ts - 2.0))
        encodings = ((0.0, p.gamma), (p.tau1, 0.0), (p.tau2, 0.0),
                     (p.delta, p.gamma - p.delta * p.delta))
        for fam in hs.classify(p):
            exact = bounded_units(fam.profile, LOG_RHO_GRID)
            worst = max(worst, *encoding_residual(fam, p.tau2, 0.0, exact))
            for mutant in _mutants(fam):
                mutants += 1
                units = (exact if mutant.profile is fam.profile
                         else bounded_units(mutant.profile, LOG_RHO_GRID))
                value = max(encoding_residual(mutant, p.tau2, 0.0, units))
                others = [encoding_residual(mutant, tau, potential, units)
                          for tau, potential in encodings if tau != p.tau2]
                others += [all_terms_residual(mutant, tau, potential, units)
                           for tau, potential in encodings]
                if max(map(max, others)) > 1e-9:
                    caught += 1
                    if not value > 1e-9:
                        escapes.append((n, frac, nu, f))
    # every mutant fails some encoding, so none could escape unseen
    assert caught == mutants >= 9 * len(MUTATION_BOX)
    assert escapes == []
    assert worst <= 1e-10


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
    assert "\ngamma: 0\nnu: 1\n" in text  # one Hardy coefficient
    payload = report.to_json_dict()
    assert list(payload) == ["params", "mu0", "families", "checks", "overall"]
    assert list(payload["params"]) == ["n", "gamma", "nu", "alpha", "beta"]
    for entry in payload["checks"]:
        assert list(entry) == ["name", "value", "threshold", "passed"]


def test_report_checks_map_to_documented_invariants(benchmark3):
    p, _ = benchmark3
    scalar = hs.ProblemParams(3, 0.125, 0.0, 3.0)
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
# integration_deviation, proportionality_defect, asymptotic_u0 and
# shooting_recovery were recorded again when the trace started at manifold
# coordinate rho = 1/4 instead of eps = (1e-3 tol)^(1/2*).  radial_residual
# and weighted_residual_tau1/2 were recorded again when each equation was
# divided by c g / r^2 and evaluated on radii relative to mu0, so that the
# mu0 = 2 case now reads the bits of mu0 = 1.  ef_residual was recorded again
# when it became the weighted encoding at tau = delta on the same radii, and
# integration_deviation when the closed form it compares with was read off
# the profile's bounded units instead of theta = kappa (t - log mu) / delta.
# The four orbit checks were recorded again when integrate came to scale
# each slope's error by kappa |y| where that exceeds |y'|: the turn of
# every shot takes longer steps, and mu0 = 2 no longer reads the
# asymptotic_u0 bits of mu0 = 1 in its first family.  constants_residual
# and ratio_identity, which constants_from_root fixes, left with their two
# columns; the values kept are the same bits.  The orbit checks were recorded
# again when integrate came to run DP5 in Nystrom form: each error moved by
# at most 5 % (proportionality_defect, at rounding, from 2^-51 and 2^-53 to
# 2^-50 at n = 3); shooting_recovery at n = 4, nu = 1 and the four residuals
# kept their bits.  The four residual columns became one, equation_residual,
# the weighted encoding at tau2 with the head terms out of its normalizer:
# here it keeps the bits of weighted_residual_tau2.  integration_deviation
# was recorded again when it came to divide by the peak instead of
# max(1, peak): every peak here is below 1.  The orbit checks at n = 4 and
# asymptotic_u0 at n = 3 were recorded again when the shooting start came to
# read K = 1 + nu alpha s^-beta as e^(log K), so that a tiny root s no longer
# overflows s^-beta: at n = 4, integration_deviation 0x1.20463a1abe79fp-42 ->
# 0x1.11bb00a7dfb11p-42, asymptotic_u0 0x1.2c2fffffffa80p-41 ->
# 0x1.1d3fffffffb09p-41, shooting_recovery 0x1.376431b661134p-43 ->
# 0x1.36c76d45c0ca4p-43; at n = 3 (first family, both scales) asymptotic_u0
# 0x1.4a0000000006ap-45 -> 0x1.4800000000069p-45.  equation_residual left
# the report, an identity of the closed form that tier-1 checks on its grid
# (test_equation_residual_fails_every_mutant_any_encoding_fails), and the
# closed form and the proportionality defect moved from numpy arrays to
# Python floats: the values kept are the same bits, and the residual column
# went (n = 4: 0x1.2053fdd50b108p-50; n = 3, by family: 0x1.0000000000000p-51,
# 0x1.8000000000000p-52, 0x1.0000000000000p-51; gamma = 0.5:
# 0x1.7e40000000000p-51; mu0 = 2 as at mu0 = 1).  n = 3, gamma = 0.249975
# was pinned when kappa became the rounded sqrt(lambda_n - gamma) in place of
# delta - tau1, 2.56 ulp off, which had been the kappa of every layer but
# the integrator's (f0.integration_deviation read 0x1.47be8acda0f1cp-43).
REPORT_PINS = {
    "n4-nu1-alpha2": ((
        "0x1.11bb00a7dfb11p-42", "0x0.0p+0",
        "0x1.1d3fffffffb09p-41", "0x1.36c76d45c0ca4p-43"),),
    "n3-nu1-alpha3": ((
        "0x1.8273baf301e87p-44", "0x1.18b71ca4683cap-50",
        "0x1.4800000000069p-45", "0x1.81fbc7620f2f0p-44"), (
        "0x1.807a134be10c5p-44", "0x0.0p+0",
        "0x1.3f80000000064p-45", "0x1.807a134be0e83p-44"), (
        "0x1.8273baf301e87p-44", "0x1.1dee0b0f8b07cp-50",
        "0x1.4cc000000006cp-45", "0x1.8302b1f889896p-44")),
    "n4-gamma0.5-nu1-alpha2": ((
        "0x1.dcbf3a650f75dp-43", "0x0.0p+0",
        "0x1.11ffffffffedbp-43", "0x1.dc5060796da5cp-43"),),
    # gamma = 0.9999 lambda_3, where kappa is smallest
    "n3-gamma0.249975-nu1-alpha3": ((
        "0x1.48ca99f7ff843p-43", "0x1.d3dbda67586c4p-52",
        "0x1.31ffffffffd24p-42", "0x1.4638cbc90f0d8p-44"), (
        "0x1.4c30cf581b08ap-43", "0x0.0p+0",
        "0x1.347fffffffd18p-42", "0x1.4994278f96f76p-44"), (
        "0x1.38bc5c1900155p-43", "0x1.65698dd36dcf3p-51",
        "0x1.22ffffffffd6ap-42", "0x1.4817e53115b2fp-44")),
    # mu0 = 2: no check reads mu0, so these are the bits of mu0 = 1
    "n3-nu1-alpha3-mu2": ((
        "0x1.8273baf301e87p-44", "0x1.18b71ca4683cap-50",
        "0x1.4800000000069p-45", "0x1.81fbc7620f2f0p-44"), (
        "0x1.807a134be10c5p-44", "0x0.0p+0",
        "0x1.3f80000000064p-45", "0x1.807a134be0e83p-44"), (
        "0x1.8273baf301e87p-44", "0x1.1dee0b0f8b07cp-50",
        "0x1.4cc000000006cp-45", "0x1.8302b1f889896p-44")),
}

# the check order of one family
COUPLED_CHECKS = (
    "integration_deviation", "proportionality_defect", "asymptotic_u0", "shooting_recovery",
)


# ((n, gamma, nu, alpha), mu0) of each pinned report
REPORT_CASES = {
    "n4-nu1-alpha2": ((4, 0.0, 1.0, 2.0), 1.0),
    "n3-nu1-alpha3": ((3, 0.0, 1.0, 3.0), 1.0),
    "n4-gamma0.5-nu1-alpha2": ((4, 0.5, 1.0, 2.0), 1.0),
    "n3-gamma0.249975-nu1-alpha3": ((3, 0.249975, 1.0, 3.0), 1.0),
    "n3-nu1-alpha3-mu2": ((3, 0.0, 1.0, 3.0), 2.0),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_bitwise_regression(name):
    args, mu0 = REPORT_CASES[name]
    report = hs.full_verification(hs.ProblemParams(*args), mu0)
    expected = [(f"f{i}.{check}", value)
                for i, values in enumerate(REPORT_PINS[name])
                for check, value in zip(COUPLED_CHECKS, values)]
    assert [(c.name, c.value.hex()) for c in report.checks] == expected
    assert report.overall


#: SHA-256 of the 36 matrix reports' to_text(), in the order of matrix_params
#: and mu0 in (0.5, 1, 2)
MATRIX_REPORTS_SHA256 = "c484a9ba7edcb55a28bc7730b233430e265573a0f7ecff6aaf7cd53560e6bd73"


def test_matrix_round_step_budget(monkeypatch, matrix_families):
    # a round over the 36 matrix cases integrates each of its 48 families
    # once, from the start at rho = 1/4, in exactly 3,534 accepted steps and
    # none rejected (23,940 from the earlier start at eps = (1e-3 tol)^(1/2*)),
    # and its reports keep their bits: a kernel change that moves one step or
    # one bit fails here
    runs = []

    def counting(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(hs.emdenfowler, "integrate", counting)
    cases = dict.fromkeys((p, mu0) for p, mu0, _ in matrix_families)
    assert len(cases) == 36
    digest = hashlib.sha256()
    for p, mu0 in cases:
        report = hs.full_verification(p, mu0)
        assert report.overall
        digest.update(report.to_text().encode())
    assert len(runs) == 48
    assert sum(r.accepted for r in runs) == 3534
    assert sum(r.rejected for r in runs) == 0
    assert digest.hexdigest() == MATRIX_REPORTS_SHA256
