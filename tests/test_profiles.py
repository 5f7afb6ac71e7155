import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import ParameterError, ScalarProfile
from hardysys.profiles import asymptotic_limits
from reference import (aubin_talenti_value, convergence_order, fd_derivative,
                       hardy_weight, hardy_weight_dx1, kelvin_transform,
                       linear_radial_part, profile_value, scalar_equation_residual,
                       weighted_derivatives, weighted_transform)

SAMPLE_RADII = np.array([1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6])


def _profile(n, gamma, mu=1.0):
    p = hs.ProblemParams(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
    return ScalarProfile(p, mu)


def test_value_n4_at_r1():
    # r = 1, tau1 = 0: A / (1+1)^((n-2)/2) = sqrt(8)/2 = sqrt(2)
    prof = _profile(4, 0.0)
    assert_allclose(profile_value(prof, 1.0), math.sqrt(2.0), rtol=1e-15)


def test_gamma_zero_profile_is_aubin_talenti_bubble():
    for mu in (0.5, 1.0, 2.0):
        prof = _profile(4, 0.0, mu=mu)
        assert_allclose(profile_value(prof, SAMPLE_RADII),
                        aubin_talenti_value(4, mu, SAMPLE_RADII), rtol=1e-13)


def test_value_n3_with_hardy_term():
    # r^tau1 = 1 at r = 1, so U(1) = A * 2^(-(n-2)/2)
    prof = _profile(3, 0.1875)
    assert_allclose(profile_value(prof, 1.0), prof.params.amplitude * 2.0 ** -0.5, rtol=1e-15)


def test_nonpositive_radius_rejected():
    prof = _profile(4, 0.0)
    for bad in (0.0, -1.0, 1e-301):
        with pytest.raises(ParameterError):
            profile_value(prof, bad)


@pytest.mark.parametrize("mu", [0.0, -2.0, math.nan, math.inf])
def test_scale_must_be_positive_and_finite(mu):
    with pytest.raises(ParameterError, match="scale"):
        ScalarProfile(hs.ProblemParams(4, 0.0, 1.0, 2.0), mu)


def test_scaling_covariance():
    # value at scale mu equals mu^((2-n)/2) * value at scale 1 of r/mu
    for n, gamma in ((3, 0.0), (4, 0.5), (5, 2.0)):
        base = _profile(n, gamma, mu=1.0)
        for mu in (0.5, 2.0):
            scaled = _profile(n, gamma, mu=mu)
            expect = mu ** ((2.0 - n) / 2.0) * profile_value(base, SAMPLE_RADII / mu)
            assert_allclose(profile_value(scaled, SAMPLE_RADII), expect, rtol=1e-13)


def test_positivity_and_compensated_unimodality():
    r = np.geomspace(1e-6, 1e6, 4001)
    for n, gamma in ((3, 0.125), (4, 0.5), (5, 1.125)):
        prof = _profile(n, gamma)
        vals = profile_value(prof, r)
        assert np.all(vals > 0)
        comp = r ** prof.params.delta * vals
        peak = int(np.argmax(comp))
        assert 0 < peak < len(r) - 1
        assert np.all(np.diff(comp[:peak + 1]) > 0)
        assert np.all(np.diff(comp[peak:]) < 0)


# --- derivatives against the finite-difference oracle -----------------------


def _fd_order(prof, r0, order):
    hs_ = [1e-2 / 2 ** k for k in range(4)]
    errs = []
    for h in hs_:
        fd = fd_derivative(partial(profile_value, prof), r0, h, order=order)
        exact = weighted_derivatives(prof, 0.0, r0)[order]
        errs.append((h, abs(fd - exact)))
    return convergence_order(errs)


@pytest.mark.parametrize("n,gamma", [(3, 0.0), (4, 0.5), (5, 1.125)])
def test_first_derivative_fd_order(n, gamma):
    assert _fd_order(_profile(n, gamma), 1.0, 1) >= 1.9


@pytest.mark.parametrize("n,gamma", [(3, 0.0), (4, 0.5), (5, 1.125)])
def test_second_derivative_fd_order(n, gamma):
    assert _fd_order(_profile(n, gamma), 2.0, 2) >= 1.9


def test_bubble_slope_vanishes_at_origin():
    # tau1 = 0: smooth radial maximum at r -> 0+
    prof = _profile(4, 0.0)
    _, u1, _ = weighted_derivatives(prof, 0.0, 1e-12)
    assert abs(u1) < 1e-10


def test_slope_negative_beyond_compensated_peak():
    prof = _profile(5, 1.125)
    _, u1, _ = weighted_derivatives(prof, 0.0, 50.0)
    assert u1 < 0


# --- scalar equation residual ------------------------------------------------


def test_scalar_equation_residual_matrix():
    r = np.geomspace(1e-6, 1e6, 2048)
    for n in (3, 4, 5):
        lam = hs.hardy_constant(n)
        for gamma in (0.0, lam / 2.0):
            for mu in (0.5, 1.0, 2.0):
                res = scalar_equation_residual(_profile(n, gamma, mu=mu), r)
                assert np.max(res) <= 1e-9, (n, gamma, mu, np.max(res))


def test_collapsed_linear_part_matches_term_assembly():
    # the stable evaluator must agree with the term-by-term sum at the
    # term-magnitude scale
    r = np.geomspace(1e-6, 1e6, 512)
    for n, gamma in ((3, 0.125), (5, 1.125)):
        prof = _profile(n, gamma)
        u, u1, u2 = weighted_derivatives(prof, 0.0, r)
        terms = [u2, (n - 1.0) * u1 / r, gamma * u / r ** 2]
        assembled = sum(terms)
        scale = np.maximum.reduce([np.abs(t) for t in terms] + [np.ones_like(r)])
        gap = np.abs(linear_radial_part(prof, r) - assembled) / scale
        assert np.max(gap) <= 1e-12


class _TallProfile(ScalarProfile):
    """The profile 10% too tall: u^(2*-1) grows by 1.1^(2*-1), the linear part by 1.1."""

    def _log_values(self, radii):
        return [x + math.log(1.1) for x in super()._log_values(radii)]


def test_wrong_amplitude_breaks_the_equation():
    p = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    res = scalar_equation_residual(_TallProfile(p), np.geomspace(0.1, 10, 64))
    assert np.max(res) >= 1e-2


# --- Kelvin transform --------------------------------------------------------


def test_kelvin_involution():
    prof = _profile(5, 1.125)

    def once(r):
        return kelvin_transform(partial(profile_value, prof), 5, r)

    for r in (0.1, 1.0, 10.0):
        twice = kelvin_transform(once, 5, r)
        assert_allclose(twice, profile_value(prof, r), rtol=1e-12)


def test_unit_bubble_kelvin_invariance():
    # r^(2-n) V(1/r) = V(r) for the unit-scale bubble
    for n in (3, 4, 5):
        prof = _profile(n, 0.0)
        out = kelvin_transform(partial(profile_value, prof), n, SAMPLE_RADII)
        assert_allclose(out, profile_value(prof, SAMPLE_RADII), rtol=1e-12)


def test_kelvin_propagates_evaluation_failure():
    def broken(r):
        raise RuntimeError("inner evaluation failed")

    with pytest.raises(RuntimeError, match="inner evaluation failed"):
        kelvin_transform(broken, 4, 1.0)


def test_kelvin_two_sided_decay_bounds():
    r = np.geomspace(10.0, 1e6, 512)
    for n, gamma in ((3, 0.0), (4, 0.5), (5, 1.125)):
        prof = _profile(n, gamma)
        compensated = r ** (n - 2.0) * kelvin_transform(partial(profile_value, prof), n, r)
        assert np.all(np.isfinite(compensated))
        assert np.min(compensated) > 0


# --- weighted transform ------------------------------------------------------


def test_weighted_transform_tau_zero_is_identity():
    prof = _profile(4, 0.5)
    assert_allclose(weighted_transform(partial(profile_value, prof), 0.0, SAMPLE_RADII),
                    profile_value(prof, SAMPLE_RADII), rtol=0)


def test_weighted_transform_rejects_nonpositive_radius():
    prof = _profile(4, 0.5)
    with pytest.raises(ParameterError):
        weighted_transform(partial(profile_value, prof), 1.0, -2.0)


def test_weighted_transform_inner_limit_is_amplitude():
    prof = _profile(3, 0.1875)
    tau1 = prof.params.tau1
    vals = [weighted_transform(partial(profile_value, prof), tau1, 10.0 ** -k) for k in (4, 6, 8)]
    gaps = [abs(v - prof.params.amplitude) for v in vals]
    assert gaps[-1] <= 1e-6
    assert gaps == sorted(gaps, reverse=True)


def test_weighted_transform_outer_tail():
    prof = _profile(4, 0.0)
    val = weighted_transform(partial(profile_value, prof), prof.params.tau2, 1e6)
    amp = prof.params.amplitude
    assert abs(val - amp) / amp <= 1e-4


def test_weighted_transform_bounded():
    # the inner-compensated profile is bounded: it decreases monotonically
    # from its finite limit at the origin, so the sampled sup sits at the
    # small-r end and never exceeds that limit
    r = np.geomspace(1e-6, 1e6, 2048)
    for mu in (0.5, 1.0, 2.0):
        prof = _profile(5, 1.125, mu=mu)
        comp = weighted_transform(partial(profile_value, prof), prof.params.tau1, r)
        assert np.all(np.isfinite(comp))
        assert np.all(comp > 0)
        assert np.all(np.diff(comp) < 0)
        p = prof.params
        assert np.max(comp) <= p.amplitude * mu ** (-p.kappa) * (1 + 1e-12)


def test_weighted_derivatives_match_fd():
    prof = _profile(5, 1.125)
    tau = prof.params.tau1

    def g(r):
        return weighted_transform(partial(profile_value, prof), tau, r)

    for r0 in (0.5, 2.0):
        _, g1, g2 = weighted_derivatives(prof, tau, r0)
        assert_allclose(fd_derivative(g, r0, 1e-5, order=1), g1, rtol=1e-8)
        assert_allclose(fd_derivative(g, r0, 1e-4, order=2), g2, rtol=1e-6)


# --- translated singular weight ----------------------------------------------


def test_hardy_weight_zero_offset():
    x = np.array([0.3, -1.2, 0.5])
    assert_allclose(hardy_weight(x, np.zeros(3)), float(x @ x), rtol=1e-15)


def test_hardy_weight_at_origin():
    assert hardy_weight(np.zeros(4), np.array([0.0, 1.0, 2.0, 0.5])) == 0.0


def test_hardy_weight_matches_expanded_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=5)
        x0 = rng.normal(size=5)
        xx = float(x @ x)
        expanded = xx * (1.0 - 2.0 * float(x @ x0) + float(x0 @ x0) * xx)
        assert_allclose(hardy_weight(x, x0), expanded, rtol=1e-12, atol=1e-12)


def test_hardy_weight_dimension_mismatch():
    with pytest.raises(ParameterError):
        hardy_weight(np.zeros(3), np.zeros(4))


def test_hardy_weight_reflection_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=4)
        x0 = rng.uniform(-3, 3, size=4)
        x0[0] = 0.0
        flipped = x.copy()
        flipped[0] = -flipped[0]
        assert abs(hardy_weight(flipped, x0) - hardy_weight(x, x0)) <= 1e-14 * max(
            1.0, abs(hardy_weight(x, x0)))


def test_hardy_weight_dx1_zero_on_the_plane():
    x = np.array([0.0, 1.0, -2.0])
    x0 = np.array([0.0, 0.4, 0.1])
    assert hardy_weight_dx1(x, x0) == 0.0


def test_hardy_weight_dx1_offset_precondition():
    with pytest.raises(ParameterError):
        hardy_weight_dx1(np.ones(3), np.array([0.5, 0.0, 0.0]))


def test_hardy_weight_dx1_sign_bulk():
    rng = np.random.default_rng(2024)
    dim = 4
    for _ in range(100_000):
        x = rng.uniform(-10, 10, size=dim)
        x[0] = abs(x[0])
        x0 = rng.uniform(-10, 10, size=dim)
        x0[0] = 0.0
        assert hardy_weight_dx1(x, x0) >= 0.0


def test_hardy_weight_dx1_matches_fd():
    rng = np.random.default_rng(3)
    orders = []
    for _ in range(5):
        x = rng.uniform(0.2, 2.0, size=4)
        x0 = rng.uniform(-1.0, 1.0, size=4)
        x0[0] = 0.0

        def along_x1(t):
            xt = x.copy()
            xt[0] = t
            return hardy_weight(xt, x0)

        exact = hardy_weight_dx1(x, x0)
        errs = [(h, abs(fd_derivative(along_x1, x[0], h, order=1) - exact))
                for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        orders.append(convergence_order(errs))
    assert min(orders) >= 1.9


# --- asymptotic limits ---------------------------------------------------------


def _limit_gaps(profile):
    """Relative gaps of both limits from A mu^(-+kappa); asymptotic_limits returns logs."""
    p = profile.params
    log0, log_inf = asymptotic_limits(profile)
    log_a, log_mu = math.log(p.amplitude), math.log(profile.mu)
    return (abs(math.expm1(log0 - (log_a - p.kappa * log_mu))),
            abs(math.expm1(log_inf - (log_a + p.kappa * log_mu))))


def test_asymptotic_limits_decoupled():
    p = hs.ProblemParams(3, 0.1875, 0.0, 3.0)
    fam = hs.classify(p, 1.0)[0]
    log0, log_inf = asymptotic_limits(fam.profile)
    assert abs(fam.c1 * math.exp(log0) - p.amplitude) <= 1e-6
    assert math.isfinite(log0) and math.isfinite(log_inf)


def test_asymptotic_limits_synchronized_ratio(benchmark3):
    _, fams = benchmark3
    for fam in fams:
        limit0, limit_inf = map(math.exp, asymptotic_limits(fam.profile))
        u0, v0 = fam.c1 * limit0, fam.c2 * limit0
        u_inf, v_inf = fam.c1 * limit_inf, fam.c2 * limit_inf
        ratio = fam.c1 / fam.c2
        assert abs(u0 / v0 - ratio) <= 1e-10 * ratio
        assert abs(u_inf / v_inf - ratio) <= 1e-10 * ratio


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_asymptotic_limits_near_the_hardy_constant(n):
    # r^tau1 U approaches its limit like rho^q, q = 2 kappa/delta -> 0 as
    # gamma -> lambda_n, so only over many decades; the closed form needs none
    p = hs.ProblemParams(n, 0.99 * hs.hardy_constant(n), 0.0, hs.critical_exponent(n) / 2.0)
    for mu in (0.5, 1.0, 2.0):
        assert max(_limit_gaps(ScalarProfile(p, mu))) <= 1e-6


@pytest.mark.parametrize("n,frac", [(8, 0.999), (10, 0.998)])
def test_asymptotic_limits_far_stretched_samples(n, frac):
    # r^tau2 U nears its limit only at 1e126 (n = 8) and 1e89 (n = 10), where
    # r^tau2 and U(r) leave the range of a double; the logs do not
    p = hs.ProblemParams(n, frac * hs.hardy_constant(n), 0.0, hs.critical_exponent(n) / 2.0)
    assert max(_limit_gaps(ScalarProfile(p))) <= 1e-10


@pytest.mark.parametrize("mu", [1e-250, 1e300])
def test_asymptotic_limits_beyond_the_range_of_a_double(mu):
    # n = 6, gamma = 0: kappa = 2, so the limits A mu^(-+2) are about 1e-600
    # and 1e600; their logs are doubles
    p = hs.ProblemParams(6, 0.0, 0.0, 1.5)
    log0, log_inf = asymptotic_limits(ScalarProfile(p, mu))
    assert abs(log_inf - log0 - 4.0 * math.log(mu)) <= 1e-12 * abs(4.0 * math.log(mu))
    assert max(_limit_gaps(ScalarProfile(p, mu))) <= 1e-12


def test_asymptotic_limits_closed_form_identity():
    # r^tau1 U -> A mu^-kappa and r^tau2 U -> A mu^kappa, as logs, for any
    # scale, including those where neither limit is a double
    for n, frac, mu in [(3, 0.9999, 1.0), (4, 0.0, 1e-300), (6, 0.0, 1e300),
                        (8, 0.999, 1e250), (14, 0.5, 2.0)]:
        p = hs.ProblemParams(n, frac * hs.hardy_constant(n), 0.0, hs.critical_exponent(n) / 2.0)
        log_a, log_mu = math.log(p.amplitude), math.log(mu)
        assert asymptotic_limits(ScalarProfile(p, mu)) == (
            log_a - p.kappa * log_mu, log_a + p.kappa * log_mu)
    # where rho^q = 1e-+40, the compensated values are the limits to roundoff
    p = hs.ProblemParams(14, 0.5 * hs.hardy_constant(14), 0.0, hs.critical_exponent(14) / 2.0)
    profile = ScalarProfile(p, 2.0)
    q = 2.0 * p.kappa / p.delta
    r0, r1 = 2.0 * 1e-40 ** (1.0 / q), 2.0 * 1e40 ** (1.0 / q)
    near = p.tau1 * math.log(r0) + math.log(float(profile_value(profile, r0)))
    far = p.tau2 * math.log(r1) + math.log(float(profile_value(profile, r1)))
    log0, log_inf = asymptotic_limits(profile)
    assert abs(near - log0) <= 1e-12 * abs(log0) and abs(far - log_inf) <= 1e-12 * abs(log_inf)
