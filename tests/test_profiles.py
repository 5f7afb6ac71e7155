import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import DomainError, ParameterError, ScalarProfile
from hardysys.profiles import scalar_equation_residual
from hardysys.verify import convergence_order, fd_derivative

SAMPLE_RADII = np.array([1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6])


def _profile(n, gamma, mu=1.0):
    p = hs.ProblemParams.symmetric(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
    return ScalarProfile(p, mu)


def test_value_n4_at_r1():
    # r = 1, tau1 = 0: A / (1+1)^((n-2)/2) = sqrt(8)/2 = sqrt(2)
    prof = _profile(4, 0.0)
    assert_allclose(prof.value(1.0), math.sqrt(2.0), rtol=1e-15)


def test_gamma_zero_profile_is_aubin_talenti_bubble():
    for mu in (0.5, 1.0, 2.0):
        prof = _profile(4, 0.0, mu=mu)
        assert_allclose(prof.value(SAMPLE_RADII),
                        hs.aubin_talenti_value(4, mu, SAMPLE_RADII), rtol=1e-13)


def test_value_n3_with_hardy_term():
    # r^tau1 = 1 at r = 1, so U(1) = A * 2^(-(n-2)/2)
    prof = _profile(3, 0.1875)
    assert_allclose(prof.value(1.0), hs.amplitude(3, 0.1875) * 2.0 ** -0.5, rtol=1e-15)


def test_nonpositive_radius_rejected():
    prof = _profile(4, 0.0)
    for bad in (0.0, -1.0, 1e-301):
        with pytest.raises(DomainError):
            prof.value(bad)


def test_scaling_covariance():
    # value at scale mu equals mu^((2-n)/2) * value at scale 1 of r/mu
    for n, gamma in ((3, 0.0), (4, 0.5), (5, 2.0)):
        base = _profile(n, gamma, mu=1.0)
        for mu in (0.5, 2.0):
            scaled = _profile(n, gamma, mu=mu)
            expect = mu ** ((2.0 - n) / 2.0) * base.value(SAMPLE_RADII / mu)
            assert_allclose(scaled.value(SAMPLE_RADII), expect, rtol=1e-13)


def test_positivity_and_compensated_unimodality():
    r = np.geomspace(1e-6, 1e6, 4001)
    for n, gamma in ((3, 0.125), (4, 0.5), (5, 1.125)):
        prof = _profile(n, gamma)
        vals = prof.value(r)
        assert np.all(vals > 0)
        comp = r ** prof.derived.delta * vals
        peak = int(np.argmax(comp))
        assert 0 < peak < len(r) - 1
        assert np.all(np.diff(comp[:peak + 1]) > 0)
        assert np.all(np.diff(comp[peak:]) < 0)


# --- derivatives against the finite-difference oracle -----------------------


def _fd_order(prof, r0, order):
    hs_ = [1e-2 / 2 ** k for k in range(4)]
    errs = []
    for h in hs_:
        fd = fd_derivative(prof.value, r0, h, order=order)
        exact = prof.derivatives(r0)[order]
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
    _, u1, _ = prof.derivatives(1e-12)
    assert abs(u1) < 1e-10


def test_slope_negative_beyond_compensated_peak():
    prof = _profile(5, 1.125)
    _, u1, _ = prof.derivatives(50.0)
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
        u, u1, u2 = prof.derivatives(r)
        terms = [u2, (n - 1.0) * u1 / r, gamma * u / r ** 2]
        assembled = sum(terms)
        scale = np.maximum.reduce([np.abs(t) for t in terms] + [np.ones_like(r)])
        gap = np.abs(prof.linear_radial_part(r) - assembled) / scale
        assert np.max(gap) <= 1e-12


class _TallProfile(ScalarProfile):
    """The profile with its value 10% too large; the linear part is unchanged."""

    def value(self, r):
        return 1.1 * super().value(r)


def test_wrong_amplitude_breaks_the_equation():
    p = hs.ProblemParams.symmetric(4, 0.0, 0.0, 2.0)
    res = scalar_equation_residual(_TallProfile(p), np.geomspace(0.1, 10, 64))
    assert np.max(res) >= 1e-2


# --- Kelvin transform --------------------------------------------------------


def test_kelvin_involution():
    prof = _profile(5, 1.125)

    def once(r):
        return hs.kelvin_transform(prof.value, 5, r)

    for r in (0.1, 1.0, 10.0):
        twice = hs.kelvin_transform(once, 5, r)
        assert_allclose(twice, prof.value(r), rtol=1e-12)


def test_unit_bubble_kelvin_invariance():
    # r^(2-n) V(1/r) = V(r) for the unit-scale bubble
    for n in (3, 4, 5):
        prof = _profile(n, 0.0)
        out = hs.kelvin_transform(prof.value, n, SAMPLE_RADII)
        assert_allclose(out, prof.value(SAMPLE_RADII), rtol=1e-12)


def test_kelvin_propagates_evaluation_failure():
    def broken(r):
        raise RuntimeError("inner evaluation failed")

    with pytest.raises(RuntimeError, match="inner evaluation failed"):
        hs.kelvin_transform(broken, 4, 1.0)


def test_kelvin_two_sided_decay_bounds():
    r = np.geomspace(10.0, 1e6, 512)
    for n, gamma in ((3, 0.0), (4, 0.5), (5, 1.125)):
        prof = _profile(n, gamma)
        compensated = r ** (n - 2.0) * hs.kelvin_transform(prof.value, n, r)
        assert np.all(np.isfinite(compensated))
        assert np.min(compensated) > 0


# --- weighted transform ------------------------------------------------------


def test_weighted_transform_tau_zero_is_identity():
    prof = _profile(4, 0.5)
    assert_allclose(hs.weighted_transform(prof.value, 0.0, SAMPLE_RADII),
                    prof.value(SAMPLE_RADII), rtol=0)


def test_weighted_transform_rejects_nonpositive_radius():
    prof = _profile(4, 0.5)
    with pytest.raises(DomainError):
        hs.weighted_transform(prof.value, 1.0, -2.0)


def test_weighted_transform_inner_limit_is_amplitude():
    prof = _profile(3, 0.1875)
    tau1 = prof.derived.tau1
    vals = [hs.weighted_transform(prof.value, tau1, 10.0 ** -k) for k in (4, 6, 8)]
    gaps = [abs(v - hs.amplitude(3, 0.1875)) for v in vals]
    assert gaps[-1] <= 1e-6
    assert gaps == sorted(gaps, reverse=True)


def test_weighted_transform_outer_tail():
    prof = _profile(4, 0.0)
    val = hs.weighted_transform(prof.value, prof.derived.tau2, 1e6)
    assert abs(val - hs.amplitude(4, 0.0)) / hs.amplitude(4, 0.0) <= 1e-4


def test_weighted_transform_bounded():
    # the inner-compensated profile is bounded: it decreases monotonically
    # from its finite limit at the origin, so the sampled sup sits at the
    # small-r end and never exceeds that limit
    r = np.geomspace(1e-6, 1e6, 2048)
    for mu in (0.5, 1.0, 2.0):
        prof = _profile(5, 1.125, mu=mu)
        comp = hs.weighted_transform(prof.value, prof.derived.tau1, r)
        assert np.all(np.isfinite(comp))
        assert np.all(comp > 0)
        assert np.all(np.diff(comp) < 0)
        d = prof.derived
        assert np.max(comp) <= d.amplitude * mu ** (-d.kappa) * (1 + 1e-12)


def test_weighted_derivatives_match_fd():
    prof = _profile(5, 1.125)
    tau = prof.derived.tau1

    def g(r):
        return hs.weighted_transform(prof.value, tau, r)

    for r0 in (0.5, 2.0):
        _, g1, g2 = prof.weighted_derivatives(tau, r0)
        assert_allclose(fd_derivative(g, r0, 1e-5, order=1), g1, rtol=1e-8)
        assert_allclose(fd_derivative(g, r0, 1e-4, order=2), g2, rtol=1e-6)


# --- translated singular weight ----------------------------------------------


def test_hardy_weight_zero_offset():
    x = np.array([0.3, -1.2, 0.5])
    assert_allclose(hs.hardy_weight(x, np.zeros(3)), float(x @ x), rtol=1e-15)


def test_hardy_weight_at_origin():
    assert hs.hardy_weight(np.zeros(4), np.array([0.0, 1.0, 2.0, 0.5])) == 0.0


def test_hardy_weight_matches_expanded_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=5)
        x0 = rng.normal(size=5)
        xx = float(x @ x)
        expanded = xx * (1.0 - 2.0 * float(x @ x0) + float(x0 @ x0) * xx)
        assert_allclose(hs.hardy_weight(x, x0), expanded, rtol=1e-12, atol=1e-12)


def test_hardy_weight_dimension_mismatch():
    with pytest.raises(DomainError):
        hs.hardy_weight(np.zeros(3), np.zeros(4))


def test_hardy_weight_reflection_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=4)
        x0 = rng.uniform(-3, 3, size=4)
        x0[0] = 0.0
        flipped = x.copy()
        flipped[0] = -flipped[0]
        assert abs(hs.hardy_weight(flipped, x0) - hs.hardy_weight(x, x0)) <= 1e-14 * max(
            1.0, abs(hs.hardy_weight(x, x0)))


def test_hardy_weight_dx1_zero_on_the_plane():
    x = np.array([0.0, 1.0, -2.0])
    x0 = np.array([0.0, 0.4, 0.1])
    assert hs.hardy_weight_dx1(x, x0) == 0.0


def test_hardy_weight_dx1_offset_precondition():
    with pytest.raises(ParameterError):
        hs.hardy_weight_dx1(np.ones(3), np.array([0.5, 0.0, 0.0]))


def test_hardy_weight_dx1_sign_bulk():
    rng = np.random.default_rng(2024)
    dim = 4
    for _ in range(100_000):
        x = rng.uniform(-10, 10, size=dim)
        x[0] = abs(x[0])
        x0 = rng.uniform(-10, 10, size=dim)
        x0[0] = 0.0
        assert hs.hardy_weight_dx1(x, x0) >= 0.0


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
            return hs.hardy_weight(xt, x0)

        exact = hs.hardy_weight_dx1(x, x0)
        errs = [(h, abs(fd_derivative(along_x1, x[0], h, order=1) - exact))
                for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        orders.append(convergence_order(errs))
    assert min(orders) >= 1.9


# --- asymptotic limits ---------------------------------------------------------


def test_asymptotic_limits_decoupled():
    p = hs.ProblemParams.symmetric(3, 0.1875, 0.0, 3.0)
    fam = hs.classify(p, 1.0)[0]
    data = hs.asymptotic_limits(fam)
    assert abs(data.u0 - hs.amplitude(3, 0.1875)) <= 1e-6
    for field in ("u0", "v0", "u_inf", "v_inf", "L_minus", "L_plus"):
        assert getattr(data, field) > 0


def test_asymptotic_limits_synchronized_ratio(benchmark3):
    _, fams = benchmark3
    for fam in fams:
        data = hs.asymptotic_limits(fam)
        ratio = fam.c1 / fam.c2
        assert abs(data.u0 / data.v0 - ratio) <= 1e-10 * ratio
        assert abs(data.L_minus - ratio) <= 1e-10 * ratio
        assert abs(data.L_plus - ratio) <= 1e-10 * ratio
        # internal consistency of the bundle
        assert abs(data.L_minus - data.u0 / data.v0) <= 1e-10 * ratio
        assert abs(data.L_plus - data.u_inf / data.v_inf) <= 1e-10 * ratio


def test_asymptotic_limits_nonconvergence_error():
    real = hs.classify(hs.ProblemParams.symmetric(4, 0.5, 0.0, 2.0), 1.0)[0]

    @dataclass
    class Wobbly:
        derived: object

        def value(self, r):
            # oscillating compensated profile has no limit at the origin
            return np.power(r, -self.derived.tau1) * (1.0 + 0.5 * np.sin(np.log(r)))

    @dataclass
    class FakeFamily:
        c1: float
        c2: float
        profile: object

    fake = FakeFamily(1.0, 1.0, Wobbly(real.profile.derived))
    with pytest.raises(hs.ConvergenceError):
        hs.asymptotic_limits(fake)
