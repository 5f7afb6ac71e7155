import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hardysys as hs
from hardysys import ParameterError


def test_hardy_constant_values():
    assert hs.hardy_constant(3) == 0.25
    assert hs.hardy_constant(4) == 1.0
    assert hs.hardy_constant(6) == 4.0


def test_critical_exponent_values():
    assert hs.critical_exponent(3) == 6.0
    assert hs.critical_exponent(4) == 4.0
    assert hs.critical_exponent(6) == 3.0


def test_small_dimension_rejected():
    with pytest.raises(ParameterError):
        hs.hardy_constant(2)
    with pytest.raises(ParameterError):
        hs.critical_exponent(1)


def test_tau_exponents_examples():
    assert hs.tau_exponents(3, 0.0) == (0.0, 1.0)
    # quadratic formula: sqrt(0.25 - 0.1875) = 0.25
    np.testing.assert_allclose(hs.tau_exponents(3, 0.1875), (0.25, 0.75), rtol=0, atol=1e-15)
    # lambda_5 = 2.25, sqrt(2.25 - 2) = 0.5
    np.testing.assert_allclose(hs.tau_exponents(5, 2.0), (1.0, 2.0), rtol=0, atol=1e-15)


def test_tau_exponents_gamma_range():
    with pytest.raises(ParameterError):
        hs.tau_exponents(3, -0.1)
    with pytest.raises(ParameterError):
        hs.tau_exponents(3, 0.25)  # equals lambda_3


def test_amplitude_examples():
    # tau1 = 0 cases reduce to (n(n-2))^((n-2)/4)
    np.testing.assert_allclose(hs.amplitude(4, 0.0), math.sqrt(8.0), rtol=1e-15)
    np.testing.assert_allclose(hs.amplitude(3, 0.0), 3.0 ** 0.25, rtol=1e-15)


@pytest.mark.parametrize("n", range(3, 11))
def test_amplitude_gamma_zero_closed_form(n):
    np.testing.assert_allclose(hs.amplitude(n, 0.0), (n * (n - 2.0)) ** ((n - 2) / 4.0),
                               rtol=1e-12)


@given(st.integers(3, 10), st.floats(0.0, 1.0, exclude_max=True))
def test_tau_vieta_identities(n, frac):
    gamma = frac * hs.hardy_constant(n)
    tau1, tau2 = hs.tau_exponents(n, gamma)
    assert abs(tau1 + tau2 - (n - 2)) <= 1e-12
    assert abs(tau1 * tau2 - gamma) <= 1e-12 * max(1.0, gamma)
    d = hs.derived_constants(n, gamma)
    assert tau1 <= d.delta <= tau2
    # kappa^2 = lambda_n - gamma = delta^2 - gamma
    assert abs(d.kappa ** 2 - (d.lambda_n - gamma)) <= 1e-14 * max(1.0, d.lambda_n)
    assert abs(d.kappa ** 2 - (d.delta ** 2 - gamma)) <= 1e-14 * max(1.0, d.lambda_n)
    assert d.amplitude > 0


def test_symmetric_constructor_derives_beta():
    p = hs.ProblemParams.symmetric(5, 1.0, 0.5, 2.0)
    assert abs(p.alpha + p.beta - hs.critical_exponent(5)) <= 1e-12
    assert p.gamma == 1.0
    assert p.two_star == hs.critical_exponent(5)


def test_unequal_gamma_property_raises():
    p = hs.ProblemParams(4, 0.1, 0.2, 1.0, 2.0, 2.0)
    with pytest.raises(ParameterError):
        _ = p.gamma


_invalid_tuples = st.one_of(
    # dimension too small
    st.tuples(st.integers(-5, 2), st.just(0.0), st.just(0.0), st.just(1.0),
              st.just(2.0), st.just(2.0)),
    # gamma below 0 or at/above lambda_n
    st.tuples(st.just(4), st.one_of(st.floats(-10.0, -1e-9), st.floats(1.0, 10.0)),
              st.just(0.0), st.just(1.0), st.just(2.0), st.just(2.0)),
    # negative coupling
    st.tuples(st.just(4), st.just(0.0), st.just(0.0), st.floats(-10.0, -1e-12),
              st.just(2.0), st.just(2.0)),
    # exponents at or below 1
    st.tuples(st.just(4), st.just(0.0), st.just(0.0), st.just(1.0),
              st.floats(-2.0, 1.0), st.just(2.0)),
    # broken linear constraint
    st.tuples(st.just(4), st.just(0.0), st.just(0.0), st.just(1.0), st.just(2.0),
              st.floats(1.1, 5.0).filter(lambda b: abs(b - 2.0) > 1e-9)),
)


@given(_invalid_tuples)
def test_invalid_tuples_rejected(tup):
    n, g1, g2, nu, alpha, beta = tup
    with pytest.raises(ParameterError):
        hs.ProblemParams(n=n, gamma1=g1, gamma2=g2, nu=nu, alpha=alpha, beta=beta)


def test_alpha_beta_tolerance_boundary():
    ts = hs.critical_exponent(4)
    hs.ProblemParams(4, 0.0, 0.0, 1.0, 2.0, ts - 2.0 + 5e-13)  # inside tolerance
    with pytest.raises(ParameterError):
        hs.ProblemParams(4, 0.0, 0.0, 1.0, 2.0, ts - 2.0 + 1e-11)


def test_decoupled_mode_allowed():
    p = hs.ProblemParams.symmetric(4, 0.5, 0.0, 2.0)
    assert p.nu == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma1", "gamma2", "nu", "alpha", "beta"])
def test_non_finite_values_rejected(name, value):
    # NaN passes every ordered comparison's negation, so it needs its own test
    kwargs = dict(n=4, gamma1=0.0, gamma2=0.0, nu=1.0, alpha=2.0, beta=2.0)
    kwargs[name] = value
    with pytest.raises(ParameterError):
        hs.ProblemParams(**kwargs)


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_non_finite_dimension_rejected(n):
    with pytest.raises(ParameterError):
        hs.ProblemParams(n=n, gamma1=0.0, gamma2=0.0, nu=1.0, alpha=2.0, beta=2.0)
