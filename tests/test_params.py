import copy
import inspect
import math
import pickle

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


def _params(n, gamma):
    """A valid system at (n, gamma): nu = 1, alpha = beta = 2*/2."""
    return hs.ProblemParams(n, gamma, 1.0, hs.critical_exponent(n) / 2.0)


def test_tau_exponents_examples():
    p = _params(3, 0.0)
    assert (p.tau1, p.tau2) == (0.0, 1.0)
    # quadratic formula: sqrt(0.25 - 0.1875) = 0.25
    p = _params(3, 0.1875)
    np.testing.assert_allclose((p.tau1, p.tau2), (0.25, 0.75), rtol=0, atol=1e-15)
    # lambda_5 = 2.25, sqrt(2.25 - 2) = 0.5
    p = _params(5, 2.0)
    np.testing.assert_allclose((p.tau1, p.tau2), (1.0, 2.0), rtol=0, atol=1e-15)


def test_tau_exponents_gamma_range():
    with pytest.raises(ParameterError):
        _params(3, -0.1)
    with pytest.raises(ParameterError):
        _params(3, 0.25)  # equals lambda_3


def test_amplitude_examples():
    # tau1 = 0 cases reduce to (n(n-2))^((n-2)/4)
    np.testing.assert_allclose(_params(4, 0.0).amplitude, math.sqrt(8.0), rtol=1e-15)
    np.testing.assert_allclose(_params(3, 0.0).amplitude, 3.0 ** 0.25, rtol=1e-15)


@pytest.mark.parametrize("n", range(3, 11))
def test_amplitude_gamma_zero_closed_form(n):
    np.testing.assert_allclose(_params(n, 0.0).amplitude, (n * (n - 2.0)) ** ((n - 2) / 4.0),
                               rtol=1e-12)


@given(st.integers(3, 10), st.floats(0.0, 1.0, exclude_max=True))
def test_tau_vieta_identities(n, frac):
    gamma = frac * hs.hardy_constant(n)
    p = _params(n, gamma)
    tau1, tau2 = p.tau1, p.tau2
    assert abs(tau1 + tau2 - (n - 2)) <= 1e-12
    assert abs(tau1 * tau2 - gamma) <= 1e-12 * max(1.0, gamma)
    assert tau1 <= p.delta <= tau2
    # kappa^2 = lambda_n - gamma = delta^2 - gamma
    assert abs(p.kappa ** 2 - (p.lambda_n - gamma)) <= 1e-14 * max(1.0, p.lambda_n)
    assert abs(p.kappa ** 2 - (p.delta ** 2 - gamma)) <= 1e-14 * max(1.0, p.lambda_n)
    assert p.amplitude > 0


def test_symmetric_constructor_derives_beta():
    p = hs.ProblemParams(5, 1.0, 0.5, 2.0)
    assert abs(p.alpha + p.beta - hs.critical_exponent(5)) <= 1e-12
    assert p.beta == hs.critical_exponent(5) - 2.0
    assert p.gamma == 1.0
    assert p.two_star == hs.critical_exponent(5)


def test_derived_constants_are_attributes_not_settings():
    p = hs.ProblemParams(4, 0.5, 1.0, 2.0)
    settable = list(inspect.signature(hs.ProblemParams).parameters)
    assert settable == ["n", "gamma", "nu", "alpha"]
    assert repr(p) == "ProblemParams(n=4, gamma=0.5, nu=1.0, alpha=2.0)"
    assert p == hs.ProblemParams.symmetric(4, 0.5, 1.0, 2.0)
    assert p.beta == 2.0
    assert p.lambda_n == hs.hardy_constant(4)
    assert p.kappa == p.delta - p.tau1  # as written, not sqrt(lambda_n - gamma)
    with pytest.raises(AttributeError):
        p.kappa = 1.0
    with pytest.raises(AttributeError):
        del p.n
    # equality and hash read the four settings alone, and a copy is equal
    assert hash(p) == hash(hs.ProblemParams(4, 0.5, 1.0, 2.0))
    assert p != hs.ProblemParams(4, 0.5, 1.0, 2.5)
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.copy(p) == p
    assert tuple(p)[:4] == (4, 0.5, 1.0, 2.0)
    # _replace rebuilds through the constructor: it derives again, validates
    # again, and takes no derived name
    q = p._replace(alpha=2.5)
    assert q == hs.ProblemParams(4, 0.5, 1.0, 2.5)
    assert q.beta == hs.critical_exponent(4) - 2.5
    with pytest.raises(ParameterError):
        p._replace(gamma=-1.0)
    with pytest.raises(TypeError):
        p._replace(kappa=1.0)
    profile = hs.ScalarProfile(p, 1.0)
    with pytest.raises(ParameterError):
        profile._replace(mu=0.0)
    assert pickle.loads(pickle.dumps(profile)) == profile


_invalid_tuples = st.one_of(
    # dimension too small
    st.tuples(st.integers(-5, 2), st.just(0.0), st.just(1.0), st.just(2.0)),
    # gamma below 0 or at/above lambda_n
    st.tuples(st.just(4), st.one_of(st.floats(-10.0, -1e-9), st.floats(1.0, 10.0)),
              st.just(1.0), st.just(2.0)),
    # negative coupling
    st.tuples(st.just(4), st.just(0.0), st.floats(-10.0, -1e-12), st.just(2.0)),
    # alpha at or below 1, or at or above 2* - 1 (beta = 2* - alpha <= 1)
    st.tuples(st.just(4), st.just(0.0), st.just(1.0),
              st.one_of(st.floats(-2.0, 1.0), st.floats(3.0, 10.0))),
)


@given(_invalid_tuples)
def test_invalid_tuples_rejected(tup):
    n, gamma, nu, alpha = tup
    with pytest.raises(ParameterError):
        hs.ProblemParams(n=n, gamma=gamma, nu=nu, alpha=alpha)


def test_decoupled_mode_allowed():
    p = hs.ProblemParams(4, 0.5, 0.0, 2.0)
    assert p.nu == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma1", "gamma2", "nu", "alpha"])
def test_non_finite_values_rejected(name, value):
    # NaN passes every ordered comparison's negation, so it needs its own test.
    # gamma1 and gamma2, the Hardy coefficients of the two equations, are both
    # the one field gamma.
    kwargs = dict(n=4, gamma=0.0, nu=1.0, alpha=2.0)
    kwargs["gamma" if name.startswith("gamma") else name] = value
    with pytest.raises(ParameterError):
        hs.ProblemParams(**kwargs)


@pytest.mark.parametrize("args", [(4, 0.0, 1e308, 2.0), (3, 0.0, 6e307, 3.0),
                                  (3, 0.0, 5e307, 1.5)])
def test_coupling_coefficients_beyond_a_double_rejected(args):
    # nu alpha or nu beta is inf although nu is finite; in the last, nu beta alone
    with pytest.raises(ParameterError, match="coupling coefficients"):
        hs.ProblemParams(*args)


def test_amplitude_beyond_a_double_rejected():
    # A = (n (n-2))^((n-2)/4) at gamma = 0 passes the largest double at n = 258
    p = hs.ProblemParams(257, 0.0, 1.0, hs.critical_exponent(257) / 2.0)
    assert math.isfinite(p.amplitude)
    with pytest.raises(ParameterError, match="n=258"):
        hs.ProblemParams(258, 0.0, 1.0, hs.critical_exponent(258) / 2.0)


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_non_finite_dimension_rejected(n):
    with pytest.raises(ParameterError):
        hs.ProblemParams(n=n, gamma=0.0, nu=1.0, alpha=2.0)
