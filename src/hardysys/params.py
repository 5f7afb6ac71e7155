"""Problem parameters and the scalar constants derived from them.

The system under study couples two semilinear equations through a term
``nu * alpha * u^(alpha-1) v^beta`` (and symmetrically for v), with an
inverse-square potential of strength gamma and a pure power at the critical
Sobolev exponent.  Everything downstream is controlled by the tuple
(n, gamma, nu, alpha, beta) together with a handful of derived constants:

* ``two_star``   critical Sobolev exponent 2n/(n-2)
* ``lambda_n``   best Hardy constant ((n-2)/2)^2
* ``delta``      (n-2)/2, the decay rate of the log-radius variables
* ``tau1, tau2`` roots of tau^2 - (n-2) tau + gamma = 0 (inner/outer decay)
* ``kappa``      sqrt(lambda_n - gamma) = delta - tau1
* ``amplitude``  the closed-form profile amplitude A(n, gamma)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

#: tolerance for the linear constraint alpha + beta = 2*
ALPHA_BETA_TOL = 1e-12


def hardy_constant(n: int) -> float:
    """Best constant ((n-2)/2)^2 of the Hardy inequality in dimension n."""
    _check_dimension(n)
    return ((n - 2) / 2.0) ** 2


def critical_exponent(n: int) -> float:
    """Critical Sobolev exponent 2n/(n-2)."""
    _check_dimension(n)
    return 2.0 * n / (n - 2)


def tau_exponents(n: int, gamma: float) -> tuple[float, float]:
    """Roots (tau1, tau2) of tau^2 - (n-2) tau + gamma = 0, ordered tau1 <= tau2.

    tau1 drives the profile blow-up rate at the origin, tau2 the decay rate
    at infinity.
    """
    lam = hardy_constant(n)
    _check_gamma(gamma, lam)
    delta = (n - 2) / 2.0
    kappa = math.sqrt(lam - gamma)
    return delta - kappa, delta + kappa


def amplitude(n: int, gamma: float) -> float:
    """Profile amplitude A(n, gamma) = (n (n-2-2 tau1)^2 / (n-2))^((n-2)/4).

    For gamma = 0 this reduces to (n (n-2))^((n-2)/4), the peak value of the
    unit Aubin-Talenti bubble.
    """
    tau1, _ = tau_exponents(n, gamma)
    base = n * (n - 2.0 - 2.0 * tau1) ** 2 / (n - 2.0)
    return base ** ((n - 2) / 4.0)


def _check_dimension(n) -> None:
    try:
        integral = int(n) == n
    except (ValueError, OverflowError):  # NaN or an infinity
        integral = False
    if not integral:
        raise ParameterError(f"dimension must be an integer, got {n!r}")
    if n < 3:
        raise ParameterError(f"dimension too small: n={n} (need n >= 3)")


def _check_gamma(gamma: float, lam: float) -> None:
    if not (0.0 <= gamma < lam):
        raise ParameterError(
            f"gamma out of range: {gamma} not in [0, {lam}) "
            "(the degenerate endpoint gamma = lambda_n is excluded)"
        )


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants computed once from (n, gamma)."""

    two_star: float
    lambda_n: float
    delta: float
    tau1: float
    tau2: float
    kappa: float
    amplitude: float


def derived_constants(n: int, gamma: float) -> DerivedConstants:
    """Bundle every derived constant for a dimension/Hardy-strength pair."""
    tau1, tau2 = tau_exponents(n, gamma)
    delta = (n - 2) / 2.0
    return DerivedConstants(
        two_star=critical_exponent(n),
        lambda_n=hardy_constant(n),
        delta=delta,
        tau1=tau1,
        tau2=tau2,
        kappa=delta - tau1,
        amplitude=amplitude(n, gamma),
    )


@dataclass(frozen=True)
class ProblemParams:
    """The tuple (n, gamma1, gamma2, nu, alpha, beta) defining one system.

    Invariants enforced at construction:

    * every value finite
    * n >= 3 (integer dimension)
    * 0 <= gamma_i < lambda_n for both Hardy coefficients
    * nu >= 0 (nu = 0 is the decoupled scalar mode)
    * alpha > 1, beta > 1 and alpha + beta = 2* to within 1e-12
    """

    n: int
    gamma1: float
    gamma2: float
    nu: float
    alpha: float
    beta: float

    def __post_init__(self):
        _check_dimension(self.n)
        object.__setattr__(self, "n", int(self.n))
        for name in ("gamma1", "gamma2", "nu", "alpha", "beta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        lam = hardy_constant(self.n)
        _check_gamma(self.gamma1, lam)
        _check_gamma(self.gamma2, lam)
        if self.nu < 0:
            raise ParameterError(f"coupling strength must be nonnegative, got nu={self.nu}")
        if self.alpha <= 1 or self.beta <= 1:
            raise ParameterError(
                f"exponents must exceed 1, got alpha={self.alpha}, beta={self.beta}"
            )
        two_star = critical_exponent(self.n)
        if abs(self.alpha + self.beta - two_star) > ALPHA_BETA_TOL:
            raise ParameterError(
                f"alpha + beta = {self.alpha + self.beta} != 2* = {two_star} "
                f"(tolerance {ALPHA_BETA_TOL})"
            )

    @classmethod
    def symmetric(cls, n: int, gamma: float, nu: float, alpha: float,
                  beta: float | None = None) -> "ProblemParams":
        """Single-gamma constructor; beta defaults to 2* - alpha."""
        if beta is None:
            beta = critical_exponent(n) - alpha
        return cls(n=n, gamma1=gamma, gamma2=gamma, nu=nu, alpha=alpha, beta=beta)

    @property
    def gamma(self) -> float:
        """The common Hardy coefficient; defined only when gamma1 == gamma2."""
        if self.gamma1 != self.gamma2:
            raise ParameterError(
                "gamma1 != gamma2: classification requires equal Hardy coefficients "
                "(unequal coefficients only support the symmetry statements)"
            )
        return self.gamma1

    @property
    def two_star(self) -> float:
        return critical_exponent(self.n)

    def derived(self) -> DerivedConstants:
        """Derived constants for the common gamma (requires gamma1 == gamma2)."""
        return derived_constants(self.n, self.gamma)
