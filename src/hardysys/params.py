"""Problem parameters and the scalar constants derived from them.

The system under study couples two semilinear equations through a term
``nu * alpha * u^(alpha-1) v^beta`` (and symmetrically for v), with an
inverse-square potential of strength gamma and a pure power at the critical
Sobolev exponent.  Everything downstream is controlled by the tuple
(n, gamma, nu, alpha); the system is doubly critical, alpha + beta = 2*, so
beta follows from (n, alpha).  ``ProblemParams`` holds beta and a handful of
constants derived from (n, gamma) as attributes:

* ``beta``       the second coupling exponent 2* - alpha
* ``two_star``   critical Sobolev exponent 2n/(n-2)
* ``lambda_n``   best Hardy constant ((n-2)/2)^2
* ``delta``      (n-2)/2, the decay rate of the log-radius variables
* ``tau1, tau2`` roots of tau^2 - (n-2) tau + gamma = 0 (inner/outer decay)
* ``kappa``      sqrt(lambda_n - gamma) = delta - tau1
* ``amplitude``  the closed-form profile amplitude
                 A = (n (n-2-2 tau1)^2 / (n-2))^((n-2)/4), for gamma = 0
                 (n (n-2))^((n-2)/4), the peak of the unit Aubin-Talenti bubble
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError


def hardy_constant(n: int) -> float:
    """Best constant ((n-2)/2)^2 of the Hardy inequality in dimension n."""
    _check_dimension(n)
    return ((n - 2) / 2.0) ** 2


def critical_exponent(n: int) -> float:
    """Critical Sobolev exponent 2n/(n-2)."""
    _check_dimension(n)
    return 2.0 * n / (n - 2)


def _check_dimension(n) -> None:
    try:
        integral = int(n) == n
    except (ValueError, OverflowError):  # NaN or an infinity
        integral = False
    if not integral:
        raise ParameterError(f"dimension must be an integer, got {n!r}")
    if n < 3:
        raise ParameterError(f"dimension too small: n={n} (need n >= 3)")


@dataclass(frozen=True)
class ProblemParams:
    """The tuple (n, gamma, nu, alpha) defining one system, with
    beta = 2* - alpha and the constants derived from (n, gamma), computed
    once at construction.

    Invariants enforced at construction:

    * every value finite
    * n >= 3 (integer dimension)
    * 0 <= gamma < lambda_n (one Hardy coefficient for both equations)
    * nu >= 0 (nu = 0 is the decoupled scalar mode)
    * alpha > 1 and beta > 1
    """

    n: int
    gamma: float
    nu: float
    alpha: float
    beta: float = field(init=False, repr=False, compare=False)
    two_star: float = field(init=False, repr=False, compare=False)
    lambda_n: float = field(init=False, repr=False, compare=False)
    delta: float = field(init=False, repr=False, compare=False)
    tau1: float = field(init=False, repr=False, compare=False)
    tau2: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)
    amplitude: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dimension(self.n)
        n = int(self.n)
        object.__setattr__(self, "n", n)
        for name in ("gamma", "nu", "alpha"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        lam = hardy_constant(n)
        if not 0.0 <= self.gamma < lam:
            raise ParameterError(
                f"gamma out of range: {self.gamma} not in [0, {lam}) "
                "(the degenerate endpoint gamma = lambda_n is excluded)"
            )
        if self.nu < 0:
            raise ParameterError(f"coupling strength must be nonnegative, got nu={self.nu}")
        two_star = critical_exponent(n)
        object.__setattr__(self, "beta", two_star - self.alpha)
        if self.alpha <= 1 or self.beta <= 1:
            raise ParameterError(
                f"exponents must exceed 1, got alpha={self.alpha}, beta={self.beta}"
            )
        delta = (n - 2) / 2.0
        root = math.sqrt(lam - self.gamma)
        tau1 = delta - root
        base = n * (n - 2.0 - 2.0 * tau1) ** 2 / (n - 2.0)
        for name, value in (("two_star", two_star), ("lambda_n", lam),
                            ("delta", delta), ("tau1", tau1),
                            ("tau2", delta + root), ("kappa", delta - tau1),
                            ("amplitude", base ** ((n - 2) / 4.0))):
            object.__setattr__(self, name, value)

    @classmethod
    def symmetric(cls, n: int, gamma: float, nu: float, alpha: float) -> "ProblemParams":
        """Same as ``ProblemParams(n, gamma, nu, alpha)``; kept for existing callers."""
        return cls(n, gamma, nu, alpha)
