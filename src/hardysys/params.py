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
* ``kappa``      sqrt(lambda_n - gamma), the saddle rate of the phase plane
* ``tau1, tau2`` delta -+ kappa, roots of tau^2 - (n-2) tau + gamma = 0
* ``amplitude``  the closed-form profile amplitude
                 A = (n (n-2-2 tau1)^2 / (n-2))^((n-2)/4), for gamma = 0
                 (n (n-2))^((n-2)/4), the peak of the unit Aubin-Talenti bubble
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ParameterError


def hardy_constant(n: int) -> float:
    """Best constant ((n-2)/2)^2 of the Hardy inequality in dimension n."""
    n = _check_dimension(n)
    try:
        return ((n - 2) / 2.0) ** 2
    except OverflowError:  # n or lambda_n beyond a double, from n = 2.7e154 on
        raise ParameterError(f"dimension too large: lambda_n at n={n} is beyond the "
                             "range of a double") from None


def critical_exponent(n: int) -> float:
    """Critical Sobolev exponent 2n/(n-2)."""
    n = _check_dimension(n)
    try:
        two_star = 2.0 * n / (n - 2)
    except OverflowError:  # n beyond a double, from n = 1.8e308 on
        two_star = math.inf
    if two_star == math.inf:  # 2n beyond a double, from n = 9e307 on
        raise ParameterError(f"dimension too large: 2n at n={n} is beyond the range "
                             "of a double")
    return two_star


def _check_dimension(n) -> int:
    try:
        integral = int(n) == n
    except (ValueError, OverflowError):  # NaN or an infinity
        integral = False
    if not integral:
        raise ParameterError(f"dimension must be an integer, got {n!r}")
    if n < 3:
        raise ParameterError(f"dimension too small: n={n} (need n >= 3)")
    return int(n)


class ProblemParams(namedtuple("ProblemParams", "n gamma nu alpha beta two_star lambda_n "
                                                "delta tau1 tau2 kappa amplitude")):
    """The tuple (n, gamma, nu, alpha) defining one system, with
    beta = 2* - alpha and the constants derived from (n, gamma), computed
    once at construction.

    Invariants enforced at construction:

    * every value finite
    * n >= 3 (integer dimension)
    * 0 <= gamma < lambda_n (one Hardy coefficient for both equations)
    * nu >= 0 (nu = 0 is the decoupled scalar mode)
    * alpha > 1 and beta > 1
    * nu alpha and nu beta finite (the coefficients of the coupling function)
    * lambda_n and A finite (at gamma = 0, n <= 257), A and A 2^-delta normal
      doubles (A underflows near lambda_n at large n; 2^-delta is 0 from n = 2152 on)

    A named tuple of all twelve values, whose repr prints the four inputs.
    Equality and hash are the tuple's; the eight derived values are
    functions of the inputs, so the inputs alone decide them.  Pickling,
    copying and ``_replace`` go through the constructor, which validates
    again and takes only the inputs; ``_make`` does not.
    """

    __slots__ = ()

    def __new__(cls, n: int, gamma: float, nu: float, alpha: float):
        lam, two_star = hardy_constant(n), critical_exponent(n)  # both check n
        n = int(n)
        gamma, nu, alpha = float(gamma), float(nu), float(alpha)
        for name, value in (("gamma", gamma), ("nu", nu), ("alpha", alpha)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0.0 <= gamma < lam:
            raise ParameterError(
                f"gamma out of range: {gamma} not in [0, {lam}) "
                "(the degenerate endpoint gamma = lambda_n is excluded)"
            )
        if nu < 0:
            raise ParameterError(f"coupling strength must be nonnegative, got nu={nu}")
        beta = two_star - alpha
        if alpha <= 1 or beta <= 1:
            raise ParameterError(
                f"exponents must exceed 1, got alpha={alpha}, beta={beta}"
            )
        if not math.isfinite(nu * alpha) or not math.isfinite(nu * beta):
            raise ParameterError(
                f"the coupling coefficients nu alpha = {nu * alpha} and "
                f"nu beta = {nu * beta} must be finite"
            )
        delta = (n - 2) / 2.0
        kappa = math.sqrt(lam - gamma)
        tau1 = delta - kappa
        base = n * (n - 2.0 - 2.0 * tau1) ** 2 / (n - 2.0)
        try:
            amplitude = base ** ((n - 2) / 4.0)
        except OverflowError:  # from n = 258 on at gamma = 0
            amplitude = math.inf
        # the unit peak A 2^-delta <= A, as SynchronizedFamily.peak_amplitude forms it
        if not sys.float_info.min <= amplitude * 2.0 ** -delta < math.inf:
            raise ParameterError(
                f"dimension too large: the profile amplitude at n={n}, gamma={gamma} "
                "is beyond the range of a double"
            )
        return super().__new__(cls, n, gamma, nu, alpha, beta, two_star, lam, delta,
                               tau1, delta + kappa, kappa, amplitude)

    def __repr__(self) -> str:
        return "%s(n=%r, gamma=%r, nu=%r, alpha=%r)" % (type(self).__qualname__, *self[:4])

    def __getnewargs__(self):
        return self[:4]

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self[:4]), **changes))

    @classmethod
    def symmetric(cls, n: int, gamma: float, nu: float, alpha: float) -> "ProblemParams":
        """Same as ``ProblemParams(n, gamma, nu, alpha)``; kept for existing callers."""
        return cls(n, gamma, nu, alpha)
