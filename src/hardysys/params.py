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


class _Record:
    """Base of an immutable record whose constructor arguments are ``_fields``:
    repr, equality and hash on those fields alone, an instance of a subclass
    never equal to one of its base, and pickling and copying through the
    constructor.  Assignment and deletion raise AttributeError; ``__init__``
    sets each slot with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class ProblemParams(_Record):
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

    Immutable; repr, equality and hash read (n, gamma, nu, alpha) alone.
    """

    __slots__ = ("n", "gamma", "nu", "alpha", "beta", "two_star", "lambda_n",
                 "delta", "tau1", "tau2", "kappa", "amplitude")
    _fields = ("n", "gamma", "nu", "alpha")

    def __init__(self, n: int, gamma: float, nu: float, alpha: float):
        _check_dimension(n)
        n = int(n)
        gamma, nu, alpha = float(gamma), float(nu), float(alpha)
        for name, value in (("gamma", gamma), ("nu", nu), ("alpha", alpha)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        lam = hardy_constant(n)
        if not 0.0 <= gamma < lam:
            raise ParameterError(
                f"gamma out of range: {gamma} not in [0, {lam}) "
                "(the degenerate endpoint gamma = lambda_n is excluded)"
            )
        if nu < 0:
            raise ParameterError(f"coupling strength must be nonnegative, got nu={nu}")
        two_star = critical_exponent(n)
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
        root = math.sqrt(lam - gamma)
        tau1 = delta - root
        base = n * (n - 2.0 - 2.0 * tau1) ** 2 / (n - 2.0)
        for name, value in (("n", n), ("gamma", gamma), ("nu", nu), ("alpha", alpha),
                            ("beta", beta), ("two_star", two_star), ("lambda_n", lam),
                            ("delta", delta), ("tau1", tau1),
                            ("tau2", delta + root), ("kappa", delta - tau1),
                            ("amplitude", base ** ((n - 2) / 4.0))):
            object.__setattr__(self, name, value)

    @classmethod
    def symmetric(cls, n: int, gamma: float, nu: float, alpha: float) -> "ProblemParams":
        """Same as ``ProblemParams(n, gamma, nu, alpha)``; kept for existing callers."""
        return cls(n, gamma, nu, alpha)
