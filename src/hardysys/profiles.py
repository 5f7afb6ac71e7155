"""Closed-form radial profiles and their limits at the origin and at infinity.

The central object is the explicit radial profile

    U(r) = A / ( r^tau1 * (1 + r^q)^delta ),        q = 2 kappa / delta,

rescaled as u_mu(r) = mu^(-delta) U(r/mu).  All derivative evaluators below
are exact closed forms arranged to avoid catastrophic cancellation near the
endpoints of the usual log grids: with w = r^q / (1 + r^q) and
phi = tau1 + 2 kappa w, one has

    u'  = -phi u / r,
    u'' = u (phi^2 + phi - 2 kappa q w (1 - w)) / r^2.

The same trick with chi = (tau - tau1) - 2 kappa w yields stable derivatives
of the weighted profile r^tau u(r) for any tau.

numpy is imported inside the array evaluators, so building a ScalarProfile
(as classify does) loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, ParameterError
from .params import ProblemParams

#: radii below this are rejected instead of returning infinities
MIN_RADIUS = 1e-300
#: largest relative spread of the last two Aitken extrapolants of a limit
LIMIT_RTOL = 1e-6


def _as_radii(r):
    """Validate positive radii; return them as a float array."""
    import numpy as np
    arr = np.asarray(r, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < MIN_RADIUS)):
        raise ParameterError("radius must be finite and >= 1e-300")
    return arr


def _sigmoid(t):
    """exp(t)/(1+exp(t)) without overflow; also returns the complement."""
    import numpy as np
    t = np.asarray(t, dtype=float)
    pos = t >= 0
    et = np.exp(np.where(pos, -t, t))
    w = np.where(pos, 1.0 / (1.0 + et), et / (1.0 + et))
    return w, 1.0 - w


@dataclass(frozen=True)
class ScalarProfile:
    """The explicit radial profile at scale mu (Aubin-Talenti bubble if gamma=0)."""

    params: ProblemParams
    mu: float = 1.0

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ParameterError(f"scale must be positive and finite, got mu={self.mu}")

    # --- internal pieces -------------------------------------------------

    @property
    def _q(self) -> float:
        p = self.params
        return 2.0 * p.kappa / p.delta

    def _w(self, r):
        """w = rho^q/(1+rho^q) and 1-w, rho = r/mu, both cancellation-free."""
        import numpy as np
        t = self._q * (np.log(r) - math.log(self.mu))
        return _sigmoid(t)

    def _log_value(self, r):
        import numpy as np
        p = self.params
        rho_log = np.log(r) - math.log(self.mu)
        t = self._q * rho_log
        # log(1+rho^q) written to stay accurate on both sides of rho = 1; exp
        # sees only -|t|, so neither side overflows
        log1p_term = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
        log_amp = math.log(p.amplitude) - p.delta * math.log(self.mu)
        return log_amp - p.tau1 * rho_log - p.delta * log1p_term

    # --- public evaluators ------------------------------------------------

    def value(self, r):
        """Profile value, vectorized over positive radii."""
        import numpy as np
        return np.exp(self._log_value(_as_radii(r)))

    def derivatives(self, r):
        """(u, u', u'') with exact closed-form radial derivatives.

        The weighted form at tau = 0, where chi = -phi exactly.
        """
        return self.weighted_derivatives(0.0, r)

    def weighted_derivatives(self, tau: float, r):
        """(g, g', g'') for g(r) = r^tau u(r), stable for any fixed tau.

        Assembling g' and g'' from u, u', u'' term by term loses up to eight
        digits near r -> 0 when tau = tau1; the chi-form below does not.
        """
        import numpy as np
        arr = _as_radii(r)
        p = self.params
        u = np.exp(self._log_value(arr))
        g = np.power(arr, tau) * u
        w, om = self._w(arr)
        if tau - p.tau1 <= p.kappa:
            chi = (tau - p.tau1) - 2.0 * p.kappa * w
        else:
            # same value, written against the upper root so that w -> 1
            # (large radii) produces a product instead of a cancellation
            chi = (tau - p.tau2) + 2.0 * p.kappa * om
        g1 = g * chi / arr
        g2 = g * (chi * chi - chi - 2.0 * p.kappa * self._q * w * om) / (arr * arr)
        return g, g1, g2


# --- asymptotic limits -----------------------------------------------------


def _aitken_limit(logs, label: str) -> float:
    """Log of the limit of a power-law sequence, given the logs of its terms.

    The sequence exp(logs) is divided by its last term first, so both
    tolerance tests are relative, no square of a difference overflows and no
    term has to be a double; the limit's log is shifted back.  Falls back to
    the raw tail when the increments are already at roundoff.
    """
    import numpy as np
    tail = float(logs[-1])
    vals = np.exp(np.asarray(logs, dtype=float) - tail)
    if np.max(np.abs(np.diff(vals))) <= 1e-13:
        return tail
    accel = []
    for k in range(len(vals) - 2):
        denom = vals[k + 2] - 2.0 * vals[k + 1] + vals[k]
        if denom == 0.0:
            continue
        accel.append(float(vals[k + 2] - (vals[k + 2] - vals[k + 1]) ** 2 / denom))
    if not accel:
        return tail
    if len(accel) >= 2:
        spread = abs(accel[-1] - accel[-2])
        if spread > LIMIT_RTOL * abs(accel[-1]):
            raise ConvergenceError(
                f"{label}: extrapolants differ by {spread:.3e} "
                f"(> {LIMIT_RTOL:.1e} relative)"
            )
    return math.log(accel[-1]) + tail


def asymptotic_limits(profile) -> tuple[float, float]:
    """Logs of (limit at 0 of r^tau1 U, limit at infinity of r^tau2 U), U = ``profile``.

    Both compensated values approach their limits like a power rho^(+-q) of
    rho = r/mu, q = 2 kappa/delta, so they are sampled along r = mu 10^(-k m)
    and r = mu 10^(k m) for k = 4..8, m = max(1, 1/q), relative to the
    profile's scale mu, and accelerated.  Near gamma = lambda_n, q is small
    and m stretches the samples over as many decades as the rate needs.
    Each compensated value is formed in logs, tau log r + log U(r), and the
    limits stay logs: neither r^tau2, U(r) nor A mu^(-+kappa) has to be a
    double.  ConvergenceError if a sample radius would fall below MIN_RADIUS
    or past the largest double, or if the extrapolants do not settle.
    """
    import numpy as np
    p = profile.params
    decades = np.arange(4.0, 9.0) * max(1.0, p.delta / (2.0 * p.kappa))
    r_small = profile.mu * np.power(10.0, -decades)
    with np.errstate(over="ignore"):
        r_large = profile.mu * np.power(10.0, decades)
    if r_small[-1] < MIN_RADIUS or not math.isfinite(r_large[-1]):
        raise ConvergenceError(
            f"sampling {decades[-1]:.4g} decades from mu = {profile.mu:.6g} "
            "leaves the range of a double")
    near = p.tau1 * np.log(r_small) + profile._log_value(r_small)
    far = p.tau2 * np.log(r_large) + profile._log_value(r_large)
    return (_aitken_limit(near, "limit at the origin"),
            _aitken_limit(far, "limit at infinity"))
