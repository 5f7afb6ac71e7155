"""Closed-form radial profiles and their limits at the origin and at infinity.

The central object is the explicit radial profile

    U(r) = A / ( r^tau1 * (1 + r^q)^delta ),        q = 2 kappa / delta,

rescaled as u_mu(r) = mu^(-delta) U(r/mu).  With rho = r/mu,
w = rho^q / (1 + rho^q) and chi = (tau - tau1) - 2 kappa w, the weighted
profile g = r^tau u has

    r g' / g     = chi,
    r^2 g'' / g  = chi^2 - chi - 2 kappa q w (1 - w),

and y = r^delta u = A rho^kappa (1 + rho^q)^(-delta) does not depend on mu.
``_bounded_units`` evaluates w, 1 - w and log y on log rho, the pieces from
which ``emdenfowler`` builds the radial equations divided by g / r^2, where
every term is bounded at every n and every mu, and the closed-form
phase-plane trajectory y(t), y'(t) = kappa (1 - 2w) y, t = log r.

numpy is imported inside the array evaluators, so building a ScalarProfile
(as classify does) loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .params import ProblemParams

#: radii below this are rejected instead of returning infinities
MIN_RADIUS = 1e-300


def _as_radii(r):
    """Validate positive radii; return them as a float array."""
    import numpy as np
    arr = np.asarray(r, dtype=float)
    # a NaN makes both comparisons false
    if arr.size and not (arr.min() >= MIN_RADIUS and arr.max() < math.inf):
        raise ParameterError("radius must be finite and >= 1e-300")
    return arr


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

    def _log_terms(self, rho_log):
        """(t, L) = (q log rho, log(1 + rho^q)) at log rho = log(r/mu).

        L is written to stay accurate on both sides of rho = 1; exp sees only
        -|t|, so neither side overflows.
        """
        import numpy as np
        t = self._q * rho_log
        return t, np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def _log_value(self, r):
        import numpy as np
        p = self.params
        rho_log = np.log(r) - math.log(self.mu)
        _, log1p_term = self._log_terms(rho_log)
        log_amp = math.log(p.amplitude) - p.delta * math.log(self.mu)
        return log_amp - p.tau1 * rho_log - p.delta * log1p_term

    def _bounded_units(self, rho_log):
        """(w, 1 - w, log y) at log rho = log(r/mu), y = r^delta u.

        w = rho^q / (1 + rho^q) lies in [0, 1] and y = A rho^kappa
        (1 + rho^q)^(-delta) in (0, A 2^-delta]; neither depends on mu.
        With L = log(1 + rho^q) from ``_log_terms``, 1 - w = e^(-L) and
        w = e^(t - L), t = q log rho, so each is accurate relative to itself,
        in its tail as well.
        """
        import numpy as np
        p = self.params
        t, log1p_term = self._log_terms(rho_log)
        log_y = math.log(p.amplitude) + p.kappa * rho_log - p.delta * log1p_term
        return np.exp(t - log1p_term), np.exp(-log1p_term), log_y

    # --- public evaluators ------------------------------------------------

    def value(self, r):
        """Profile value, vectorized over positive radii."""
        import numpy as np
        return np.exp(self._log_value(_as_radii(r)))


# --- asymptotic limits -----------------------------------------------------


def asymptotic_limits(profile) -> tuple[float, float]:
    """Logs of (limit at 0 of r^tau1 U, limit at infinity of r^tau2 U), U = ``profile``.

    With rho = r/mu, r^tau1 U = A mu^(-kappa) (1 + rho^q)^(-delta) and
    r^tau2 U = A mu^kappa (rho^q / (1 + rho^q))^delta, so the limits are
    A mu^(-+kappa), returned as log A -+ kappa log mu: neither needs to be a
    double.  ``full_verification`` compares them with the limits read off
    the integrated orbit.
    """
    p = profile.params
    log_a, log_mu = math.log(p.amplitude), math.log(profile.mu)
    return log_a - p.kappa * log_mu, log_a + p.kappa * log_mu
