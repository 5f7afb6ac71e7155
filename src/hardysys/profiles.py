"""Closed-form radial profiles and their limits at the origin and at infinity.

The central object is the explicit radial profile

    U(r) = A / ( r^tau1 * (1 + r^q)^delta ),        q = 2 kappa / delta,

rescaled as u_mu(r) = mu^(-delta) U(r/mu).  With rho = r/mu,
w = rho^q / (1 + rho^q) and chi = (tau - tau1) - 2 kappa w, the weighted
profile g = r^tau u has

    r g' / g     = chi,
    r^2 g'' / g  = chi^2 - chi - 2 kappa q w (1 - w),

and y = r^delta u = A rho^kappa (1 + rho^q)^(-delta) does not depend on mu.
``_bounded_units`` evaluates w, 1 - w and log y over a sequence of log rho,
the pieces from which ``emdenfowler`` builds the radial equations divided by
g / r^2, where every term is bounded at every n and every mu, and the
closed-form phase-plane trajectory y, y' = kappa (1 - 2w) y; it takes the
whole sequence and returns lists.  ``_log_value`` and ``asymptotic_limits``
take and return floats.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .params import ProblemParams, _Record

#: the least radius ``export`` accepts
MIN_RADIUS = 1e-300


class ScalarProfile(_Record):
    """The explicit radial profile at scale mu (Aubin-Talenti bubble if gamma=0).

    Immutable; repr, equality and hash read (params, mu).
    """

    __slots__ = ("params", "mu")
    _fields = ("params", "mu")

    def __init__(self, params: ProblemParams, mu: float = 1.0):
        if not 0 < mu < math.inf:
            raise ParameterError(f"scale must be positive and finite, got mu={mu}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "mu", mu)

    # --- internal pieces -------------------------------------------------

    @property
    def _q(self) -> float:
        p = self.params
        return 2.0 * p.kappa / p.delta

    def _log_terms(self, rho_log: float) -> tuple[float, float]:
        """(t, L) = (q log rho, log(1 + rho^q)) at log rho = log(r/mu).

        L is written to stay accurate on both sides of rho = 1; exp sees only
        -|t|, so neither side overflows.
        """
        t = self._q * rho_log
        return t, max(t, 0.0) + math.log1p(math.exp(-abs(t)))

    def _log_value(self, r: float) -> float:
        """log u_mu(r) at one radius r."""
        p = self.params
        rho_log = math.log(r) - math.log(self.mu)
        _, log1p_term = self._log_terms(rho_log)
        log_amp = math.log(p.amplitude) - p.delta * math.log(self.mu)
        return log_amp - p.tau1 * rho_log - p.delta * log1p_term

    def _bounded_units(self, log_rho) -> tuple[list[float], list[float], list[float]]:
        """Lists (w, 1 - w, log y), one entry per log rho = log(r/mu) in
        ``log_rho``, y = r^delta u.

        w = rho^q / (1 + rho^q) lies in [0, 1] and y = A rho^kappa
        (1 + rho^q)^(-delta) in (0, A 2^-delta]; neither depends on mu.
        With L = log(1 + rho^q), written as ``_log_terms`` writes it,
        1 - w = e^(-L) and w = e^(t - L), t = q log rho, so each is accurate
        relative to itself, in its tail as well.  Where delta L is beyond a
        double, the three are their limits as rho -> infinity, (1, 0, -inf).
        The constants are read once per call, and L is formed inline: a call
        per point costs the closed form a few percent.
        """
        p = self.params
        q, delta, kappa, log_a = self._q, p.delta, p.kappa, math.log(p.amplitude)
        exp, log1p, inf = math.exp, math.log1p, math.inf
        ws, oms, log_ys = [], [], []
        for x in log_rho:
            t = q * x
            # L as _log_terms forms it, max(t, 0) + log1p(e^-|t|), without the calls
            log1p_term = t + log1p(exp(-t)) if t > 0.0 else log1p(exp(t))
            decay = delta * log1p_term
            if decay == inf:  # t - L, or log y, would be inf - inf
                ws.append(1.0)
                oms.append(0.0)
                log_ys.append(-inf)
            else:
                ws.append(exp(t - log1p_term))
                oms.append(exp(-log1p_term))
                log_ys.append(log_a + kappa * x - decay)
        return ws, oms, log_ys


# --- asymptotic limits -----------------------------------------------------


def asymptotic_limits(profile) -> tuple[float, float]:
    """Logs of (limit at 0 of r^tau1 U, limit at infinity of r^tau2 U), U = ``profile``.

    With rho = r/mu, r^tau1 U = A mu^(-kappa) (1 + rho^q)^(-delta) and
    r^tau2 U = A mu^kappa (rho^q / (1 + rho^q))^delta, so the limits are
    A mu^(-+kappa), returned as log A -+ kappa log mu: neither needs to be a
    double.  No command reads them: ``full_verification`` reads off the
    orbit the limit at 0 of mu^kappa r^tau1 U, which is A at every mu.
    """
    p = profile.params
    log_a, log_mu = math.log(p.amplitude), math.log(profile.mu)
    return log_a - p.kappa * log_mu, log_a + p.kappa * log_mu
