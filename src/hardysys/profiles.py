"""Closed-form radial profiles and their limits at the origin and at infinity.

The central object is the explicit radial profile

    U(r) = A / ( r^tau1 * (1 + r^q)^delta ),        q = 2 kappa / delta,

rescaled as u_mu(r) = mu^(-delta) U(r/mu).  With rho = r/mu,
w = rho^q / (1 + rho^q) and chi = (tau - tau1) - 2 kappa w, the weighted
profile g = r^tau u has

    r g' / g     = chi,
    r^2 g'' / g  = chi^2 - chi - 2 kappa q w (1 - w),

and y = r^delta u = A rho^kappa (1 + rho^q)^(-delta) does not depend on mu.
``_bounded_units`` evaluates log w, log(1 - w) and log y over a sequence of
log rho, the pieces from which ``emdenfowler`` builds the radial equations
divided by g / r^2, where every term is bounded at every n and every mu, and
the closed-form phase-plane trajectory y, y' = kappa (1 - 2w) y; it takes the
whole sequence and returns lists.  ``_log_value`` and ``asymptotic_limits``
take and return floats.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ParameterError
from .params import ProblemParams

#: the least radius ``export`` accepts
MIN_RADIUS = 1e-300


class ScalarProfile(namedtuple("ScalarProfile", "params mu")):
    """The explicit radial profile at scale mu (Aubin-Talenti bubble if gamma=0).

    A named tuple: equality and hash are the tuple's, read from (params, mu).
    Pickling, copying and ``_replace`` go through the constructor, which
    checks mu; ``_make`` does not.
    """

    __slots__ = ()

    def __new__(cls, params: ProblemParams, mu: float = 1.0):
        if not 0 < mu < math.inf:
            raise ParameterError(f"scale must be positive and finite, got mu={mu}")
        return super().__new__(cls, params, mu)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self), **changes))

    # --- internal pieces -------------------------------------------------

    @property
    def _q(self) -> float:
        p = self.params
        return 2.0 * p.kappa / p.delta

    def _log_value(self, r: float) -> float:
        """log u_mu(r) at one radius r."""
        p = self.params
        rho_log = math.log(r) - math.log(self.mu)
        t = self._q * rho_log
        # L = log(1 + rho^q), written to stay accurate on both sides of
        # rho = 1; exp sees only -|t|, so neither side overflows
        log1p_term = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        log_amp = math.log(p.amplitude) - p.delta * math.log(self.mu)
        return log_amp - p.tau1 * rho_log - p.delta * log1p_term

    def _bounded_units(self, log_rho) -> tuple[list[float], list[float], list[float]]:
        """Lists (log w, log(1 - w), log y), one entry per log rho = log(r/mu)
        in ``log_rho``, y = r^delta u.

        w = rho^q / (1 + rho^q) lies in [0, 1] and y = A rho^kappa
        (1 + rho^q)^(-delta) in (0, A 2^-delta]; neither depends on mu.
        With L = log(1 + rho^q), written as ``_log_value`` writes it,
        log(1 - w) = -L and log w = t - L, t = q log rho, so w and 1 - w, as
        their exponentials, are each accurate relative to itself, in its tail
        as well.  Where delta L is beyond a double, the three are the logs of
        their limits as rho -> infinity, (0, -inf, -inf).  Callers
        exponentiate only what they read: ``verify`` reads y alone.  The
        constants are read once per call, and L is formed inline: a call per
        point costs the closed form a few percent.
        """
        p = self.params
        q, delta, kappa, log_a = self._q, p.delta, p.kappa, math.log(p.amplitude)
        exp, log1p, inf = math.exp, math.log1p, math.inf
        log_ws, log_oms, log_ys = [], [], []
        for x in log_rho:
            t = q * x
            # L as _log_value forms it, max(t, 0) + log1p(e^-|t|), by a branch
            log1p_term = t + log1p(exp(-t)) if t > 0.0 else log1p(exp(t))
            decay = delta * log1p_term
            if decay == inf:  # t - L, or log y, would be inf - inf
                log_ws.append(0.0)
                log_oms.append(-inf)
                log_ys.append(-inf)
            else:
                log_ws.append(t - log1p_term)
                log_oms.append(-log1p_term)
                log_ys.append(log_a + kappa * x - decay)
        return log_ws, log_oms, log_ys


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
