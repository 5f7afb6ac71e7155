"""Closed-form radial profiles and the geometry of the singular weight.

The central object is the explicit radial profile

    U(r) = A / ( r^tau1 * (1 + r^q)^delta ),        q = 2 kappa / delta,

rescaled as u_mu(r) = mu^(-delta) U(r/mu).  All derivative evaluators below
are exact closed forms arranged to avoid catastrophic cancellation near the
endpoints of the usual log grids: with w = r^q / (1 + r^q) and
phi = tau1 + 2 kappa w, one has

    u'  = -phi u / r,
    u'' = u (phi^2 + phi - 2 kappa q w (1 - w)) / r^2,

and the full second-order radial operator collapses algebraically to

    u'' + (n-1) u'/r + gamma u/r^2 = -2 kappa (2 kappa + q) w (1-w) u / r^2,

which cancels the pure power u^(2*-1) exactly.  The same trick with
chi = (tau - tau1) - 2 kappa w yields stable derivatives of the weighted
profile r^tau u(r) for any tau.

numpy is imported inside the array evaluators, so building a ScalarProfile
(as classify does) loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ParameterError
from .params import ProblemParams, derived_constants

#: radii below this are rejected instead of returning infinities
MIN_RADIUS = 1e-300
#: largest relative spread of the last two Aitken extrapolants of a limit
LIMIT_RTOL = 1e-6


def _as_radii(r):
    """Validate positive radii; return (array, was_scalar)."""
    import numpy as np
    arr = np.asarray(r, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < MIN_RADIUS)):
        raise DomainError("radius must be finite and >= 1e-300")
    return arr, arr.ndim == 0


def _maybe_scalar(out, scalar):
    return float(out) if scalar else out


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
        object.__setattr__(self, "derived", derived_constants(self.params.n, self.params.gamma))

    # --- internal pieces -------------------------------------------------

    @property
    def _q(self) -> float:
        d = self.derived
        return 2.0 * d.kappa / d.delta

    def _w(self, r):
        """w = rho^q/(1+rho^q) and 1-w, rho = r/mu, both cancellation-free."""
        import numpy as np
        t = self._q * (np.log(r) - math.log(self.mu))
        return _sigmoid(t)

    def _log_value(self, r):
        import numpy as np
        d = self.derived
        rho_log = np.log(r) - math.log(self.mu)
        t = self._q * rho_log
        # log(1+rho^q) written to stay accurate on both sides of rho = 1
        log1p_term = np.where(t > 0, t + np.log1p(np.exp(-t)), np.log1p(np.exp(t)))
        log_amp = math.log(d.amplitude) - d.delta * math.log(self.mu)
        return log_amp - d.tau1 * rho_log - d.delta * log1p_term

    # --- public evaluators ------------------------------------------------

    def value(self, r):
        """Profile value, vectorized over positive radii."""
        import numpy as np
        arr, scalar = _as_radii(r)
        return _maybe_scalar(np.exp(self._log_value(arr)), scalar)

    def derivatives(self, r):
        """(u, u', u'') with exact closed-form radial derivatives.

        The weighted form at tau = 0, where chi = -phi exactly.
        """
        return self.weighted_derivatives(0.0, r)

    def linear_radial_part(self, r):
        """u'' + (n-1) u'/r + gamma u/r^2 via the collapsed closed form.

        The collapse removes the numerical cancellation among the three
        singular terms, so the result is accurate relative to u^(2*-1) even
        deep inside the r -> 0 regime.
        """
        import numpy as np
        arr, scalar = _as_radii(r)
        d = self.derived
        u = np.exp(self._log_value(arr))
        w, om = self._w(arr)
        coeff = -2.0 * d.kappa * (2.0 * d.kappa + self._q)
        return _maybe_scalar(coeff * w * om * u / (arr * arr), scalar)

    def weighted_derivatives(self, tau: float, r):
        """(g, g', g'') for g(r) = r^tau u(r), stable for any fixed tau.

        Assembling g' and g'' from u, u', u'' term by term loses up to eight
        digits near r -> 0 when tau = tau1; the chi-form below does not.
        """
        import numpy as np
        arr, scalar = _as_radii(r)
        d = self.derived
        u = np.exp(self._log_value(arr))
        g = np.power(arr, tau) * u
        w, om = self._w(arr)
        if tau - d.tau1 <= d.kappa:
            chi = (tau - d.tau1) - 2.0 * d.kappa * w
        else:
            # same value, written against the upper root so that w -> 1
            # (large radii) produces a product instead of a cancellation
            chi = (tau - d.tau2) + 2.0 * d.kappa * om
        g1 = g * chi / arr
        g2 = g * (chi * chi - chi - 2.0 * d.kappa * self._q * w * om) / (arr * arr)
        if scalar:
            return float(g), float(g1), float(g2)
        return g, g1, g2


def aubin_talenti_value(n: int, scale: float, r):
    """Radial Aubin-Talenti bubble (scale*sqrt(n(n-2)) / (scale^2+r^2))^((n-2)/2).

    Independent of ScalarProfile; used as a cross-check of the gamma = 0 case.
    """
    import numpy as np
    if scale <= 0:
        raise ParameterError("scale must be positive")
    arr, scalar = _as_radii(r)
    base = scale * math.sqrt(n * (n - 2.0)) / (scale * scale + arr * arr)
    return _maybe_scalar(np.power(base, (n - 2) / 2.0), scalar)


def kelvin_transform(u, n: int, r):
    """Radial Kelvin transform r^(2-n) * u(1/r); an involution."""
    import numpy as np
    arr, scalar = _as_radii(r)
    out = np.power(arr, 2.0 - n) * u(1.0 / arr)
    return _maybe_scalar(out, scalar)


def weighted_transform(u, tau: float, r):
    """Compensated profile r^tau * u(r)."""
    import numpy as np
    arr, scalar = _as_radii(r)
    return _maybe_scalar(np.power(arr, tau) * u(arr), scalar)


def scalar_equation_residual(profile: ScalarProfile, r):
    """Normalized residual of u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1) = 0.

    Normalization is by max(1, |u^(2*-1)|) pointwise.
    """
    import numpy as np
    arr, scalar = _as_radii(r)
    ts = profile.params.two_star
    u = profile.value(arr)
    nonlinear = np.power(u, ts - 1.0)
    res = np.abs(profile.linear_radial_part(arr) + nonlinear)
    return _maybe_scalar(res / np.maximum(1.0, np.abs(nonlinear)), scalar)


# --- translated singular weight ------------------------------------------


def hardy_weight(x, x0) -> float:
    """|x - x0 |x|^2|^2, the denominator produced by inverting the shifted pole."""
    import numpy as np
    xa = np.asarray(x, dtype=float)
    x0a = np.asarray(x0, dtype=float)
    if xa.shape != x0a.shape:
        raise DomainError(f"dimension mismatch: {xa.shape} vs {x0a.shape}")
    diff = xa - x0a * float(xa @ xa)
    return float(diff @ diff)


def hardy_weight_dx1(x, x0) -> float:
    """d/dx1 of the weight, valid when the pole offset has first coordinate 0.

    Equals 2 x1 (1 - 2 <x, x0> + 2 |x0|^2 |x|^2), which is nonnegative for
    x1 >= 0 (complete the square).
    """
    import numpy as np
    xa = np.asarray(x, dtype=float)
    x0a = np.asarray(x0, dtype=float)
    if xa.shape != x0a.shape:
        raise DomainError(f"dimension mismatch: {xa.shape} vs {x0a.shape}")
    if x0a[0] != 0.0:
        raise ParameterError("the offset must satisfy x0[0] == 0")
    xx = float(xa @ xa)
    return 2.0 * float(xa[0]) * (1.0 - 2.0 * float(xa @ x0a) + 2.0 * float(x0a @ x0a) * xx)


# --- asymptotic limits -----------------------------------------------------


@dataclass(frozen=True)
class AsymptoticData:
    """Limits of the compensated components at the origin and at infinity."""

    u0: float
    v0: float
    u_inf: float
    v_inf: float
    L_minus: float
    L_plus: float


def _aitken_limit(values, label: str) -> float:
    """Limit of a power-law sequence via Aitken acceleration.

    Falls back to the raw tail when the increments are already at roundoff.
    """
    import numpy as np
    vals = np.asarray(values, dtype=float)
    tail = float(vals[-1])
    diffs = np.diff(vals)
    if np.max(np.abs(diffs)) <= 1e-13 * max(1.0, abs(tail)):
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
        if spread > LIMIT_RTOL * max(1.0, abs(accel[-1])):
            raise ConvergenceError(
                f"{label}: extrapolants differ by {spread:.3e} "
                f"(> {LIMIT_RTOL:.1e} relative)"
            )
    return accel[-1]


def asymptotic_limits(family) -> AsymptoticData:
    """Estimate the limits of r^tau1 u at 0 and r^tau2 u at infinity.

    ``family`` provides (c1, c2, profile); the compensated values are sampled
    along r = 10^(-k) and r = 10^k for k = 4..8 and accelerated.
    The two quotient limits L_minus, L_plus follow from the component ratios.
    """
    import numpy as np
    prof = family.profile
    d = prof.derived
    ks = np.arange(4.0, 9.0)
    r_small = np.power(10.0, -ks)
    r_large = np.power(10.0, ks)
    near = np.power(r_small, d.tau1) * prof.value(r_small)
    far = np.power(r_large, d.tau2) * prof.value(r_large)
    base0 = _aitken_limit(near, "limit at the origin")
    base_inf = _aitken_limit(far, "limit at infinity")
    u0 = family.c1 * base0
    v0 = family.c2 * base0
    u_inf = family.c1 * base_inf
    v_inf = family.c2 * base_inf
    return AsymptoticData(u0=u0, v0=v0, u_inf=u_inf, v_inf=v_inf,
                          L_minus=u0 / v0, L_plus=u_inf / v_inf)
