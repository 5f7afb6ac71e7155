"""Reference implementations that only the tests use.

Each function here is an independent oracle or a statement of the theory that
a test checks the package against; no command of the package runs it.

* ``fd_derivative`` and ``convergence_order``: the finite-difference oracle
  for every analytic derivative, and the observed order of an error sequence.
* ``ef_rhs`` and ``ef_energy``: the phase-plane field and the first integral
  of its scalar case; ``exact_ef_solution``: the closed-form phase state at
  one log-radius, a start for integrations from the maximum.
* ``mirrored``: the shooting trace reflected at its turn, the whole orbit;
  ``simultaneous_max_check``: the interpolated argmax of each component.
* ``aubin_talenti_value``, ``linear_radial_part``,
  ``scalar_equation_residual``, ``kelvin_transform`` and
  ``weighted_transform``: the scalar profile from other directions.
* ``hardy_weight`` and ``hardy_weight_dx1``: the geometry of the translated
  singular weight.
* ``endpoint_signs``: the signs of the coupling function at 0+ and at
  infinity.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from hardysys import ConvergenceError, ParameterError, TrajectoryError
from hardysys.coupling import _merged_terms
from hardysys.emdenfowler import EFState, EFTrajectory, _closed_form_arrays
from hardysys.params import ProblemParams
from hardysys.profiles import ScalarProfile, _as_radii

# --- finite differences and convergence orders ---------------------------------


def fd_derivative(u, r: float, h: float, order: int = 1) -> float:
    """Centered finite difference of first or second order, error O(h^2).

    Used as the independent oracle against the analytic derivatives.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h <= 0:
        raise ParameterError("step must be positive")
    if r - 2 * h <= 0:
        raise ParameterError("stencil leaves the domain (need r - 2h > 0)")
    if order == 1:
        return (float(u(r + h)) - float(u(r - h))) / (2.0 * h)
    return (float(u(r + h)) - 2.0 * float(u(r)) + float(u(r - h))) / (h * h)


def convergence_order(errors) -> float:
    """Least-squares slope of log err versus log h.

    ``errors`` is a sequence of (h, err) pairs with h strictly decreasing.
    """
    pairs = list(errors)
    if len(pairs) < 3:
        raise ValueError("need at least three (h, err) points")
    h = np.asarray([q[0] for q in pairs], dtype=float)
    e = np.asarray([q[1] for q in pairs], dtype=float)
    if np.any(np.diff(h) >= 0):
        raise ValueError("step sizes must be strictly decreasing")
    if np.max(e) < 1e-14:
        raise ConvergenceError("all errors at the roundoff floor; order undefined")
    if np.any(e <= 0):
        raise ConvergenceError("nonpositive error entries; order undefined")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


# --- the phase-plane system ----------------------------------------------------


def ef_rhs(state: EFState, p: ProblemParams) -> tuple[float, float, float, float]:
    """(y_u', y_u'', y_v', y_v'') of the autonomous system at one state.

    The field that the hand-inlined DP5 kernel of ``integrate`` writes out at
    every stage; the kernel must match it bit for bit.
    """
    if state.y_u < 0 or state.y_v < 0:
        raise ParameterError(
            "negative component: fractional powers are undefined for y < 0"
        )
    kappa2 = p.delta * p.delta - p.gamma
    ts, alpha, beta, nu = p.two_star, p.alpha, p.beta, p.nu
    yu, yv = state.y_u, state.y_v
    fu = kappa2 * yu - yu ** (ts - 1.0)
    fv = kappa2 * yv - yv ** (ts - 1.0)
    if nu:
        fu -= nu * alpha * yu ** (alpha - 1.0) * yv ** beta
        fv -= nu * beta * yu ** alpha * yv ** (beta - 1.0)
    return state.p_u, fu, state.p_v, fv


def ef_energy(y: float, slope: float, p: ProblemParams) -> float:
    """First integral H = p^2/2 - kappa^2 y^2/2 + y^(2*)/2* of the scalar case.

    Constant along nu = 0 trajectories and identically zero on the homoclinic
    orbit; ``full_verification`` sums the same three terms for its
    ``energy_invariant`` check.
    """
    kappa2, ts = p.delta * p.delta - p.gamma, p.two_star
    return 0.5 * slope * slope - 0.5 * kappa2 * y * y + y ** ts / ts


def exact_ef_solution(fam, t: float) -> EFState:
    """Closed-form phase state of a synchronized family at log-radius t."""
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFState(y_u=float(y_u), p_u=float(p_u), y_v=float(y_v), p_v=float(p_v))


def mirrored(half: EFTrajectory, t0: float) -> EFTrajectory:
    """``half`` reflected at its turn (t and y' odd, y even), shifted to peak at t0.

    The field is reversible, so the shooting trace of ``shoot_synchronized``,
    which ends at its turn at t = 0, is half of the whole orbit.
    """
    def reflect(col, sign):
        return np.concatenate([col, sign * col[-2::-1]])

    return replace(half, t=t0 + reflect(half.t, -1.0),
                   y_u=reflect(half.y_u, 1.0), p_u=reflect(half.p_u, -1.0),
                   y_v=reflect(half.y_v, 1.0), p_v=reflect(half.p_v, -1.0))


def _parabolic_argmax(t: np.ndarray, y: np.ndarray) -> float:
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        raise TrajectoryError("maximum on trajectory boundary")
    dl = t[i] - t[i - 1]
    dr = t[i] - t[i + 1]
    num = dl * dl * (y[i] - y[i + 1]) - dr * dr * (y[i] - y[i - 1])
    den = dl * (y[i] - y[i + 1]) - dr * (y[i] - y[i - 1])
    if den == 0.0:
        return float(t[i])
    return float(t[i] - 0.5 * num / den)


def simultaneous_max_check(traj: EFTrajectory) -> tuple[float, float]:
    """Interpolated argmax locations of y_u and y_v."""
    if traj.t.size < 3:
        raise TrajectoryError("trajectory too short for an interior maximum")
    return (_parabolic_argmax(traj.t, traj.y_u),
            _parabolic_argmax(traj.t, traj.y_v))


# --- the scalar profile --------------------------------------------------------


def aubin_talenti_value(n: int, scale: float, r):
    """Radial Aubin-Talenti bubble (scale*sqrt(n(n-2)) / (scale^2+r^2))^((n-2)/2).

    Independent of ScalarProfile; used as a cross-check of the gamma = 0 case.
    """
    if scale <= 0:
        raise ParameterError("scale must be positive")
    arr = _as_radii(r)
    base = scale * math.sqrt(n * (n - 2.0)) / (scale * scale + arr * arr)
    return np.power(base, (n - 2) / 2.0)


def linear_radial_part(profile: ScalarProfile, r):
    """u'' + (n-1) u'/r + gamma u/r^2 of the profile, via the collapsed form.

    With w = r^q / (1 + r^q) the three singular terms collapse algebraically
    to -2 kappa (2 kappa + q) w (1-w) u / r^2, which cancels the pure power
    u^(2*-1) exactly.  The collapse removes the numerical cancellation among
    the three terms, so the result is accurate relative to u^(2*-1) even deep
    inside the r -> 0 regime.
    """
    arr = _as_radii(r)
    kappa = profile.params.kappa
    u = np.exp(profile._log_value(arr))
    w, om = profile._w(arr)
    coeff = -2.0 * kappa * (2.0 * kappa + profile._q)
    return coeff * w * om * u / (arr * arr)


def scalar_equation_residual(profile: ScalarProfile, r):
    """Normalized residual of u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1) = 0.

    Normalization is by max(1, |u^(2*-1)|) pointwise.
    """
    arr = _as_radii(r)
    ts = profile.params.two_star
    u = profile.value(arr)
    nonlinear = np.power(u, ts - 1.0)
    res = np.abs(linear_radial_part(profile, arr) + nonlinear)
    return res / np.maximum(1.0, np.abs(nonlinear))


def kelvin_transform(u, n: int, r):
    """Radial Kelvin transform r^(2-n) * u(1/r); an involution."""
    arr = _as_radii(r)
    return np.power(arr, 2.0 - n) * u(1.0 / arr)


def weighted_transform(u, tau: float, r):
    """Compensated profile r^tau * u(r)."""
    arr = _as_radii(r)
    return np.power(arr, tau) * u(arr)


# --- translated singular weight ------------------------------------------------
# The paper proves symmetry by moving planes.  After the inversion
# x -> x/|x|^2, a pole shifted to x0 leaves the weight below.  With x0[0] = 0
# it is even in x1 and nondecreasing for x1 >= 0, which is what moving the
# planes {x1 = const} needs.


def hardy_weight(x, x0) -> float:
    """|x - x0 |x|^2|^2, the denominator produced by inverting the shifted pole."""
    xa = np.asarray(x, dtype=float)
    x0a = np.asarray(x0, dtype=float)
    if xa.shape != x0a.shape:
        raise ParameterError(f"dimension mismatch: {xa.shape} vs {x0a.shape}")
    diff = xa - x0a * float(xa @ xa)
    return float(diff @ diff)


def hardy_weight_dx1(x, x0) -> float:
    """d/dx1 of the weight, valid when the pole offset has first coordinate 0.

    Equals 2 x1 (1 - 2 <x, x0> + 2 |x0|^2 |x|^2), which is nonnegative for
    x1 >= 0 (complete the square).
    """
    xa = np.asarray(x, dtype=float)
    x0a = np.asarray(x0, dtype=float)
    if xa.shape != x0a.shape:
        raise ParameterError(f"dimension mismatch: {xa.shape} vs {x0a.shape}")
    if x0a[0] != 0.0:
        raise ParameterError("the offset must satisfy x0[0] == 0")
    xx = float(xa @ xa)
    return 2.0 * float(xa[0]) * (1.0 - 2.0 * float(xa @ x0a) + 2.0 * float(x0a @ x0a) * xx)


# --- the coupling function -----------------------------------------------------


def endpoint_signs(p: ProblemParams) -> tuple[int, int]:
    """Signs of f near 0+ and near infinity: those of its lowest and highest
    merged coefficients, or (0, 0) when f vanishes identically (e.g. alpha =
    beta = 2 at nu = 1/2)."""
    coefs, _ = _merged_terms(p)
    if not coefs:
        return 0, 0
    return (1 if coefs[0] > 0 else -1), (1 if coefs[-1] > 0 else -1)
