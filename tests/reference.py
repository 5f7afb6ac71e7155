"""Reference implementations that only the tests use.

Each function here is an independent oracle or a statement of the theory that
a test checks the package against; no command of the package runs it.

* ``fd_derivative`` and ``convergence_order``: the finite-difference oracle
  for every analytic derivative, and the observed order of an error sequence.
* ``ef_rhs`` and ``ef_energy``: the phase-plane field, the oracle of
  ``_field``, and the first integral of its scalar case; ``DP5_A``,
  ``DP5_B``, ``DP5_E`` and ``dp5_table_step``: the Dormand-Prince tableau,
  exact, and one step of it in table form on ``ef_rhs``, the oracle of the
  Nystrom kernel of ``integrate``;
  ``closed_form_arrays`` and ``closed_form_accel``: the
  closed-form trajectory and its second derivative, written in
  theta = kappa (t - log mu) / delta; ``exact_ef_solution``: the closed-form
  phase state at one log-radius, a start for integrations from the maximum;
  ``bounded_units`` and ``bounded_closed_form``: the profile's bounded units
  and the package's closed form on log rho as numpy arrays, read through
  ``ScalarProfile._bounded_units``, so that a profile subclass that skews
  them reaches every array built from them;
  ``exact_trajectory``: the package's closed form, its bits, sampled on log
  radii as an ``EFTrajectory``, the comparator of the trajectory diagnostics;
  ``phase_plane_residual``: the phase-plane equations summed term by term in
  t, the oracle of the bounded ``ef_system_residual``.
* ``manifold_coefficients`` and ``manifold_series_start``: the series of the
  ray's unstable manifold built from the ODE alone (the parametrisation
  method) and the shooting start summed from it, the oracle of the closed
  form in ``_manifold_start``.
* ``mirrored``: the shooting trace reflected at its turn, the whole orbit;
  ``simultaneous_max_check``: the interpolated argmax of each component.
* ``log_values`` and ``profile_value``: ``ScalarProfile._log_values`` over an
  array of radii, and the scalar profile's value u_mu(r); ``aubin_talenti_value``,
  ``linear_radial_part``, ``scalar_equation_residual``, ``kelvin_transform``
  and ``weighted_transform``: the scalar profile from other directions.
* ``weighted_derivatives`` and ``r_space_residual``: the radial encodings
  evaluated in r, term by term with powers of r, the oracle of the bounded
  residuals of ``emdenfowler``; ``max_normalized``: the stacked form of
  their pointwise normalization; ``LOG_RHO_GRID``, ``encoding_residual`` and
  ``all_terms_residual``: the grid of the closed-form residual, and the
  array form of ``_encoding_residual`` from ``bounded_units``, under its own
  normalization and under max(1, |terms|) over all five terms, the scale
  that its own never exceeds.
* ``hardy_weight`` and ``hardy_weight_dx1``: the geometry of the translated
  singular weight.
* ``endpoint_signs``: the signs of the coupling function at 0+ and at
  infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np

from hardysys import ParameterError
from hardysys.coupling import _merged_terms
from hardysys.emdenfowler import EFState, EFTrajectory, _RHO0, _manifold_coordinate
from hardysys.params import ProblemParams
from hardysys.profiles import MIN_RADIUS, ScalarProfile, _closed_form_arrays

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
        raise ValueError("all errors at the roundoff floor; order undefined")
    if np.any(e <= 0):
        raise ValueError("nonpositive error entries; order undefined")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


# --- the phase-plane system ----------------------------------------------------


def ef_rhs(state: EFState, p: ProblemParams) -> tuple[float, float, float, float]:
    """(y_u', y_u'', y_v', y_v'') of the autonomous system at one state.

    The oracle of ``_field``, the field that the first stage of ``integrate``
    and both ends of the shot's last step call, and that its stages 2 to 7
    form inline with the same operations: those form the coupling from one
    product y_u^(alpha-1) y_v^(beta-1) and clamp a negative component at
    zero, where this forms it factor by factor and refuses one.
    ``dp5_table_step`` steps on it.
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
    orbit, where it restates the closed form (no report row reads it).
    """
    kappa2, ts = p.delta * p.delta - p.gamma, p.two_star
    return 0.5 * slope * slope - 0.5 * kappa2 * y * y + y ** ts / ts


# Dormand-Prince 5(4) in table form, exact: the rows of A, the 5th-order
# weights b and the error weights e = b - b_hat, whose 7th entry weighs the
# field at the new point (FSAL).
DP5_A = (
    (),
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
)
DP5_B = (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84))
DP5_E = (F(71, 57600), F(0), F(-71, 16695), F(71, 1920), F(-17253, 339200),
         F(22, 525), F(-1, 40))


def dp5_table_step(state: EFState, h: float, p: ProblemParams):
    """One DP5 step of the first-order system, the table form y + h sum_j a_ij k_j.

    k_j is ``ef_rhs`` at the stage state, with its components clamped at zero
    (trial stages may dip below zero).  Returns the 5th-order state and the
    embedded error estimate (err_y_u, err_p_u, err_y_v, err_p_v).  The same
    method as the Nystrom kernel of ``integrate``, written without using
    that the field never reads y'; its oracle.
    """
    y = (state.y_u, state.p_u, state.y_v, state.p_v)

    def k(z):
        return ef_rhs(EFState(max(z[0], 0.0), z[1], max(z[2], 0.0), z[3]), p)

    def combine(weights, ks):
        return tuple(y[c] + h * sum(float(w) * kj[c] for w, kj in zip(weights, ks))
                     for c in range(4))

    ks = [k(y)]
    for row in DP5_A[1:]:
        ks.append(k(combine(row, ks)))
    new = combine(DP5_B, ks)
    ks.append(k(new))
    err = tuple(h * sum(float(w) * kj[c] for w, kj in zip(DP5_E, ks)) for c in range(4))
    return EFState(*new), err


def _theta_form(fam, t):
    """(theta, log 2cosh theta, A (2 cosh theta)^(-delta)), stable for any |t|.

    theta = kappa (t - t0) / delta with t0 = log mu.
    """
    p = fam.profile.params
    t = np.asarray(t, dtype=float)
    theta = p.kappa * (t - math.log(fam.profile.mu)) / p.delta
    # log(2 cosh theta) = |theta| + log1p(exp(-2|theta|))
    log2cosh = np.abs(theta) + np.log1p(np.exp(-2.0 * np.abs(theta)))
    return theta, log2cosh, p.amplitude * np.exp(-p.delta * log2cosh)


def closed_form_arrays(fam, t):
    """(y_u, p_u, y_v, p_v) of the closed form y(t) = c A (2 cosh theta)^(-delta)."""
    theta, _, base = _theta_form(fam, t)
    slope = -fam.profile.params.kappa * np.tanh(theta)
    y_u = fam.c1 * base
    y_v = fam.c2 * base
    return y_u, slope * y_u, y_v, slope * y_v


def closed_form_accel(fam, t):
    """Second derivatives (y_u'', y_v'') of the closed form."""
    p = fam.profile.params
    theta, log2cosh, base = _theta_form(fam, t)
    sech2 = np.exp(-2.0 * log2cosh) * 4.0
    tanh2 = np.tanh(theta) ** 2
    curv = p.kappa ** 2 * (tanh2 - sech2 / p.delta)
    return fam.c1 * base * curv, fam.c2 * base * curv


def exact_ef_solution(fam, t: float) -> EFState:
    """Closed-form phase state of a synchronized family at log-radius t."""
    y_u, p_u, y_v, p_v = closed_form_arrays(fam, t)
    return EFState(y_u=float(y_u), p_u=float(p_u), y_v=float(y_v), p_v=float(p_v))


def bounded_units(profile: ScalarProfile, log_rho):
    """Arrays (w, 1 - w, log y) at each log rho, by ``profile._bounded_units``.

    w and 1 - w are ``math.exp`` of the logs that it returns, the bits that
    the package's closed form and residuals read.
    """
    log_w, log_om, log_y = profile._bounded_units(
        np.asarray(log_rho, dtype=float).ravel().tolist())
    return (np.array([math.exp(x) for x in log_w]), np.array([math.exp(x) for x in log_om]),
            np.array(log_y, dtype=float))


def bounded_closed_form(fam, log_rho):
    """Arrays (y_u, p_u, y_v, p_v) of ``_closed_form_arrays`` at ``log_rho``, in numpy.

    The same formulas on the same units, y = c e^(log y) and
    y' = kappa (1 - 2w) y; only numpy's exp may round differently.
    """
    w, om, log_y = bounded_units(fam.profile, log_rho)
    base, slope = np.exp(log_y), fam.profile.params.kappa * (om - w)
    y_u, y_v = fam.c1 * base, fam.c2 * base
    return y_u, slope * y_u, y_v, slope * y_v


def exact_trajectory(fam, t_grid) -> EFTrajectory:
    """The closed form on log radii t: ``_closed_form_arrays`` at log rho = t - log mu,
    its bits, as arrays."""
    t = np.asarray(t_grid, dtype=float)
    y_u, p_u, y_v, p_v = map(np.array, _closed_form_arrays(
        fam, (t - math.log(fam.profile.mu)).tolist()))
    return EFTrajectory(t=t, y_u=y_u, p_u=p_u, y_v=y_v, p_v=p_v,
                        accepted=0, rejected=0, termination="completed")


def phase_plane_residual(fam, t_grid) -> tuple[float, float]:
    """Max normalized residual of the phase-plane encoding on a log-radius grid.

    Each equation y'' - kappa^2 y + y^(2*-1) + coupling is summed term by
    term from the theta form at t = log r and normalized pointwise by
    max(1, |terms|).
    """
    p = fam.profile.params
    kappa2 = p.delta * p.delta - p.gamma
    ts, alpha, beta, nu = p.two_star, p.alpha, p.beta, p.nu
    t = np.asarray(t_grid, dtype=float)
    y_u, _, y_v, _ = closed_form_arrays(fam, t)
    a_u, a_v = closed_form_accel(fam, t)
    return tuple(max_normalized((
        acc,
        -kappa2 * y_own,
        np.power(y_own, ts - 1.0),
        factor * np.power(y_own, e_own) * np.power(y_oth, e_oth),
    )) for acc, y_own, y_oth, e_own, e_oth, factor in (
        (a_u, y_u, y_v, alpha - 1.0, beta, nu * alpha),
        (a_v, y_v, y_u, beta - 1.0, alpha, nu * beta)))


def manifold_coefficients(two_star: float, w: float) -> list[float]:
    """Series of log(Z(x)/x) in w = x^m, Z the manifold of z'' = kappa^2 (z - z^(2*-1)).

    The unstable manifold is z = Z(x e^(kappa t)), Z(x) = x exp(G(x^m)),
    m = 2* - 2.  In the ODE, 2 m theta G + m^2 (theta^2 G + (theta G)^2) =
    -w exp(m G), theta = w d/dw, so G = sum_k g_k w^k has (the
    parametrisation method, from the ODE alone)

        g_k = -(e_(k-1) + m^2 sum_(i<k) i (k-i) g_i g_(k-i)) / ((1 + k m)^2 - 1),

    e_k the coefficients of exp(m G) by J. C. P. Miller's recurrence.
    G = -(2/m) log(1 + rho), rho = w / (2 2*), so its terms shrink by rho
    for every n: about 30 terms at the shooting start, rho = 1/4.  Both
    sums add terms of one sign; the series of Z itself alternates, with
    terms adding up to ((1 + rho) / (1 - rho))^(2/m) times its sum (2.1e5 at
    n = 50 and 2.6e16 at n = 150, rho = 1/4).  Returns [0, g_1, ..., g_K],
    to the first term (1 + k m) g_k w^k below roundoff.
    """
    m = two_star - 2.0
    logs, exps = [0.0], [1.0]  # g_k and e_k
    term = 1.0
    while abs(term) > 1e-17:
        k = len(logs)
        order = 1.0 + k * m
        cross = math.fsum(i * (k - i) * logs[i] * logs[k - i] for i in range(1, k))
        logs.append(-(exps[k - 1] + m * m * cross) / (order * order - 1.0))
        exps.append(m / k * math.fsum(i * logs[i] * exps[k - i] for i in range(1, k + 1)))
        term = order * logs[k] * w ** k
    return logs


def manifold_series_start(p: ProblemParams, s: float, logs=None) -> EFState:
    """The shooting start of the ray y_v = y_u / s with Z summed from its series.

    y_u = y_eq Z(x0) and y_u' = kappa y_eq x0 Z'(x0) at w = x0^m = 2 2* rho0,
    from the coefficients ``logs`` (by default ``manifold_coefficients``),
    G and m theta G by Horner in w.
    """
    m = p.two_star - 2.0
    w = 2.0 * p.two_star * _RHO0
    if logs is None:
        logs = manifold_coefficients(p.two_star, w)
    g = dg = 0.0  # G(w) and m theta G(w)
    for k in range(len(logs) - 1, 0, -1):
        g = (g + logs[k]) * w
        dg = (dg + m * k * logs[k]) * w
    x_u = _manifold_coordinate(p, s)
    y0 = x_u * math.exp(g)
    slope = p.kappa * y0 * (1.0 + dg)
    return EFState(y_u=y0, p_u=slope, y_v=y0 / s, p_v=slope / s)


def mirrored(half: EFTrajectory, t0: float) -> EFTrajectory:
    """``half`` reflected at its turn (t and y' odd, y even), shifted to peak at t0.

    The field is reversible, so the shooting trace of ``shoot_synchronized``,
    which ends at its turn at t = 0, is half of the whole orbit.  The
    mirrored fields are arrays.
    """
    def reflect(col, sign):
        col = np.asarray(col)
        return np.concatenate([col, sign * col[-2::-1]])

    return EFTrajectory(t=t0 + reflect(half.t, -1.0),
                        y_u=reflect(half.y_u, 1.0), p_u=reflect(half.p_u, -1.0),
                        y_v=reflect(half.y_v, 1.0), p_v=reflect(half.p_v, -1.0),
                        accepted=half.accepted, rejected=half.rejected,
                        termination=half.termination)


def _parabolic_argmax(t: np.ndarray, y: np.ndarray) -> float:
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        raise ValueError("maximum on trajectory boundary")
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
        raise ValueError("trajectory too short for an interior maximum")
    return (_parabolic_argmax(traj.t, traj.y_u),
            _parabolic_argmax(traj.t, traj.y_v))


# --- the scalar profile --------------------------------------------------------


def _as_radii(r):
    """Validate positive radii; return them as a float array."""
    arr = np.asarray(r, dtype=float)
    # a NaN makes both comparisons false
    if arr.size and not (arr.min() >= MIN_RADIUS and arr.max() < math.inf):
        raise ParameterError("radius must be finite and >= 1e-300")
    return arr


def log_values(profile: ScalarProfile, r):
    """log u_mu(r), ``profile._log_values`` at each of the radii ``r``, as an array."""
    arr = np.asarray(r, dtype=float)
    return np.array(profile._log_values(arr.reshape(-1).tolist()),
                    dtype=float).reshape(arr.shape)


def profile_value(profile: ScalarProfile, r):
    """u_mu(r) of ``profile``, vectorized over positive radii."""
    return np.exp(log_values(profile, _as_radii(r)))


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
    u = np.exp(log_values(profile, arr))
    w, om = profile_w(profile, arr)
    coeff = -2.0 * kappa * (2.0 * kappa + profile._q)
    return coeff * w * om * u / (arr * arr)


def profile_w(profile: ScalarProfile, r):
    """w = rho^q/(1+rho^q) and 1-w, rho = r/mu, by a sigmoid that never overflows."""
    t = profile._q * (np.log(r) - math.log(profile.mu))
    pos = t >= 0
    et = np.exp(np.where(pos, -t, t))
    w = np.where(pos, 1.0 / (1.0 + et), et / (1.0 + et))
    return w, 1.0 - w


def weighted_derivatives(profile: ScalarProfile, tau: float, r):
    """(g, g', g'') for g(r) = r^tau u(r), stable for any fixed tau.

    At tau = 0 these are (u, u', u''), with chi = -phi exactly.
    Assembling g' and g'' from u, u', u'' term by term loses up to eight
    digits near r -> 0 when tau = tau1; the chi-form below does not.
    """
    arr = _as_radii(r)
    p = profile.params
    u = np.exp(log_values(profile, arr))
    g = np.power(arr, tau) * u
    w, om = profile_w(profile, arr)
    if tau - p.tau1 <= p.kappa:
        chi = (tau - p.tau1) - 2.0 * p.kappa * w
    else:
        # same value, written against the upper root so that w -> 1
        # (large radii) produces a product instead of a cancellation
        chi = (tau - p.tau2) + 2.0 * p.kappa * om
    g1 = g * chi / arr
    g2 = g * (chi * chi - chi - 2.0 * p.kappa * profile._q * w * om) / (arr * arr)
    return g, g1, g2


def max_normalized(terms) -> float:
    """max over the grid of |t1 + t2 + ...| / max(1, |t1|, |t2|, ...), stacked."""
    total = sum(terms[1:], terms[0])  # ((t1 + t2) + t3) + ...
    scale = np.maximum.reduce([np.ones_like(terms[0])] + [np.abs(t) for t in terms])
    return float(np.max(np.abs(total) / scale))


#: log rho = log(r/mu0) of the closed-form residual, rho log-uniform over [1e-6, 1e6]
LOG_RHO_GRID = np.log(np.geomspace(1e-6, 1e6, 2048))


def _chi_and_y_m(fam, tau: float, units):
    """(chi, y^m) at tau from ``units``, chi written against the root tau lies nearer to."""
    p = fam.profile.params
    w, om, log_y = units
    if tau - p.tau1 <= p.kappa:
        chi = (tau - p.tau1) - 2.0 * p.kappa * w
    else:
        chi = (tau - p.tau2) + 2.0 * p.kappa * om
    return chi, np.exp((p.two_star - 2.0) * log_y)


def _coefficients(fam):
    """(c^m, coupled coefficient) of each equation: the u one, then the v one."""
    p = fam.profile.params
    m, c1, c2 = p.two_star - 2.0, fam.c1, fam.c2
    return ((c1 ** m, p.nu * p.alpha * c1 ** (p.alpha - 2.0) * c2 ** p.beta),
            (c2 ** m, p.nu * p.beta * c1 ** p.alpha * c2 ** (p.beta - 2.0)))


def encoding_residual(fam, tau: float, potential: float, units) -> tuple[float, float]:
    """``_encoding_residual`` on arrays, in its order of operations.

    ``units`` is ``bounded_units(fam.profile, log_rho)``.  Each equation's
    sum is normalized pointwise by max(1, c^m y^m, coupled term).
    """
    p = fam.profile.params
    w, om, _ = units
    chi, y_m = _chi_and_y_m(fam, tau, units)
    head = (chi * chi - chi - 2.0 * p.kappa * fam.profile._q * w * om
            + (p.n - 1.0 - 2.0 * tau) * chi + potential)
    return tuple(float(np.max(np.abs(head + (own + coupled) * y_m)
                              / np.maximum(max(own, coupled) * y_m, 1.0)))
                 for own, coupled in _coefficients(fam))


def all_terms_residual(fam, tau: float, potential: float, units) -> tuple[float, float]:
    """The bounded encoding at tau, normalized by max(1, |terms|) over all five terms.

    The terms are those of ``encoding_residual``; its normalizer leaves out
    the three that carry no constant, so it is pointwise at most this one,
    and its value at least this one's, up to rounding.
    """
    p = fam.profile.params
    w, om, _ = units
    chi, y_m = _chi_and_y_m(fam, tau, units)
    head = (chi * chi - chi - 2.0 * p.kappa * fam.profile._q * w * om,
            (p.n - 1.0 - 2.0 * tau) * chi, np.full_like(w, potential))
    return tuple(max_normalized(head + (own * y_m, coupled * y_m))
                 for own, coupled in _coefficients(fam))


def r_space_residual(fam, tau: float, potential: float, r) -> tuple[float, float]:
    """Max normalized residual of the encoding for g = r^tau u, in r.

    Each equation g'' + (n-1-2 tau) g'/r + potential g/r^2
    + r^(-(2*-2) tau) (g^(2*-1) + coupling) is summed term by term at the
    radii ``r`` (not relative to the family's scale) and normalized
    pointwise by max(1, |terms|).  Its terms overflow at large n, where
    ``radial_system_residual`` and ``weighted_system_residual`` stay bounded.
    """
    arr = _as_radii(r)
    p = fam.profile.params
    ts = p.two_star
    g, g1, g2 = weighted_derivatives(fam.profile, tau, arr)
    weight = np.power(arr, -(ts - 2.0) * tau)
    return tuple(max_normalized((
        c_own * g2,
        (p.n - 1.0 - 2.0 * tau) * c_own * g1 / arr,
        potential * c_own * g / (arr * arr),
        weight * np.power(c_own * g, ts - 1.0),
        weight * factor * np.power(c_own * g, e_own) * np.power(c_oth * g, e_oth),
    )) for c_own, c_oth, e_own, e_oth, factor in (
        (fam.c1, fam.c2, p.alpha - 1.0, p.beta, p.nu * p.alpha),
        (fam.c2, fam.c1, p.beta - 1.0, p.alpha, p.nu * p.beta)))


def scalar_equation_residual(profile: ScalarProfile, r):
    """Normalized residual of u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1) = 0.

    Normalization is by max(1, |u^(2*-1)|) pointwise.
    """
    arr = _as_radii(r)
    ts = profile.params.two_star
    u = profile_value(profile, arr)
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
