"""Log-radius phase-plane form of the radial system.

With y(t) = r^delta u(r), t = log r, the radial system becomes the autonomous
pair

    y_u'' = (delta^2 - gamma) y_u - y_u^(2*-1) - nu alpha y_u^(alpha-1) y_v^beta
    y_v'' = (delta^2 - gamma) y_v - y_v^(2*-1) - nu beta  y_u^alpha y_v^(beta-1)

whose positive decaying orbits are homoclinic loops of the origin with
exponential rate kappa = sqrt(delta^2 - gamma).  This module provides the
closed-form synchronized trajectories, an embedded Dormand-Prince 5(4)
integrator with error-per-unit-step control (global error scales like
tol^(5/4), i.e. better than a factor 16 per tolerance decade), shooting
recovery of the homoclinic amplitude, and residual checks of all three
radial encodings of one and the same solution.

Shooting is an oracle independent of the closed form: each trial integrates
from a symmetric maximum (a, 0, a/s, 0) to its first event, a rebound or a
zero crossing, and scores it by a signed miss m (kappa times the minimum of
y_u, or the slope y_u' at the crossing).  Bracketed regula falsi with the
Illinois-type end scaling on m |m|, which is nearly linear in a, stops once
the bracket around the homoclinic amplitude is rel_width * hi wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, DomainError, IntegrationError,
                     ParameterError, TrajectoryError)
from .coupling import SynchronizedFamily, CouplingRoot, coupling_f, _f_scale
from .params import ProblemParams

BLOWUP_THRESHOLD = 1e8
MIN_STEP = 1e-14
MAX_STEP = 1.0


@dataclass(frozen=True)
class EFState:
    """Phase state (t, y_u, y_u', y_v, y_v') at one log-radius."""

    t: float
    y_u: float
    p_u: float
    y_v: float
    p_v: float


@dataclass
class EFTrajectory:
    """An integrated (or closed-form) trajectory with step statistics."""

    t: np.ndarray
    y_u: np.ndarray
    p_u: np.ndarray
    y_v: np.ndarray
    p_v: np.ndarray
    accepted: int
    rejected: int
    termination: str  # 'completed' | 'blowup' | 'extinction'

    @property
    def states(self) -> list[EFState]:
        return [EFState(*vals) for vals in
                zip(self.t, self.y_u, self.p_u, self.y_v, self.p_v)]

    def write_csv(self, fh) -> None:
        """Columns t, y_u, p_u, y_v, p_v at 17 significant digits."""
        fh.write("t,y_u,p_u,y_v,p_v\n")
        for vals in zip(self.t, self.y_u, self.p_u, self.y_v, self.p_v):
            fh.write(",".join("%.17g" % v for v in vals) + "\n")


def _system_constants(p: ProblemParams):
    d = p.derived()
    kappa2 = d.delta * d.delta - p.gamma
    return kappa2, p.two_star, p.alpha, p.beta, p.nu


def ef_rhs(state: EFState, p: ProblemParams) -> tuple[float, float, float, float]:
    """(y_u', y_u'', y_v', y_v'') of the autonomous system at one state."""
    if state.y_u < 0 or state.y_v < 0:
        raise DomainError(
            "negative component: fractional powers are undefined for y < 0"
        )
    kappa2, ts, alpha, beta, nu = _system_constants(p)
    yu, yv = state.y_u, state.y_v
    fu = kappa2 * yu - yu ** (ts - 1.0)
    fv = kappa2 * yv - yv ** (ts - 1.0)
    if nu:
        fu -= nu * alpha * yu ** (alpha - 1.0) * yv ** beta
        fv -= nu * beta * yu ** alpha * yv ** (beta - 1.0)
    return state.p_u, fu, state.p_v, fv


# --- closed-form synchronized trajectories ---------------------------------


def _closed_form_arrays(fam: SynchronizedFamily, t):
    """(y_u, p_u, y_v, p_v) of the closed form, stable for any |t|.

    y(t) = c A (2 cosh(kappa (t - t0)/delta))^(-delta) with t0 = log mu.
    """
    d = fam.profile.derived
    t = np.asarray(t, dtype=float)
    s = t - math.log(fam.profile.mu)
    theta = d.kappa * s / d.delta
    # log(2 cosh theta) = |theta| + log1p(exp(-2|theta|))
    log2cosh = np.abs(theta) + np.log1p(np.exp(-2.0 * np.abs(theta)))
    base = (fam.profile.derived.amplitude * fam.profile.amplitude_factor
            * np.exp(-d.delta * log2cosh))
    slope = -d.kappa * np.tanh(theta)
    y_u = fam.c1 * base
    y_v = fam.c2 * base
    return y_u, slope * y_u, y_v, slope * y_v


def _closed_form_accel(fam: SynchronizedFamily, t):
    """Second derivatives (y_u'', y_v'') of the closed form."""
    d = fam.profile.derived
    t = np.asarray(t, dtype=float)
    s = t - math.log(fam.profile.mu)
    theta = d.kappa * s / d.delta
    log2cosh = np.abs(theta) + np.log1p(np.exp(-2.0 * np.abs(theta)))
    sech2 = np.exp(-2.0 * log2cosh) * 4.0
    tanh2 = np.tanh(theta) ** 2
    base = (fam.profile.derived.amplitude * fam.profile.amplitude_factor
            * np.exp(-d.delta * log2cosh))
    curv = d.kappa ** 2 * (tanh2 - sech2 / d.delta)
    return fam.c1 * base * curv, fam.c2 * base * curv


def exact_ef_solution(fam: SynchronizedFamily, t: float) -> EFState:
    """Closed-form phase state of a synchronized family at log-radius t."""
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFState(t=float(t), y_u=float(y_u), p_u=float(p_u),
                   y_v=float(y_v), p_v=float(p_v))


def exact_trajectory(fam: SynchronizedFamily, t_grid) -> EFTrajectory:
    """Closed-form trajectory sampled on an explicit grid."""
    t = np.asarray(t_grid, dtype=float)
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFTrajectory(t=t, y_u=y_u, p_u=p_u, y_v=y_v, p_v=p_v,
                        accepted=0, rejected=0, termination="completed")


def ef_energy(y: float, slope: float, p: ProblemParams) -> float:
    """First integral H = p^2/2 - kappa^2 y^2/2 + y^(2*)/2* of the scalar case.

    Constant along nu = 0 trajectories and identically zero on the homoclinic
    orbit.
    """
    kappa2, ts, _, _, _ = _system_constants(p)
    return 0.5 * slope * slope - 0.5 * kappa2 * y * y + y ** ts / ts


# --- adaptive integration ----------------------------------------------------

# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated (FSAL).
_A2 = (1 / 5,)
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate(initial: EFState, t_span: tuple[float, float], p: ProblemParams,
              tol: float = 1e-10, blowup_threshold: float = BLOWUP_THRESHOLD,
              max_steps: int = 2_000_000, stop=None) -> EFTrajectory:
    """Integrate the phase system with an embedded 5(4) pair.

    Error control is per unit step: a step of size h is accepted when the
    embedded estimate satisfies ||err/scale|| <= tol * h, which makes the
    global error scale like tol^(5/4).  Backward spans integrate the
    time-reversed field (flip the derivative components) so there is a single
    forward code path.  Termination is 'completed', or 'blowup' when a
    component magnitude passes ``blowup_threshold``, or 'extinction' when a
    component goes negative (the state is clamped at zero and reported).

    ``stop(t, y_u, p_u, y_v, p_v)`` is an optional early-exit predicate
    evaluated after every accepted step; a truthy value ends the run with
    termination 'completed'.  The initial state and ``t_span`` are read as
    Python floats.
    """
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    for name in ("y_u", "p_u", "y_v", "p_v"):
        if not math.isfinite(getattr(initial, name)):
            raise ParameterError("initial state must be finite")

    t0, t1 = float(t_span[0]), float(t_span[1])
    backward = t1 < t0
    span = abs(t1 - t0)
    sign = -1.0 if backward else 1.0

    kappa2, ts, alpha, beta, nu = _system_constants(p)
    e1 = ts - 1.0
    ea = alpha - 1.0
    eb = beta - 1.0
    nua = nu * alpha
    nub = nu * beta

    def accel(yu, yv):
        # trial stage values may dip below zero; clamp them for the powers
        if yu < 0.0:
            yu = 0.0
        if yv < 0.0:
            yv = 0.0
        fu = kappa2 * yu - yu ** e1
        fv = kappa2 * yv - yv ** e1
        if nua:
            fu -= nua * yu ** ea * yv ** beta
            fv -= nub * yu ** alpha * yv ** eb
        return fu, fv

    # forward-time state; derivative components flipped for backward spans.
    # Python floats: numpy scalars would make every step about twice as slow
    yu, pu = float(initial.y_u), sign * float(initial.p_u)
    yv, pv = float(initial.y_v), sign * float(initial.p_v)

    ss = [0.0]
    yus, pus, yvs, pvs = [yu], [pu], [yv], [pv]
    accepted = rejected = 0
    termination = "completed"

    s = 0.0
    atol = 1e-8  # relative to tol; keeps the scale positive on decaying tails
    h = min(MAX_STEP, span, 1e-3) if span > 0 else 0.0
    fu1, fv1 = accel(yu, yv)

    def scaled(err, a, b):
        return err / (tol * (atol + max(abs(a), abs(b))))

    # the remaining sliver below the cutoff is roundoff, not unfinished work
    end_slack = 1e-13 * max(1.0, span)
    while span - s > end_slack:
        if accepted + rejected > max_steps:
            raise IntegrationError(f"step budget exceeded ({max_steps} steps)")
        h = min(h, span - s)

        # stage 1 (FSAL: fu1/fv1 carried over)
        k1yu, k1pu, k1yv, k1pv = pu, fu1, pv, fv1
        # stage 2
        yu2 = yu + h * _A2[0] * k1yu
        pu2 = pu + h * _A2[0] * k1pu
        yv2 = yv + h * _A2[0] * k1yv
        pv2 = pv + h * _A2[0] * k1pv
        fu, fv = accel(yu2, yv2)
        k2yu, k2pu, k2yv, k2pv = pu2, fu, pv2, fv
        # stage 3
        yu3 = yu + h * (_A3[0] * k1yu + _A3[1] * k2yu)
        pu3 = pu + h * (_A3[0] * k1pu + _A3[1] * k2pu)
        yv3 = yv + h * (_A3[0] * k1yv + _A3[1] * k2yv)
        pv3 = pv + h * (_A3[0] * k1pv + _A3[1] * k2pv)
        fu, fv = accel(yu3, yv3)
        k3yu, k3pu, k3yv, k3pv = pu3, fu, pv3, fv
        # stage 4
        yu4 = yu + h * (_A4[0] * k1yu + _A4[1] * k2yu + _A4[2] * k3yu)
        pu4 = pu + h * (_A4[0] * k1pu + _A4[1] * k2pu + _A4[2] * k3pu)
        yv4 = yv + h * (_A4[0] * k1yv + _A4[1] * k2yv + _A4[2] * k3yv)
        pv4 = pv + h * (_A4[0] * k1pv + _A4[1] * k2pv + _A4[2] * k3pv)
        fu, fv = accel(yu4, yv4)
        k4yu, k4pu, k4yv, k4pv = pu4, fu, pv4, fv
        # stage 5
        yu5 = yu + h * (_A5[0] * k1yu + _A5[1] * k2yu + _A5[2] * k3yu + _A5[3] * k4yu)
        pu5 = pu + h * (_A5[0] * k1pu + _A5[1] * k2pu + _A5[2] * k3pu + _A5[3] * k4pu)
        yv5 = yv + h * (_A5[0] * k1yv + _A5[1] * k2yv + _A5[2] * k3yv + _A5[3] * k4yv)
        pv5 = pv + h * (_A5[0] * k1pv + _A5[1] * k2pv + _A5[2] * k3pv + _A5[3] * k4pv)
        fu, fv = accel(yu5, yv5)
        k5yu, k5pu, k5yv, k5pv = pu5, fu, pv5, fv
        # stage 6
        yu6 = yu + h * (_A6[0] * k1yu + _A6[1] * k2yu + _A6[2] * k3yu
                        + _A6[3] * k4yu + _A6[4] * k5yu)
        pu6 = pu + h * (_A6[0] * k1pu + _A6[1] * k2pu + _A6[2] * k3pu
                        + _A6[3] * k4pu + _A6[4] * k5pu)
        yv6 = yv + h * (_A6[0] * k1yv + _A6[1] * k2yv + _A6[2] * k3yv
                        + _A6[3] * k4yv + _A6[4] * k5yv)
        pv6 = pv + h * (_A6[0] * k1pv + _A6[1] * k2pv + _A6[2] * k3pv
                        + _A6[3] * k4pv + _A6[4] * k5pv)
        fu, fv = accel(yu6, yv6)
        k6yu, k6pu, k6yv, k6pv = pu6, fu, pv6, fv
        # 5th-order solution
        yu_new = yu + h * (_B[0] * k1yu + _B[2] * k3yu + _B[3] * k4yu
                           + _B[4] * k5yu + _B[5] * k6yu)
        pu_new = pu + h * (_B[0] * k1pu + _B[2] * k3pu + _B[3] * k4pu
                           + _B[4] * k5pu + _B[5] * k6pu)
        yv_new = yv + h * (_B[0] * k1yv + _B[2] * k3yv + _B[3] * k4yv
                           + _B[4] * k5yv + _B[5] * k6yv)
        pv_new = pv + h * (_B[0] * k1pv + _B[2] * k3pv + _B[3] * k4pv
                           + _B[4] * k5pv + _B[5] * k6pv)
        # stage 7 = derivative at the new point (FSAL)
        fu7, fv7 = accel(yu_new, yv_new)
        k7yu, k7pu, k7yv, k7pv = pu_new, fu7, pv_new, fv7

        err_yu = h * (_E[0] * k1yu + _E[2] * k3yu + _E[3] * k4yu
                      + _E[4] * k5yu + _E[5] * k6yu + _E[6] * k7yu)
        err_pu = h * (_E[0] * k1pu + _E[2] * k3pu + _E[3] * k4pu
                      + _E[4] * k5pu + _E[5] * k6pu + _E[6] * k7pu)
        err_yv = h * (_E[0] * k1yv + _E[2] * k3yv + _E[3] * k4yv
                      + _E[4] * k5yv + _E[5] * k6yv + _E[6] * k7yv)
        err_pv = h * (_E[0] * k1pv + _E[2] * k3pv + _E[3] * k4pv
                      + _E[4] * k5pv + _E[5] * k6pv + _E[6] * k7pv)

        enorm = math.sqrt(0.25 * (
            scaled(err_yu, yu, yu_new) ** 2 + scaled(err_pu, pu, pu_new) ** 2
            + scaled(err_yv, yv, yv_new) ** 2 + scaled(err_pv, pv, pv_new) ** 2))

        if enorm <= h:  # error-per-unit-step acceptance
            s += h
            yu, pu, yv, pv = yu_new, pu_new, yv_new, pv_new
            fu1, fv1 = fu7, fv7
            accepted += 1
            stop_reason = None
            if yu < 0.0 or yv < 0.0:
                yu, yv = max(yu, 0.0), max(yv, 0.0)
                stop_reason = "extinction"
            elif max(abs(yu), abs(yv)) > blowup_threshold:
                stop_reason = "blowup"
            ss.append(s)
            yus.append(yu)
            pus.append(pu)
            yvs.append(yv)
            pvs.append(pv)
            if stop_reason:
                termination = stop_reason
                break
            if stop is not None and stop(t0 + sign * s, yu, sign * pu, yv, sign * pv):
                break
            factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * (h / enorm) ** 0.25))
            h = min(MAX_STEP, h * factor)
        else:
            rejected += 1
            h = h * max(0.2, 0.9 * (h / enorm) ** 0.25)
            if h < MIN_STEP:
                raise IntegrationError(f"step size underflow at t-offset {s:.6g}")

    offsets = np.asarray(ss)
    t_out = t0 + sign * offsets
    return EFTrajectory(
        t=t_out,
        y_u=np.asarray(yus),
        p_u=sign * np.asarray(pus),
        y_v=np.asarray(yvs),
        p_v=sign * np.asarray(pvs),
        accepted=accepted,
        rejected=rejected,
        termination=termination,
    )


# --- shooting ----------------------------------------------------------------


@dataclass(frozen=True)
class ShootConfig:
    """Bracket and tolerance settings for homoclinic shooting."""

    bracket: tuple[float, float] | None = None
    tol: float = 1e-9
    t_max: float | None = None
    blowup_threshold: float = BLOWUP_THRESHOLD
    rel_width: float = 1e-8
    max_iter: int = 120


def _hermite_min(h: float, y0: float, p0: float, y1: float, p1: float) -> float:
    """Minimum of the cubic Hermite interpolant of one step with p0 <= 0 < p1."""
    d0, d1, dy = h * p0, h * p1, y1 - y0
    c2 = 3.0 * dy - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * dy
    # the derivative 3 c3 th^2 + 2 c2 th + d0 turns positive exactly once on
    # [0, 1]; both branches give that root without cancellation
    a, b = 3.0 * c3, 2.0 * c2
    r = math.sqrt(max(b * b - 4.0 * a * d0, 0.0))
    th = (r - b) / (2.0 * a) if b <= 0.0 else 2.0 * d0 / (-b - r)
    th = min(max(th, 0.0), 1.0)
    return y0 + th * (d0 + th * (c2 + th * c3))


def shoot_synchronized(p: ProblemParams, root: CouplingRoot,
                       config: ShootConfig | None = None) -> float:
    """Recover the symmetric-maximum amplitude of the decaying orbit.

    A trial starts from (y_u, y_u', y_v, y_v') = (a, 0, a/s, 0), with s the
    coupling root, and runs to its first event.  Amplitudes above the
    homoclinic one a* descend through zero (extinction), those below turn
    around at a positive minimum; the event fixes the sign of the miss

        m(a) = kappa * min y_u    (rebound: y_u' turns positive)
        m(a) = y_u' at extinction or blow-up (negative),

    and m = 0, which ends the search, when t_max passes without an event
    (the trial followed the decaying orbit all the way).  Both kinds of |m|
    grow like sqrt|a - a*|, so the iteration runs on g = m |m|, which is
    close to linear in a.  The minimum is read off the cubic Hermite interpolant of the last
    step; an extinct trial stores y_u = 0 at the step's end, which puts the
    crossing there.  No integration beyond the event is needed, and none is
    wanted: the synchronized orbit is transversally unstable, so running a
    trial any further only lets roundoff asymmetry grow.

    The bracket (lo, hi) around a* shrinks by regula falsi on g.  When one
    end is kept twice in a row its g is scaled by 1 - g_new/g_old, or by 1/2
    when that is not positive (the Anderson-Bjorck form of the Illinois
    rule).  A secant point closer than rel_width * hi / 4 to an end is moved
    that far inside, so that a converged estimate closes the bracket on the
    next trial and a stalled one moves it: a short secant step from a far,
    steep end proves nothing about a*.  The search stops when the bracket is
    at most rel_width * hi wide and returns the regula-falsi point inside it.
    """
    config = config or ShootConfig()
    s = root.c_tilde
    if abs(coupling_f(s, p)) > 1e-8 * _f_scale(s, p):
        raise ParameterError("shooting requires a root of the coupling function")
    d = p.derived()
    kappa2 = d.kappa ** 2
    ts = p.two_star
    # equilibrium amplitude of the invariant ray y_v = y_u / s
    k_u = 1.0 + p.nu * p.alpha * s ** (-p.beta)
    y_eq = (kappa2 / k_u) ** (1.0 / (ts - 2.0))
    t_max = config.t_max if config.t_max is not None else 60.0 / d.kappa

    def rebounded(t, yu, pu, yv, pv):
        return pu > 0.0

    def miss(a: float) -> float:
        state = EFState(t=0.0, y_u=a, p_u=0.0, y_v=a / s, p_v=0.0)
        traj = integrate(state, (0.0, t_max), p, tol=config.tol,
                         blowup_threshold=config.blowup_threshold,
                         stop=rebounded)
        p1 = float(traj.p_u[-1])
        if traj.termination != "completed":
            m = -abs(p1)
        elif p1 <= 0.0:
            m = 0.0
        else:
            y0, y1 = float(traj.y_u[-2]), float(traj.y_u[-1])
            y_min = _hermite_min(float(traj.t[-1] - traj.t[-2]), y0,
                                 float(traj.p_u[-2]), y1, p1)
            # the event, not the interpolant, decides the sign
            m = d.kappa * (y_min if y_min > 0.0 else min(y0, y1))
        return m * abs(m)

    if config.bracket is not None:
        lo, hi = map(float, config.bracket)
    else:
        lo, hi = 1.01 * y_eq, 3.0 * y_eq
    if not (0 < lo < hi):
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    g_lo, g_hi = miss(lo), miss(hi)
    if g_lo <= 0.0 or g_hi > 0.0:
        raise BracketError(
            f"shooting dichotomy not observed on bracket ({lo:.6g}, {hi:.6g})"
        )
    last = 0  # side of the last move: +1 lo, -1 hi
    for _ in range(config.max_iter):
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
        width = config.rel_width * hi
        if hi - lo <= width:
            break
        x = min(max(x, lo + 0.25 * width), hi - 0.25 * width)
        g = miss(x)
        if g == 0.0:
            break
        if g > 0.0:
            if last > 0:
                scale = 1.0 - g / g_lo
                g_hi *= scale if scale > 0.0 else 0.5
            lo, g_lo, last = x, g, 1
        else:
            if last < 0:
                scale = 1.0 - g / g_hi
                g_lo *= scale if scale > 0.0 else 0.5
            hi, g_hi, last = x, g, -1
    return x


# --- trajectory diagnostics ---------------------------------------------------


def proportionality_defect(traj: EFTrajectory, c_tilde: float) -> float:
    """sup |y_u - c_tilde * y_v| normalized by sup y_u."""
    if traj.t.size == 0:
        raise TrajectoryError("empty trajectory")
    top = float(np.max(traj.y_u))
    if top == 0.0:
        return 0.0
    return float(np.max(np.abs(traj.y_u - c_tilde * traj.y_v))) / top


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


# --- residuals of the three radial encodings ----------------------------------


def _grid_array(grid) -> np.ndarray:
    r = np.asarray(grid, dtype=float)
    if r.size == 0 or np.any(r <= 0) or np.any(~np.isfinite(r)):
        raise DomainError("grid radii must be positive and finite")
    return r


def radial_system_residual(fam: SynchronizedFamily, grid) -> tuple[float, float]:
    """Max normalized residual of the radial system for (c1 W, c2 W).

    Each equation is evaluated as u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1)
    + coupling, normalized pointwise by the largest term magnitude (floored
    at 1 so that vanishing tails do not inflate the quotient).
    """
    r = _grid_array(grid)
    p = fam.profile.params
    ts = p.two_star
    n = p.n
    gamma = p.gamma
    u, u1, u2 = fam.profile.derivatives(r)
    res = []
    for c_own, c_oth, e_own, e_oth, factor in (
            (fam.c1, fam.c2, p.alpha - 1.0, p.beta, p.nu * p.alpha),
            (fam.c2, fam.c1, p.beta - 1.0, p.alpha, p.nu * p.beta)):
        t1 = c_own * u2
        t2 = (n - 1.0) * c_own * u1 / r
        t3 = gamma * c_own * u / (r * r)
        t4 = np.power(c_own * u, ts - 1.0)
        t5 = factor * np.power(c_own * u, e_own) * np.power(c_oth * u, e_oth)
        scale = np.maximum.reduce([np.ones_like(r), np.abs(t1), np.abs(t2),
                                   np.abs(t3), np.abs(t4), np.abs(t5)])
        res.append(float(np.max(np.abs(t1 + t2 + t3 + t4 + t5) / scale)))
    return res[0], res[1]


def weighted_system_residual(fam: SynchronizedFamily, tau: float,
                             grid) -> tuple[float, float]:
    """Max normalized residual of the weighted encoding for g = r^tau u.

    Requires tau to solve tau^2 - (n-2) tau + gamma = 0 (either root); the
    equivalence with the plain radial system holds only then.
    """
    p = fam.profile.params
    gamma = p.gamma
    n = p.n
    char = tau * tau - (n - 2.0) * tau + gamma
    if abs(char) > 1e-10 * max(1.0, tau * tau, gamma):
        raise ParameterError(
            f"tau={tau} is not a root of the characteristic equation "
            f"(residual {char:.3e})"
        )
    r = _grid_array(grid)
    ts = p.two_star
    g, g1, g2 = fam.profile.weighted_derivatives(tau, r)
    weight = np.power(r, -(ts - 2.0) * tau)
    res = []
    for c_own, c_oth, e_own, e_oth, factor in (
            (fam.c1, fam.c2, p.alpha - 1.0, p.beta, p.nu * p.alpha),
            (fam.c2, fam.c1, p.beta - 1.0, p.alpha, p.nu * p.beta)):
        t1 = c_own * g2
        t2 = (n - 1.0 - 2.0 * tau) * c_own * g1 / r
        t3 = weight * np.power(c_own * g, ts - 1.0)
        t4 = weight * factor * np.power(c_own * g, e_own) * np.power(c_oth * g, e_oth)
        scale = np.maximum.reduce([np.ones_like(r), np.abs(t1), np.abs(t2),
                                   np.abs(t3), np.abs(t4)])
        res.append(float(np.max(np.abs(t1 + t2 + t3 + t4) / scale)))
    return res[0], res[1]


def ef_system_residual(fam: SynchronizedFamily, t_grid) -> tuple[float, float]:
    """Max normalized residual of the phase-plane encoding on a log-radius grid."""
    p = fam.profile.params
    kappa2, ts, alpha, beta, nu = _system_constants(p)
    t = np.asarray(t_grid, dtype=float)
    y_u, _, y_v, _ = _closed_form_arrays(fam, t)
    a_u, a_v = _closed_form_accel(fam, t)
    res = []
    for acc, y_own, y_oth, e_own, e_oth, factor in (
            (a_u, y_u, y_v, alpha - 1.0, beta, nu * alpha),
            (a_v, y_v, y_u, beta - 1.0, alpha, nu * beta)):
        t1 = acc
        t2 = -kappa2 * y_own
        t3 = np.power(y_own, ts - 1.0)
        t4 = factor * np.power(y_own, e_own) * np.power(y_oth, e_oth)
        scale = np.maximum.reduce([np.ones_like(t1), np.abs(t1), np.abs(t2),
                                   np.abs(t3), np.abs(t4)])
        res.append(float(np.max(np.abs(t1 + t2 + t3 + t4) / scale)))
    return res[0], res[1]
