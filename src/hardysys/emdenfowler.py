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
the bracket around the homoclinic amplitude is REL_WIDTH * hi wide.  Trials
far from it run at the looser LOOSE_TOL; the bracket that ends the search has
both ends integrated at the final tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, IntegrationError, ParameterError,
                     TrajectoryError)
from .coupling import SynchronizedFamily, CouplingRoot, coupling_f, _f_scale
from .params import ProblemParams

BLOWUP_THRESHOLD = 1e8
MAX_STEPS = 2_000_000
MIN_STEP = 1e-14
MAX_STEP = 1.0
# shooting stops once its bracket is at most REL_WIDTH * hi wide, or after
# MAX_ITER regula-falsi trials
REL_WIDTH = 1e-8
MAX_ITER = 120
# shooting trials run at LOOSE_TOL (or tol, when that is larger) until the
# bracket is LOOSE_WIDTH * hi wide
LOOSE_TOL = 1e-7
LOOSE_WIDTH = 1e-4


@dataclass(frozen=True)
class EFState:
    """Phase state (y_u, y_u', y_v, y_v') at one log-radius."""

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

    def write_csv(self, fh) -> None:
        """Columns t, y_u, p_u, y_v, p_v at 17 significant digits."""
        fh.write("t,y_u,p_u,y_v,p_v\n")
        for vals in zip(self.t, self.y_u, self.p_u, self.y_v, self.p_v):
            fh.write(",".join("%.17g" % v for v in vals) + "\n")


# --- closed-form synchronized trajectories ---------------------------------


def _closed_form_core(fam: SynchronizedFamily, t):
    """(theta, log 2cosh theta, A (2 cosh theta)^(-delta)), stable for any |t|.

    theta = kappa (t - t0) / delta with t0 = log mu.
    """
    p = fam.profile.params
    t = np.asarray(t, dtype=float)
    theta = p.kappa * (t - math.log(fam.profile.mu)) / p.delta
    # log(2 cosh theta) = |theta| + log1p(exp(-2|theta|))
    log2cosh = np.abs(theta) + np.log1p(np.exp(-2.0 * np.abs(theta)))
    return theta, log2cosh, p.amplitude * np.exp(-p.delta * log2cosh)


def _closed_form_arrays(fam: SynchronizedFamily, t):
    """(y_u, p_u, y_v, p_v) of the closed form y(t) = c A (2 cosh theta)^(-delta)."""
    theta, _, base = _closed_form_core(fam, t)
    slope = -fam.profile.params.kappa * np.tanh(theta)
    y_u = fam.c1 * base
    y_v = fam.c2 * base
    return y_u, slope * y_u, y_v, slope * y_v


def _closed_form_accel(fam: SynchronizedFamily, t):
    """Second derivatives (y_u'', y_v'') of the closed form."""
    p = fam.profile.params
    theta, log2cosh, base = _closed_form_core(fam, t)
    sech2 = np.exp(-2.0 * log2cosh) * 4.0
    tanh2 = np.tanh(theta) ** 2
    curv = p.kappa ** 2 * (tanh2 - sech2 / p.delta)
    return fam.c1 * base * curv, fam.c2 * base * curv


def exact_ef_solution(fam: SynchronizedFamily, t: float) -> EFState:
    """Closed-form phase state of a synchronized family at log-radius t."""
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFState(y_u=float(y_u), p_u=float(p_u), y_v=float(y_v), p_v=float(p_v))


def exact_trajectory(fam: SynchronizedFamily, t_grid) -> EFTrajectory:
    """Closed-form trajectory sampled on an explicit grid."""
    t = np.asarray(t_grid, dtype=float)
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFTrajectory(t=t, y_u=y_u, p_u=p_u, y_v=y_v, p_v=p_v,
                        accepted=0, rejected=0, termination="completed")


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
              tol: float = 1e-10, stop=None) -> EFTrajectory:
    """Integrate the phase system with an embedded 5(4) pair.

    Error control is per unit step: a step of size h is accepted when the
    embedded estimate satisfies ||err/scale|| <= tol * h, which makes the
    global error scale like tol^(5/4).  Backward spans integrate the
    time-reversed field (flip the derivative components) so there is a single
    forward code path.  Termination is 'completed', or 'blowup' when a
    component magnitude passes ``BLOWUP_THRESHOLD``, or 'extinction' when a
    component goes negative (the state is clamped at zero and reported).
    Past ``MAX_STEPS`` attempted steps, below a step of ``MIN_STEP``, or when
    a float power overflows (a tiny ``tol`` can do that), it raises
    IntegrationError.

    ``stop(t, y_u, p_u, y_v, p_v)`` is an optional early-exit predicate
    evaluated after every accepted step; a truthy value ends the run with
    termination 'completed'.  The initial state and ``t_span`` are read as
    Python floats.

    The kernel is inlined by hand: the tableau lives in local floats, the
    field (``ef_rhs`` in ``tests/reference.py``, with trial stages clamped at
    zero) is written out at every stage, and ``abs``, ``min`` and ``max`` are
    comparisons.  Every floating-point operation is the one of the table form
    ``y + h * (a1 * k1 + a2 * k2 + ...)``, in the same order, so trajectories
    are bit-identical to it, and a step runs 1.7-1.9 times as fast.
    """
    if not (0.0 < tol < math.inf):
        raise ParameterError("tolerance must be positive and finite")
    for name in ("y_u", "p_u", "y_v", "p_v"):
        if not math.isfinite(getattr(initial, name)):
            raise ParameterError("initial state must be finite")

    t0, t1 = float(t_span[0]), float(t_span[1])
    backward = t1 < t0
    span = abs(t1 - t0)
    sign = -1.0 if backward else 1.0

    # locals, read once: the step loop tests them on every step
    blowup_threshold, max_steps = BLOWUP_THRESHOLD, MAX_STEPS
    kappa2 = p.delta * p.delta - p.gamma
    ts, alpha, beta, nu = p.two_star, p.alpha, p.beta, p.nu
    e1 = ts - 1.0
    ea = alpha - 1.0
    eb = beta - 1.0
    nua = nu * alpha
    nub = nu * beta
    a21, = _A2
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b1, _, b3, b4, b5, b6 = _B
    w1, _, w3, w4, w5, w6, w7 = _E

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
    # float powers raise OverflowError where a product would give inf
    try:
        # the stage derivatives are (p, f): f is the field at the stage state,
        # whose components are clamped at zero for the powers (trial stages may
        # dip below zero).  Stage 1 is the field at the step's start (FSAL).
        cu = 0.0 if yu < 0.0 else yu
        cv = 0.0 if yv < 0.0 else yv
        fu1 = kappa2 * cu - cu ** e1
        fv1 = kappa2 * cv - cv ** e1
        if nua:
            fu1 -= nua * cu ** ea * cv ** beta
            fv1 -= nub * cu ** alpha * cv ** eb

        # the remaining sliver below the cutoff is roundoff, not unfinished work
        end_slack = 1e-13 * max(1.0, span)
        while span - s > end_slack:
            if accepted + rejected > max_steps:
                raise IntegrationError(f"step budget exceeded ({max_steps} steps)")
            if span - s < h:
                h = span - s

            # stage 2
            ha = h * a21
            yu2 = yu + ha * pu
            pu2 = pu + ha * fu1
            yv2 = yv + ha * pv
            pv2 = pv + ha * fv1
            cu = 0.0 if yu2 < 0.0 else yu2
            cv = 0.0 if yv2 < 0.0 else yv2
            fu2 = kappa2 * cu - cu ** e1
            fv2 = kappa2 * cv - cv ** e1
            if nua:
                fu2 -= nua * cu ** ea * cv ** beta
                fv2 -= nub * cu ** alpha * cv ** eb
            # stage 3
            yu3 = yu + h * (a31 * pu + a32 * pu2)
            pu3 = pu + h * (a31 * fu1 + a32 * fu2)
            yv3 = yv + h * (a31 * pv + a32 * pv2)
            pv3 = pv + h * (a31 * fv1 + a32 * fv2)
            cu = 0.0 if yu3 < 0.0 else yu3
            cv = 0.0 if yv3 < 0.0 else yv3
            fu3 = kappa2 * cu - cu ** e1
            fv3 = kappa2 * cv - cv ** e1
            if nua:
                fu3 -= nua * cu ** ea * cv ** beta
                fv3 -= nub * cu ** alpha * cv ** eb
            # stage 4
            yu4 = yu + h * (a41 * pu + a42 * pu2 + a43 * pu3)
            pu4 = pu + h * (a41 * fu1 + a42 * fu2 + a43 * fu3)
            yv4 = yv + h * (a41 * pv + a42 * pv2 + a43 * pv3)
            pv4 = pv + h * (a41 * fv1 + a42 * fv2 + a43 * fv3)
            cu = 0.0 if yu4 < 0.0 else yu4
            cv = 0.0 if yv4 < 0.0 else yv4
            fu4 = kappa2 * cu - cu ** e1
            fv4 = kappa2 * cv - cv ** e1
            if nua:
                fu4 -= nua * cu ** ea * cv ** beta
                fv4 -= nub * cu ** alpha * cv ** eb
            # stage 5
            yu5 = yu + h * (a51 * pu + a52 * pu2 + a53 * pu3 + a54 * pu4)
            pu5 = pu + h * (a51 * fu1 + a52 * fu2 + a53 * fu3 + a54 * fu4)
            yv5 = yv + h * (a51 * pv + a52 * pv2 + a53 * pv3 + a54 * pv4)
            pv5 = pv + h * (a51 * fv1 + a52 * fv2 + a53 * fv3 + a54 * fv4)
            cu = 0.0 if yu5 < 0.0 else yu5
            cv = 0.0 if yv5 < 0.0 else yv5
            fu5 = kappa2 * cu - cu ** e1
            fv5 = kappa2 * cv - cv ** e1
            if nua:
                fu5 -= nua * cu ** ea * cv ** beta
                fv5 -= nub * cu ** alpha * cv ** eb
            # stage 6
            yu6 = yu + h * (a61 * pu + a62 * pu2 + a63 * pu3 + a64 * pu4 + a65 * pu5)
            pu6 = pu + h * (a61 * fu1 + a62 * fu2 + a63 * fu3 + a64 * fu4 + a65 * fu5)
            yv6 = yv + h * (a61 * pv + a62 * pv2 + a63 * pv3 + a64 * pv4 + a65 * pv5)
            pv6 = pv + h * (a61 * fv1 + a62 * fv2 + a63 * fv3 + a64 * fv4 + a65 * fv5)
            cu = 0.0 if yu6 < 0.0 else yu6
            cv = 0.0 if yv6 < 0.0 else yv6
            fu6 = kappa2 * cu - cu ** e1
            fv6 = kappa2 * cv - cv ** e1
            if nua:
                fu6 -= nua * cu ** ea * cv ** beta
                fv6 -= nub * cu ** alpha * cv ** eb
            # 5th-order solution
            yu_new = yu + h * (b1 * pu + b3 * pu3 + b4 * pu4 + b5 * pu5 + b6 * pu6)
            pu_new = pu + h * (b1 * fu1 + b3 * fu3 + b4 * fu4 + b5 * fu5 + b6 * fu6)
            yv_new = yv + h * (b1 * pv + b3 * pv3 + b4 * pv4 + b5 * pv5 + b6 * pv6)
            pv_new = pv + h * (b1 * fv1 + b3 * fv3 + b4 * fv4 + b5 * fv5 + b6 * fv6)
            # stage 7 = field at the new point (FSAL)
            cu = 0.0 if yu_new < 0.0 else yu_new
            cv = 0.0 if yv_new < 0.0 else yv_new
            fu7 = kappa2 * cu - cu ** e1
            fv7 = kappa2 * cv - cv ** e1
            if nua:
                fu7 -= nua * cu ** ea * cv ** beta
                fv7 -= nub * cu ** alpha * cv ** eb

            err_yu = h * (w1 * pu + w3 * pu3 + w4 * pu4 + w5 * pu5 + w6 * pu6
                          + w7 * pu_new)
            err_pu = h * (w1 * fu1 + w3 * fu3 + w4 * fu4 + w5 * fu5 + w6 * fu6
                          + w7 * fu7)
            err_yv = h * (w1 * pv + w3 * pv3 + w4 * pv4 + w5 * pv5 + w6 * pv6
                          + w7 * pv_new)
            err_pv = h * (w1 * fv1 + w3 * fv3 + w4 * fv4 + w5 * fv5 + w6 * fv6
                          + w7 * fv7)

            # each component scaled by tol * (atol + max(|old|, |new|))
            a = yu if yu >= 0.0 else -yu
            b = yu_new if yu_new >= 0.0 else -yu_new
            q_yu = err_yu / (tol * (atol + (b if b > a else a)))
            a = pu if pu >= 0.0 else -pu
            b = pu_new if pu_new >= 0.0 else -pu_new
            q_pu = err_pu / (tol * (atol + (b if b > a else a)))
            a = yv if yv >= 0.0 else -yv
            b = yv_new if yv_new >= 0.0 else -yv_new
            q_yv = err_yv / (tol * (atol + (b if b > a else a)))
            a = pv if pv >= 0.0 else -pv
            b = pv_new if pv_new >= 0.0 else -pv_new
            q_pv = err_pv / (tol * (atol + (b if b > a else a)))
            enorm = math.sqrt(0.25 * (q_yu ** 2 + q_pu ** 2 + q_yv ** 2 + q_pv ** 2))

            if enorm <= h:  # error-per-unit-step acceptance
                s += h
                yu, pu, yv, pv = yu_new, pu_new, yv_new, pv_new
                fu1, fv1 = fu7, fv7
                accepted += 1
                stop_reason = None
                if yu < 0.0 or yv < 0.0:
                    yu, yv = max(yu, 0.0), max(yv, 0.0)
                    stop_reason = "extinction"
                elif yu > blowup_threshold or yv > blowup_threshold:
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
                if enorm == 0.0:
                    factor = 5.0
                else:  # clamped to [0.2, 5]
                    factor = 0.9 * (h / enorm) ** 0.25
                    factor = factor if factor > 0.2 else 0.2
                    factor = factor if factor < 5.0 else 5.0
                h = h * factor
                if not h < MAX_STEP:
                    h = MAX_STEP
            else:
                rejected += 1
                factor = 0.9 * (h / enorm) ** 0.25
                h = h * (factor if factor > 0.2 else 0.2)
                if h < MIN_STEP:
                    raise IntegrationError(f"step size underflow at t-offset {s:.6g}")
    except OverflowError as exc:
        raise IntegrationError(f"floating-point overflow at t-offset {s:.6g}") from exc

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
                       bracket: tuple[float, float] | None = None,
                       tol: float = 1e-9) -> float:
    """Recover the symmetric-maximum amplitude of the decaying orbit.

    A trial starts from (y_u, y_u', y_v, y_v') = (a, 0, a/s, 0), with s the
    coupling root, and runs to its first event.  Amplitudes above the
    homoclinic one a* descend through zero (extinction), those below turn
    around at a positive minimum; the event fixes the sign of the miss

        m(a) = kappa * min y_u    (rebound: y_u' turns positive)
        m(a) = y_u' at extinction or blow-up (negative),

    and m = 0 when t = 60 / kappa passes without an event (the trial followed
    the decaying orbit all the way).  Both kinds of |m| grow like
    sqrt|a - a*|, so the iteration runs on g = m |m|, which is close to
    linear in a.  The minimum is read off the cubic Hermite interpolant of the
    last step; an extinct trial stores y_u = 0 at the step's end, which puts
    the crossing there.  No integration beyond the event is needed, and none
    is wanted: the synchronized orbit is transversally unstable, so running a
    trial any further only lets roundoff asymmetry grow.

    The bracket (lo, hi) around a* is ``bracket``, by default 1.01 and 3
    times the equilibrium amplitude of the invariant ray.  While hi > 10 lo
    it is bisected in log a, because regula falsi creeps from a far, steep
    end.  Then it shrinks by regula falsi on g.  When one end is kept twice
    in a row its g is scaled by 1 - g_new/g_old, or by 1/2 when that is not
    positive (the Anderson-Bjorck form of the Illinois rule).  A secant point
    closer than width / 4 to an end is moved that far inside, so that a
    converged estimate closes the bracket on the next trial and a stalled one
    moves it: a short secant step from a far, steep end proves nothing about
    a*.

    A trial far from a* only has to get the sign of its miss right, so the
    search runs in two stages.  Stage 1 integrates at LOOSE_TOL until the
    bracket is LOOSE_WIDTH * hi wide; stage 2 goes on from that bracket at
    ``tol`` until it is REL_WIDTH * hi wide, and returns the regula-falsi
    point inside it, or a trial that scored m = 0.  The result stands only
    when both ends of the final bracket are stage-2 trials, so it is proven
    at ``tol``.  In every other case (no dichotomy at LOOSE_TOL, a loose
    trial that scored 0, an end stage 2 never replaced, an integration
    failure) the search starts again at ``tol`` on the original bracket as
    one stage, which is also the whole search when ``tol >= LOOSE_TOL``.
    """
    s = root.c_tilde
    if abs(coupling_f(s, p)) > 1e-8 * _f_scale(s, p):
        raise ParameterError("shooting requires a root of the coupling function")
    kappa2 = p.kappa ** 2
    ts = p.two_star
    # equilibrium amplitude of the invariant ray y_v = y_u / s
    k_u = 1.0 + p.nu * p.alpha * s ** (-p.beta)
    y_eq = (kappa2 / k_u) ** (1.0 / (ts - 2.0))
    t_max = 60.0 / p.kappa

    def rebounded(t, yu, pu, yv, pv):
        return pu > 0.0

    def miss(a: float, tol: float) -> float:
        state = EFState(y_u=a, p_u=0.0, y_v=a / s, p_v=0.0)
        traj = integrate(state, (0.0, t_max), p, tol=tol, stop=rebounded)
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
            m = p.kappa * (y_min if y_min > 0.0 else min(y0, y1))
        return m * abs(m)

    def narrow(lo, hi, g_lo, g_hi, tol, rel_width):
        """Shrink a dichotomy bracket with trials at ``tol`` to rel_width * hi.

        Returns (x, lo, hi, g_lo, g_hi), x the point to return.  A trial that
        scores 0 closes the bracket on its own point.
        """
        while hi > 10.0 * lo:
            x = math.sqrt(lo * hi)
            g = miss(x, tol)
            if g == 0.0:
                return x, x, x, g, g
            if g > 0.0:
                lo, g_lo = x, g
            else:
                hi, g_hi = x, g
        last = 0  # side of the last move: +1 lo, -1 hi
        for _ in range(MAX_ITER):
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            width = rel_width * hi
            if hi - lo <= width:
                break
            x = min(max(x, lo + 0.25 * width), hi - 0.25 * width)
            g = miss(x, tol)
            if g == 0.0:
                return x, x, x, g, g
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
        return x, lo, hi, g_lo, g_hi

    if bracket is not None:
        lo, hi = map(float, bracket)
    else:
        lo, hi = 1.01 * y_eq, 3.0 * y_eq
    if not (0 < lo < hi):
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    if tol < LOOSE_TOL:
        try:
            g_lo, g_hi = miss(lo, LOOSE_TOL), miss(hi, LOOSE_TOL)
            if g_lo > 0.0 > g_hi:
                _, lo1, hi1, g_lo1, g_hi1 = narrow(lo, hi, g_lo, g_hi,
                                                   LOOSE_TOL, LOOSE_WIDTH)
                if lo1 < hi1:  # no loose trial scored 0
                    x, lo2, hi2, _, _ = narrow(lo1, hi1, g_lo1, g_hi1,
                                               tol, REL_WIDTH)
                    if lo2 > lo1 and hi2 < hi1:  # both ends ran at tol
                        return x
        except IntegrationError:
            pass  # decided below, at tol
    g_lo, g_hi = miss(lo, tol), miss(hi, tol)
    if g_lo <= 0.0 or g_hi > 0.0:
        raise BracketError(
            f"shooting dichotomy not observed on bracket ({lo:.6g}, {hi:.6g})"
        )
    return narrow(lo, hi, g_lo, g_hi, tol, REL_WIDTH)[0]


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


def _max_normalized(terms) -> float:
    """max over the grid of |t1 + t2 + ...| / max(1, |t1|, |t2|, ...)."""
    total = sum(terms[1:], terms[0])  # ((t1 + t2) + t3) + ...
    scale = np.maximum.reduce([np.ones_like(terms[0])] + [np.abs(t) for t in terms])
    return float(np.max(np.abs(total) / scale))


def radial_system_residual(fam: SynchronizedFamily, grid) -> tuple[float, float]:
    """Max normalized residual of the radial system for (c1 W, c2 W).

    Each equation is evaluated as u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1)
    + coupling, normalized pointwise by the largest term magnitude (floored
    at 1 so that vanishing tails do not inflate the quotient).
    """
    r = np.asarray(grid, dtype=float)
    p = fam.profile.params
    ts = p.two_star
    n = p.n
    gamma = p.gamma
    u, u1, u2 = fam.profile.derivatives(r)
    return tuple(_max_normalized((
        c_own * u2,
        (n - 1.0) * c_own * u1 / r,
        gamma * c_own * u / (r * r),
        np.power(c_own * u, ts - 1.0),
        factor * np.power(c_own * u, e_own) * np.power(c_oth * u, e_oth),
    )) for c_own, c_oth, e_own, e_oth, factor in (
        (fam.c1, fam.c2, p.alpha - 1.0, p.beta, p.nu * p.alpha),
        (fam.c2, fam.c1, p.beta - 1.0, p.alpha, p.nu * p.beta)))


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
    r = np.asarray(grid, dtype=float)
    ts = p.two_star
    g, g1, g2 = fam.profile.weighted_derivatives(tau, r)
    weight = np.power(r, -(ts - 2.0) * tau)
    return tuple(_max_normalized((
        c_own * g2,
        (n - 1.0 - 2.0 * tau) * c_own * g1 / r,
        weight * np.power(c_own * g, ts - 1.0),
        weight * factor * np.power(c_own * g, e_own) * np.power(c_oth * g, e_oth),
    )) for c_own, c_oth, e_own, e_oth, factor in (
        (fam.c1, fam.c2, p.alpha - 1.0, p.beta, p.nu * p.alpha),
        (fam.c2, fam.c1, p.beta - 1.0, p.alpha, p.nu * p.beta)))


def ef_system_residual(fam: SynchronizedFamily, t_grid) -> tuple[float, float]:
    """Max normalized residual of the phase-plane encoding on a log-radius grid."""
    p = fam.profile.params
    kappa2 = p.delta * p.delta - p.gamma
    ts, alpha, beta, nu = p.two_star, p.alpha, p.beta, p.nu
    t = np.asarray(t_grid, dtype=float)
    y_u, _, y_v, _ = _closed_form_arrays(fam, t)
    a_u, a_v = _closed_form_accel(fam, t)
    return tuple(_max_normalized((
        acc,
        -kappa2 * y_own,
        np.power(y_own, ts - 1.0),
        factor * np.power(y_own, e_own) * np.power(y_oth, e_oth),
    )) for acc, y_own, y_oth, e_own, e_oth, factor in (
        (a_u, y_u, y_v, alpha - 1.0, beta, nu * alpha),
        (a_v, y_v, y_u, beta - 1.0, alpha, nu * beta)))
