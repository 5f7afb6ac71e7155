"""Log-radius phase-plane form of the radial system.

With y(t) = r^delta u(r), t = log r, the radial system becomes the autonomous
pair

    y_u'' = (delta^2 - gamma) y_u - y_u^(2*-1) - nu alpha y_u^(alpha-1) y_v^beta
    y_v'' = (delta^2 - gamma) y_v - y_v^(2*-1) - nu beta  y_u^alpha y_v^(beta-1)

whose positive decaying orbits are homoclinic loops of the origin with
exponential rate kappa = sqrt(delta^2 - gamma).  This module provides the
closed-form synchronized trajectories, an embedded Dormand-Prince 5(4)
integrator with error-per-unit-step control (global error scales like
tol^(5/4), i.e. better than a factor 16 per tolerance decade), the shooting
trace of each homoclinic orbit from the origin up to its maximum (an oracle
independent of the closed form), and residual checks of all three radial
encodings of one and the same solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError, ParameterError, TrajectoryError
from .coupling import SynchronizedFamily, CouplingRoot, coupling_f, _f_scale
from .params import ProblemParams

BLOWUP_THRESHOLD = 1e8
MAX_STEPS = 2_000_000
MIN_STEP = 1e-14
MAX_STEP = 1.0


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


def _quintic_turn(h: float, u, v) -> tuple[float, float, float]:
    """(theta, y_u, y_v) at the turn of y_u within one step of length h.

    ``u`` and ``v`` hold (y, y', y'') of each component at the step's start
    (theta = 0) and end (theta = 1), where y_u' > 0 and y_u' <= 0.  Three
    Newton steps on the slope of the quintic Hermite interpolant of y_u, from
    the root of its linear interpolant, find theta.
    """
    polys = []
    for y0, p0, f0, y1, p1, f1 in (u, v):
        d0, d1, e0, e1 = h * p0, h * p1, h * h * f0, h * h * f1
        a = y1 - y0 - d0 - 0.5 * e0
        b = d1 - d0 - e0
        c = e1 - e0
        polys.append((y0, d0, d1, e0, 10.0 * a - 4.0 * b + 0.5 * c,
                      -15.0 * a + 7.0 * b - c, 6.0 * a - 3.0 * b + 0.5 * c))
    _, d0, d1, e0, c3, c4, c5 = polys[0]
    th = d0 / (d0 - d1)
    for _ in range(3):
        slope = d0 + th * (e0 + th * (3.0 * c3 + th * (4.0 * c4 + th * 5.0 * c5)))
        curv = e0 + th * (6.0 * c3 + th * (12.0 * c4 + th * 20.0 * c5))
        th -= slope / curv
    y_u, y_v = (y0 + th * (d0 + th * (0.5 * e0 + th * (c3 + th * (c4 + th * c5))))
                for y0, d0, _, e0, c3, c4, c5 in polys)
    return th, y_u, y_v


def _manifold_coefficients(two_star: float, w: float) -> list[float]:
    """Series of log(Z(x)/x) in w = x^m, Z the manifold of z'' = kappa^2 (z - z^(2*-1)).

    The unstable manifold is z = Z(x e^(kappa t)), Z(x) = x exp(G(x^m)),
    m = 2* - 2.  In the ODE, 2 m theta G + m^2 (theta^2 G + (theta G)^2) =
    -w exp(m G), theta = w d/dw, so G = sum_k g_k w^k has (the
    parametrisation method, from the ODE alone)

        g_k = -(e_(k-1) + m^2 sum_(i<k) i (k-i) g_i g_(k-i)) / ((1 + k m)^2 - 1),

    e_k the coefficients of exp(m G) by J. C. P. Miller's recurrence.
    G = -(2/m) log(1 + rho), rho = w / (2 2*) < 1/4 at w < 1, so its terms
    shrink by rho for every n.  Both sums add terms of one sign; the series
    of Z itself alternates, with terms adding up to ((1 + rho) / (1 - rho))
    ^(2/m) times its sum (436 at n = 50, tol 1e-4; no digit left by
    n = 150).  Returns [0, g_1, ..., g_K], to the first term (1 + k m) g_k
    w^k below roundoff.
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


def _manifold_start(p: ProblemParams, s: float,
                    tol: float) -> tuple[EFState, tuple[float, float]]:
    """The shooting start on the unstable manifold of the ray y_v = y_u / s.

    On the ray, z = y_u / y_eq (y_eq the equilibrium amplitude) solves
    z'' = kappa^2 (z - z^(2*-1)); the start is y_u = y_eq Z(eps),
    y_u' = kappa y_eq eps Z'(eps), eps = (1e-3 tol)^(1/2*).  Returns it and
    its manifold coordinates (eps y_eq, eps y_eq / s): the orbit through it
    is e^(kappa (t - t_start)) times those as t -> -infinity.
    """
    kappa = p.kappa
    k_u = 1.0 + p.nu * p.alpha * s ** (-p.beta)
    y_eq = (kappa * kappa / k_u) ** (1.0 / (p.two_star - 2.0))
    eps = (1e-3 * tol) ** (1.0 / p.two_star)
    m = p.two_star - 2.0
    w = eps ** m
    logs = _manifold_coefficients(p.two_star, w)
    g = dg = 0.0  # G(w) and m theta G(w), by Horner in w
    for k in range(len(logs) - 1, 0, -1):
        g = (g + logs[k]) * w
        dg = (dg + m * k * logs[k]) * w
    y0 = y_eq * (eps * math.exp(g))  # y_eq Z(eps)
    slope = kappa * y0 * (1.0 + dg)  # kappa y_eq eps Z'(eps)
    start = EFState(y_u=y0, p_u=slope, y_v=y0 / s, p_v=slope / s)
    return start, (eps * y_eq, eps * y_eq / s)


def shoot_synchronized(p: ProblemParams, root: CouplingRoot,
                       tol: float = 1e-9) -> EFTrajectory:
    """Trace the decaying orbit of a root from the origin up to its maximum.

    The field y'' = F(y) is reversible and leaves the ray y_v = y_u / s of
    the coupling root s invariant.  An orbit that leaves the origin along the
    ray's unstable direction and turns (y_u' = 0, hence y_v' = 0) is
    therefore symmetric about its turning point: it is the homoclinic, and
    y_u there is its amplitude a*.  One run at ``tol`` traces it, in the
    direction in which it is well conditioned; the closed form is not used.
    It starts on the ray's unstable manifold at coordinate
    eps = (1e-3 tol)^(1/2*), from its series (``_manifold_start``), and stops
    at the first accepted step with y_u' <= 0.

    The result is that half orbit, shifted so that the turn sits at t = 0,
    with the turn in place of the last step's end: y_u = a* and y_v from the
    quintic Hermite interpolants of that step (y, y', y'' at both ends), and
    both slopes 0.  The cubic interpolant, without y'', errs up to 7e-11 at
    tol 1e-9 near gamma = lambda_n, where the steps at the turn are long.

    A linear start, y = eps y_eq, y' = kappa y, would carry the energy
    K y_u^(2*) / 2* (K = 1 + nu alpha s^-beta) that the homoclinic lacks and
    raise the turn by about eps^(2*) relative; eps = (1e-3 tol)^(1/2*) keeps
    that a thousand times below ``tol``.  The series start carries no such
    offset, and its coordinate eps is exact, so ``full_verification`` reads
    the asymptotic limits off the trace.  The turn sits at coordinate
    (2 2*)^(1/m), m = 2* - 2, log(2 2*) / m < delta + 2 e-folds past eps,
    within the span of log(1/eps) + delta + 10 e-folds.  A run that ends
    without turning (blow-up, extinction, or the whole span) raises
    IntegrationError.  Up to ``tol`` = 1e-4, a* errs by at most tol / 2
    relative; a looser ``tol`` raises ParameterError.  So does one below
    1e-12: near the turn, where y_u' is small, doubles cannot meet it, and
    ``integrate`` would underflow its step or crawl through its step budget.
    """
    s = root.c_tilde
    if abs(coupling_f(s, p)) > 1e-8 * _f_scale(s, p):
        raise ParameterError("shooting requires a root of the coupling function")
    if not (0.0 < tol < math.inf):
        raise ParameterError("tolerance must be positive and finite")
    if tol > 1e-4:
        raise ParameterError(f"tolerance must be at most 1e-4, got {tol:g}")
    if tol < 1e-12:
        raise ParameterError(f"tolerance must be at least 1e-12, got {tol:g}")
    start, _ = _manifold_start(p, s, tol)
    t_end = (math.log(1e3 / tol) / p.two_star + p.delta + 10.0) / p.kappa
    traj = integrate(start, (0.0, t_end), p, tol=tol,
                     stop=lambda t, yu, pu, yv, pv: pu <= 0.0)
    p1 = float(traj.p_u[-1])
    if traj.termination != "completed" or p1 > 0.0:
        raise IntegrationError(
            f"the unstable manifold did not turn ({traj.termination}, "
            f"y_u' = {p1:.6g} at t = {float(traj.t[-1]):.6g})")
    # (y, y', y'') of each component at both ends of the last step
    kappa2, e1 = p.delta * p.delta - p.gamma, p.two_star - 1.0
    ends = []
    for own, slope, other, factor, e_own, e_other in (
            (traj.y_u, traj.p_u, traj.y_v, p.nu * p.alpha, p.alpha - 1.0, p.beta),
            (traj.y_v, traj.p_v, traj.y_u, p.nu * p.beta, p.beta - 1.0, p.alpha)):
        for y, q, z in zip(own[-2:].tolist(), slope[-2:].tolist(), other[-2:].tolist()):
            ends.append((y, q, kappa2 * y - y ** e1 - factor * y ** e_own * z ** e_other))
    h = float(traj.t[-1] - traj.t[-2])
    th, top_u, top_v = _quintic_turn(h, ends[0] + ends[1], ends[2] + ends[3])
    t = traj.t[:-1] - (float(traj.t[-2]) + th * h)
    return replace(traj, t=np.append(t, 0.0),
                   y_u=np.append(traj.y_u[:-1], top_u), p_u=np.append(traj.p_u[:-1], 0.0),
                   y_v=np.append(traj.y_v[:-1], top_v), p_v=np.append(traj.p_v[:-1], 0.0))


# --- trajectory diagnostics ---------------------------------------------------


def proportionality_defect(traj: EFTrajectory, c_tilde: float) -> float:
    """sup |y_u - c_tilde * y_v| normalized by sup y_u."""
    if traj.t.size == 0:
        raise TrajectoryError("empty trajectory")
    top = float(np.max(traj.y_u))
    if top == 0.0:
        return 0.0
    return float(np.max(np.abs(traj.y_u - c_tilde * traj.y_v))) / top


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
