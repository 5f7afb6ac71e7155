"""Log-radius phase-plane form of the radial system.

With y(t) = r^delta u(r), t = log r, the radial system becomes the autonomous
pair

    y_u'' = (delta^2 - gamma) y_u - y_u^(2*-1) - nu alpha y_u^(alpha-1) y_v^beta
    y_v'' = (delta^2 - gamma) y_v - y_v^(2*-1) - nu beta  y_u^alpha y_v^(beta-1)

whose positive decaying orbits are homoclinic loops of the origin with
exponential rate kappa = sqrt(delta^2 - gamma).  This module provides the
closed-form synchronized trajectories, an embedded Dormand-Prince 5(4)
integrator in Nystrom form (the field does not read y') with
error-per-unit-step control (global error scales like tol^(5/4), i.e.
better than a factor 16 per tolerance decade), the shooting
trace of each homoclinic orbit from the origin up to its maximum (an oracle
independent of the closed form), and residual checks of all three radial
encodings of one and the same solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ParameterError, TrajectoryError
from .coupling import SynchronizedFamily, CouplingRoot, coupling_f, _f_scale
from .params import ProblemParams
from .profiles import _as_radii

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


def _closed_form_arrays(fam: SynchronizedFamily, t):
    """(y_u, p_u, y_v, p_v) of the closed form y = c r^delta U at t = log r.

    From the profile's bounded units at log rho = t - log mu: y = c e^(log y)
    and y' = kappa (1 - 2w) y, both stable for any |t|.
    """
    w, om, log_y = fam.profile._bounded_units(np.asarray(t, dtype=float)
                                              - math.log(fam.profile.mu))
    base, slope = np.exp(log_y), fam.profile.params.kappa * (om - w)
    y_u, y_v = fam.c1 * base, fam.c2 * base
    return y_u, slope * y_u, y_v, slope * y_v


def exact_trajectory(fam: SynchronizedFamily, t_grid) -> EFTrajectory:
    """Closed-form trajectory sampled on an explicit grid."""
    t = np.asarray(t_grid, dtype=float)
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, t)
    return EFTrajectory(t=t, y_u=y_u, p_u=p_u, y_v=y_v, p_v=p_v,
                        accepted=0, rejected=0, termination="completed")


# --- adaptive integration ----------------------------------------------------

# Dormand-Prince 5(4) in Nystrom form.  The field y'' = f(y) does not read y',
# so the method's stage states are y + h c_i y' + h^2 sum_k (A^2)_ik f_k, its
# 5th-order solution is (y + h y' + h^2 sum_k (bA)_k f_k, y' + h sum_k b_k f_k)
# and its error estimate is (h^2 sum_k (eA)_k f_k, h sum_k e_k f_k), with b as
# the 7th row of A (FSAL) and sum e = 0 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.14).  A^2, bA and eA are the exact fractions that the tableau
# gives.  (A^2)_ik is zero for k > i - 2, so stage 2 is y + h y' / 5, and
# _AAi lists (A^2)_ik for k <= i - 2.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)  # c_2 .. c_5; c_6 = 1
_AA3 = (9 / 200,)
_AA4 = (-12 / 25, 4 / 5)
_AA5 = (-12248 / 6561, 7208 / 2187, -6784 / 6561)
_AA6 = (-533 / 264, 91 / 22, -56 / 33, 7 / 88)
_BA = (35 / 384, 0.0, 50 / 159, 25 / 192, -243 / 6784, 0.0)
_EA = (611 / 230400, 0.0, -514 / 83475, 391 / 38400, -4617 / 1356800, -11 / 3360)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate(initial: EFState, t_span: tuple[float, float], p: ProblemParams,
              tol: float = 1e-10, stop=None) -> EFTrajectory:
    """Integrate the phase system with an embedded 5(4) pair.

    Error control is per unit step: a step of size h is accepted when the
    embedded estimate satisfies ||err/scale|| <= h, which makes the global
    error scale like tol^(5/4).  Each y is scaled by
    tol * (atol + max(|y_old|, |y_new|)) and its slope by
    tol * (atol + max(|y'_old|, |y'_new|, kappa max(|y_old|, |y_new|))),
    kappa = sqrt(delta^2 - gamma): (y, y'/kappa) on one phase-space scale
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A slope scaled by
    itself would shrink the steps wherever it passes through zero, as y_u'
    does at the turn that shooting stops at; on the decaying tails,
    y' ~ -kappa y, the two scales agree.  It runs forward only: a span with
    t1 < t0 raises ParameterError.  The field is reversible, so the backward
    leg from (y_u, y_u', y_v, y_v') over (t0, t1) is the forward run from the
    flipped state (y_u, -y_u', y_v, -y_v') over (-t0, -t1), with t and both
    slopes negated.  Termination is 'completed', or 'blowup' when a
    component magnitude passes ``BLOWUP_THRESHOLD``, or 'extinction' when a
    component goes negative (the state is clamped at zero and reported).
    Past ``MAX_STEPS`` attempted steps, below a step of ``MIN_STEP``, or when
    a float power overflows (a tiny ``tol`` can do that), it raises
    IntegrationError.

    ``stop(t, y_u, p_u, y_v, p_v)`` is an optional early-exit predicate
    evaluated after every accepted step; a truthy value ends the run with
    termination 'completed'.  The initial state and ``t_span`` are read as
    Python floats.

    The kernel is Dormand-Prince 5(4) in Nystrom form: the field never reads
    y', so the stage states are formed from the stage fields alone and no
    slope stage is built.  It is the same method as the table form
    ``y + h * (a1 * k1 + a2 * k2 + ...)`` on the first-order system, and
    agrees with it to rounding (``test_one_step_matches_the_table_form``,
    against ``dp5_table_step`` in ``tests/reference.py``).  The kernel is
    inlined by hand: the coefficients live in local floats, the field
    (``ef_rhs`` there, with trial stages clamped at zero) is written out at
    every stage, and ``abs``, ``min`` and ``max`` are comparisons.
    """
    if not (0.0 < tol < math.inf):
        raise ParameterError("tolerance must be positive and finite")
    for name in ("y_u", "p_u", "y_v", "p_v"):
        if not math.isfinite(getattr(initial, name)):
            raise ParameterError("initial state must be finite")

    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 <= t1:
        raise ParameterError(f"t_span must run forward, got ({t0:g}, {t1:g})")
    span = t1 - t0

    # locals, read once: the step loop tests them on every step
    blowup_threshold, max_steps = BLOWUP_THRESHOLD, MAX_STEPS
    kappa2 = p.delta * p.delta - p.gamma
    kappa = math.sqrt(kappa2)  # the slope scale of y on the decaying tails
    e1 = p.two_star - 1.0
    ea = p.alpha - 1.0
    eb = p.beta - 1.0
    nua = p.nu * p.alpha
    nub = p.nu * p.beta
    c2, c3, c4, c5 = _C
    g31, = _AA3
    g41, g42 = _AA4
    g51, g52, g53 = _AA5
    g61, g62, g63, g64 = _AA6
    d1, _, d3, d4, d5, _ = _BA
    v1, _, v3, v4, v5, v6 = _EA
    b1, _, b3, b4, b5, b6 = _B
    w1, _, w3, w4, w5, w6, w7 = _E

    # Python floats: numpy scalars would make every step about twice as slow
    yu, pu = float(initial.y_u), float(initial.p_u)
    yv, pv = float(initial.y_v), float(initial.p_v)

    ss = [0.0]
    yus, pus, yvs, pvs = [yu], [pu], [yv], [pv]
    accepted = rejected = 0
    termination = "completed"

    s = 0.0
    atol = 1e-8  # relative to tol; keeps the scale positive on decaying tails
    h = min(MAX_STEP, span, 1e-3) if span > 0 else 0.0
    # float powers raise OverflowError where a product would give inf
    try:
        # f is the field at a stage state, whose components are clamped at
        # zero for the powers (trial stages may dip below zero); the coupling
        # reads one product y_u^(alpha-1) y_v^(beta-1).  Stage 1 is the field
        # at the step's start (FSAL).
        cu = 0.0 if yu < 0.0 else yu
        cv = 0.0 if yv < 0.0 else yv
        fu1 = kappa2 * cu - cu ** e1
        fv1 = kappa2 * cv - cv ** e1
        if nua:
            q = cu ** ea * cv ** eb
            fu1 -= nua * q * cv
            fv1 -= nub * q * cu

        # the remaining sliver below the cutoff is roundoff, not unfinished work
        end_slack = 1e-13 * max(1.0, span)
        while span - s > end_slack:
            if accepted + rejected > max_steps:
                raise IntegrationError(f"step budget exceeded ({max_steps} steps)")
            if span - s < h:
                h = span - s
            hh = h * h
            hc2, hc3, hc4, hc5 = h * c2, h * c3, h * c4, h * c5

            # stage 2
            yu2 = yu + hc2 * pu
            yv2 = yv + hc2 * pv
            cu = 0.0 if yu2 < 0.0 else yu2
            cv = 0.0 if yv2 < 0.0 else yv2
            fu2 = kappa2 * cu - cu ** e1
            fv2 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu2 -= nua * q * cv
                fv2 -= nub * q * cu
            # stage 3
            yu3 = yu + hc3 * pu + hh * (g31 * fu1)
            yv3 = yv + hc3 * pv + hh * (g31 * fv1)
            cu = 0.0 if yu3 < 0.0 else yu3
            cv = 0.0 if yv3 < 0.0 else yv3
            fu3 = kappa2 * cu - cu ** e1
            fv3 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu3 -= nua * q * cv
                fv3 -= nub * q * cu
            # stage 4
            yu4 = yu + hc4 * pu + hh * (g41 * fu1 + g42 * fu2)
            yv4 = yv + hc4 * pv + hh * (g41 * fv1 + g42 * fv2)
            cu = 0.0 if yu4 < 0.0 else yu4
            cv = 0.0 if yv4 < 0.0 else yv4
            fu4 = kappa2 * cu - cu ** e1
            fv4 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu4 -= nua * q * cv
                fv4 -= nub * q * cu
            # stage 5
            yu5 = yu + hc5 * pu + hh * (g51 * fu1 + g52 * fu2 + g53 * fu3)
            yv5 = yv + hc5 * pv + hh * (g51 * fv1 + g52 * fv2 + g53 * fv3)
            cu = 0.0 if yu5 < 0.0 else yu5
            cv = 0.0 if yv5 < 0.0 else yv5
            fu5 = kappa2 * cu - cu ** e1
            fv5 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu5 -= nua * q * cv
                fv5 -= nub * q * cu
            # stage 6 (c_6 = 1)
            yu6 = yu + h * pu + hh * (g61 * fu1 + g62 * fu2 + g63 * fu3 + g64 * fu4)
            yv6 = yv + h * pv + hh * (g61 * fv1 + g62 * fv2 + g63 * fv3 + g64 * fv4)
            cu = 0.0 if yu6 < 0.0 else yu6
            cv = 0.0 if yv6 < 0.0 else yv6
            fu6 = kappa2 * cu - cu ** e1
            fv6 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu6 -= nua * q * cv
                fv6 -= nub * q * cu
            # 5th-order solution
            yu_new = yu + h * pu + hh * (d1 * fu1 + d3 * fu3 + d4 * fu4 + d5 * fu5)
            pu_new = pu + h * (b1 * fu1 + b3 * fu3 + b4 * fu4 + b5 * fu5 + b6 * fu6)
            yv_new = yv + h * pv + hh * (d1 * fv1 + d3 * fv3 + d4 * fv4 + d5 * fv5)
            pv_new = pv + h * (b1 * fv1 + b3 * fv3 + b4 * fv4 + b5 * fv5 + b6 * fv6)
            # stage 7 = field at the new point (FSAL)
            cu = 0.0 if yu_new < 0.0 else yu_new
            cv = 0.0 if yv_new < 0.0 else yv_new
            fu7 = kappa2 * cu - cu ** e1
            fv7 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu7 -= nua * q * cv
                fv7 -= nub * q * cu

            err_yu = hh * (v1 * fu1 + v3 * fu3 + v4 * fu4 + v5 * fu5 + v6 * fu6)
            err_pu = h * (w1 * fu1 + w3 * fu3 + w4 * fu4 + w5 * fu5 + w6 * fu6
                          + w7 * fu7)
            err_yv = hh * (v1 * fv1 + v3 * fv3 + v4 * fv4 + v5 * fv5 + v6 * fv6)
            err_pv = h * (w1 * fv1 + w3 * fv3 + w4 * fv4 + w5 * fv5 + w6 * fv6
                          + w7 * fv7)

            # y scaled by tol * (atol + max(|y_old|, |y_new|)), its slope by
            # tol * (atol + max(|p_old|, |p_new|, kappa max(|y_old|, |y_new|)))
            a = yu if yu >= 0.0 else -yu
            b = yu_new if yu_new >= 0.0 else -yu_new
            a = b if b > a else a
            q_yu = err_yu / (tol * (atol + a))
            a = kappa * a
            b = pu if pu >= 0.0 else -pu
            a = b if b > a else a
            b = pu_new if pu_new >= 0.0 else -pu_new
            q_pu = err_pu / (tol * (atol + (b if b > a else a)))
            a = yv if yv >= 0.0 else -yv
            b = yv_new if yv_new >= 0.0 else -yv_new
            a = b if b > a else a
            q_yv = err_yv / (tol * (atol + a))
            a = kappa * a
            b = pv if pv >= 0.0 else -pv
            a = b if b > a else a
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
                if stop is not None and stop(t0 + s, yu, pu, yv, pv):
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

    return EFTrajectory(
        t=t0 + np.asarray(ss),
        y_u=np.asarray(yus),
        p_u=np.asarray(pus),
        y_v=np.asarray(yvs),
        p_v=np.asarray(pvs),
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


# manifold coordinate rho = x^m / (2 2*) of the shooting start; the turn is at 1
_RHO0 = 0.25


def _manifold_coordinates(p: ProblemParams, s: float) -> tuple[float, float]:
    """Manifold coordinates (x0 y_eq, x0 y_eq / s) of the shooting start.

    y_eq is the equilibrium amplitude of the ray y_v = y_u / s and
    x0 = (2 2* rho0)^(1/m), m = 2* - 2, rho0 = 1/4.  The orbit through the
    start (``_manifold_start``) is e^(kappa (t - t_start)) times these as
    t -> -infinity.
    """
    m = p.two_star - 2.0
    k_u = 1.0 + p.nu * p.alpha * s ** (-p.beta)
    y_eq = (p.kappa * p.kappa / k_u) ** (1.0 / m)
    x_u = (2.0 * p.two_star * _RHO0) ** (1.0 / m) * y_eq
    return x_u, x_u / s


def _manifold_start(p: ProblemParams, s: float) -> EFState:
    """The shooting start on the unstable manifold of the ray y_v = y_u / s.

    On the ray, z = y_u / y_eq solves z'' = kappa^2 (z - z^(2*-1)), whose
    unstable manifold is z = Z(x e^(kappa t)), Z(x) = x (1 + rho)^(-2/m),
    rho = x^m / (2 2*), m = 2* - 2, in closed form for every rho.  The start
    is y_u = y_eq Z(x0), y_u' = kappa y_eq x0 Z'(x0) = kappa y_u (1 - 2 rho0
    / (1 + rho0)), at the coordinates of ``_manifold_coordinates``.  It reads
    2*, kappa, nu, alpha, beta and s, and nothing of the closed-form profile;
    the series of log(Z(x)/x) that the parametrisation method builds from the
    ODE alone (``tests/reference.py``) is its oracle.
    """
    m = p.two_star - 2.0
    x_u, _ = _manifold_coordinates(p, s)
    y0 = x_u * math.exp(-2.0 / m * math.log1p(_RHO0))  # y_eq Z(x0)
    slope = p.kappa * y0 * (1.0 - 2.0 * _RHO0 / (1.0 + _RHO0))  # kappa y_eq x0 Z'(x0)
    return EFState(y_u=y0, p_u=slope, y_v=y0 / s, p_v=slope / s)


def shoot_synchronized(p: ProblemParams, root: CouplingRoot,
                       tol: float = 1e-9) -> EFTrajectory:
    """Trace the decaying orbit of a root from the origin up to its maximum.

    The field y'' = F(y) is reversible and leaves the ray y_v = y_u / s of
    the coupling root s invariant.  An orbit that leaves the origin along the
    ray's unstable direction and turns (y_u' = 0, hence y_v' = 0) is
    therefore symmetric about its turning point: it is the homoclinic, and
    y_u there is its amplitude a*.  One run at ``tol`` traces it, in the
    direction in which it is well conditioned; the closed-form profile is
    not used.
    It starts on the ray's unstable manifold, at coordinate rho = 1/4, from
    its closed form (``_manifold_start``), and stops at the first accepted
    step with y_u' <= 0.

    The result is that half orbit, shifted so that the turn sits at t = 0,
    with the turn in place of the last step's end: y_u = a* and y_v from the
    quintic Hermite interpolants of that step (y, y', y'' at both ends), and
    both slopes 0.  The cubic interpolant, without y'', errs up to 7e-11 at
    tol 1e-9 near gamma = lambda_n, where the steps at the turn are long.

    The manifold's closed form gives the nearly exponential climb up to
    rho = 1/4, DP5 carries the orbit from there through the turn, at rho = 1,
    and a* comes from integration.  The start's coordinate is exact, so
    ``full_verification`` reads the asymptotic limits off the trace.  On
    the exact orbit rho grows like e^(m kappa t), m = 2* - 2, so the turn
    comes log(1/rho0) / m e-folds past the start; the run spans twice that.
    A run that ends without turning (blow-up, extinction, or the whole span)
    raises IntegrationError.  ``tol`` must lie in [1e-12, 1e-4], the range
    over which a* is tested to err by at most tol / 2 relative; one outside
    it raises ParameterError before any step.
    """
    s = root.c_tilde
    if abs(coupling_f(s, p)) > 1e-8 * _f_scale(s, p):
        raise ParameterError("shooting requires a root of the coupling function")
    if not 1e-12 <= tol <= 1e-4:
        raise ParameterError(f"tolerance must be in [1e-12, 1e-4], got {tol:g}")
    start = _manifold_start(p, s)
    t_end = 2.0 * math.log(1.0 / _RHO0) / ((p.two_star - 2.0) * p.kappa)
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
    # the turn replaces the last step's end, in the arrays integrate returned
    traj.t -= float(traj.t[-2]) + th * h
    traj.t[-1] = traj.p_u[-1] = traj.p_v[-1] = 0.0
    traj.y_u[-1], traj.y_v[-1] = top_u, top_v
    return traj


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
    """max over the grid of |t1 + t2 + ...| / max(1, |t1|, |t2|, ...); t1 an array."""
    total = sum(terms[1:], terms[0])  # ((t1 + t2) + t3) + ...
    scale = np.abs(terms[0])
    np.maximum(scale, 1.0, out=scale)
    for term in terms[1:]:
        np.maximum(scale, np.abs(term), out=scale)
    return float(np.max(np.abs(total) / scale))


def _grid_units(profile, log_rho):
    """(w, 1 - w, y^m) of ``profile`` at ``log_rho``, the logs of rho = r/mu0.

    The bounded units at log rho (``ScalarProfile._bounded_units``), with
    y^m = exp(m log y), m = 2* - 2, from the closed form's log value.  They
    depend on the parameters alone, so every family of one parameter set
    reads the same units: ``full_verification`` builds them once for its
    four encodings of every family, on the logs of its own grid.
    """
    w, om, log_y = profile._bounded_units(log_rho)
    return w, om, np.exp((profile.params.two_star - 2.0) * log_y)


def _encoding_residual(fam: SynchronizedFamily, tau: float, potential: float,
                       grid, units=None) -> tuple[float, float]:
    """Max normalized residual of the encoding of the radial system for g = r^tau u.

    Each equation g'' + (n-1-2 tau) g'/r + potential g/r^2
    + r^(-m tau) (g^(2*-1) + coupling), m = 2* - 2, is divided by c g / r^2,
    c the component's constant.  On ``grid``, which holds rho = r/mu0, that
    leaves five terms bounded at every n and every mu0 (``profiles``):

        chi^2 - chi - 2 kappa q w (1 - w),   (n-1-2 tau) chi,   potential,
        c^m y^m,   nu alpha c^(alpha-2) c_other^beta y^m,

    y = r^delta U, whose m-th power is exp(m log y), from the closed form's
    log value; ``units`` are (w, 1 - w, y^m), ``_grid_units`` at the logs of
    ``grid``, computed here, after ``grid`` is checked, when not given.  The coefficients of the last two
    terms, c^m and nu alpha c^(alpha-2) c_other^beta, are those of the
    family's equation of the constants system (``verify_constants_system``),
    whose left side is their sum; a wrong c1 or c2 shows as a wrong multiple
    of y^m.  chi is
    written against the root tau lies nearer to, so that it is a product,
    not a cancellation, where w or 1 - w is small.  The sum is normalized
    pointwise by the largest term magnitude, floored at 1 because every term
    vanishes in the tails.
    """
    p = fam.profile.params
    m = p.two_star - 2.0
    if units is None:
        units = _grid_units(fam.profile, np.log(_as_radii(grid)))
    w, om, y_m = units
    if tau - p.tau1 <= p.kappa:
        chi = (tau - p.tau1) - 2.0 * p.kappa * w
    else:
        chi = (tau - p.tau2) + 2.0 * p.kappa * om
    second = chi * chi - chi - 2.0 * p.kappa * fam.profile._q * w * om
    first = (p.n - 1.0 - 2.0 * tau) * chi
    # the three terms that both equations share, summed and bounded once
    head = second + first + potential
    head_scale = np.maximum(np.abs(second), np.abs(first))
    np.maximum(head_scale, max(1.0, abs(potential)), out=head_scale)
    c1, c2 = fam.c1, fam.c2
    residuals = []
    for own, coupled in ((c1 ** m, p.nu * p.alpha * c1 ** (p.alpha - 2.0) * c2 ** p.beta),
                         (c2 ** m, p.nu * p.beta * c1 ** p.alpha * c2 ** (p.beta - 2.0))):
        # y^m > 0, so the larger of the two terms is max(own, coupled) y^m
        scale = np.maximum(head_scale, max(own, coupled) * y_m)
        residuals.append(float(np.max(np.abs(head + (own + coupled) * y_m) / scale)))
    return tuple(residuals)


def radial_system_residual(fam: SynchronizedFamily, grid,
                           units=None) -> tuple[float, float]:
    """Max normalized residual of the radial system for (c1 W, c2 W) on rho = r/mu0.

    Each equation is u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1) + coupling.
    For every tau, r^tau (u'' + (n-1)u'/r + gamma u/r^2) = g'' +
    (n-1-2 tau) g'/r + (tau^2 - (n-2) tau + gamma) g/r^2 with g = r^tau u,
    so this is the weighted encoding at tau = 0, with potential gamma.
    ``grid`` holds radii relative to the family's scale, so mu0 = 1e-+300
    forms no radius outside the doubles; the values do not depend on mu0.
    ``units``, when given, are ``_grid_units`` at the logs of ``grid``,
    shared with the other encodings; the value is the same bits either way.
    """
    return _encoding_residual(fam, 0.0, fam.profile.params.gamma, grid, units)


def weighted_system_residual(fam: SynchronizedFamily, tau: float, grid,
                             units=None) -> tuple[float, float]:
    """Max normalized residual of the weighted encoding for g = r^tau u on rho = r/mu0.

    By the identity of ``radial_system_residual``, the potential of the
    weighted equation is tau^2 - (n-2) tau + gamma.  Requires tau to solve
    tau^2 - (n-2) tau + gamma = 0 (either root), so that the potential
    vanishes; it is passed as exactly 0, since computing it would leave
    roundoff next to terms that vanish as rho -> 0 or rho -> infinity.
    ``units`` are as in ``radial_system_residual``.
    """
    p = fam.profile.params
    char = tau * tau - (p.n - 2.0) * tau + p.gamma
    if abs(char) > 1e-10 * max(1.0, tau * tau, p.gamma):
        raise ParameterError(
            f"tau={tau} is not a root of the characteristic equation "
            f"(residual {char:.3e})"
        )
    return _encoding_residual(fam, tau, 0.0, grid, units)


def ef_system_residual(fam: SynchronizedFamily, grid,
                       units=None) -> tuple[float, float]:
    """Max normalized residual of the phase-plane encoding on rho = r/mu0.

    Read in t = log r, the weighted encoding at tau = delta is the phase-plane
    system for y = r^delta u: n-1-2 delta = 1, so r^2 (g'' + g'/r) = y'',
    r^(-m delta) = r^(-2), and the potential delta^2 - (n-2) delta + gamma
    is -kappa^2.  So each equation y'' - kappa^2 y + y^(2*-1) + coupling is
    divided by c y, in the bounded terms of ``_encoding_residual``, and the
    values do not depend on mu0.  ``units`` are as in
    ``radial_system_residual``.
    """
    p = fam.profile.params
    return _encoding_residual(fam, p.delta, p.gamma - p.delta * p.delta, grid, units)
