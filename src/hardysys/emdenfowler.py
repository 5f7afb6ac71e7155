"""Log-radius phase-plane form of the radial system.

With y(t) = r^delta u(r), t = log r, the radial system becomes the autonomous
pair

    y_u'' = kappa^2 y_u - y_u^(2*-1) - nu alpha y_u^(alpha-1) y_v^beta
    y_v'' = kappa^2 y_v - y_v^(2*-1) - nu beta  y_u^alpha y_v^(beta-1)

with kappa^2 = lambda_n - gamma, whose positive decaying orbits are homoclinic
loops of the origin with exponential rate kappa.  This module provides the
closed-form synchronized trajectory as a function of log rho = log(r/mu0),
an embedded Dormand-Prince 5(4) integrator in Nystrom form (the field does
not read y', and the unrolled stages form it inline) with error-per-unit-step
control (global error scales like tol^(5/4), i.e. better than a factor 16 per
tolerance decade), the shooting trace of each homoclinic orbit from the
origin up to its maximum (an oracle independent of the closed form, with its
turn at rho = 1), and the residual of the radial equations at the closed
form, in any of their encodings (plain, weighted, phase plane): one function
of rho, under one normalization, evaluated on log rho as the closed form is.

Everything here runs on Python floats: the integrator and the shot return
their orbit as lists, and the closed form, the residuals and the
proportionality defect take and return floats or lists of them.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import IntegrationError, ParameterError
from .coupling import SynchronizedFamily, CouplingRoot, _check_root
from .params import ProblemParams

BLOWUP_THRESHOLD = 1e8
MAX_STEPS = 2_000_000
MIN_STEP = 1e-14
MAX_STEP = 1.0


class EFState(namedtuple("EFState", "y_u p_u y_v p_v")):
    """Phase state (y_u, y_u', y_v, y_v') at one log-radius."""

    __slots__ = ()


class EFTrajectory(namedtuple(
        "EFTrajectory", "t y_u p_u y_v p_v accepted rejected termination")):
    """An integrated trajectory with step statistics.

    The five fields t, y_u, p_u, y_v and p_v are lists of Python floats, the
    start and one entry per accepted step; ``termination`` is 'completed',
    'blowup' or 'extinction'.
    """

    __slots__ = ()


# --- closed-form synchronized trajectories ---------------------------------


def _closed_form_arrays(fam: SynchronizedFamily, log_rho):
    """Lists (y_u, p_u, y_v, p_v) of the closed form y = c r^delta U, one entry
    per log rho = log(r/mu0) in ``log_rho``.

    From the profile's bounded units: y = c e^(log y) and
    y' = kappa (1 - 2w) y, w and 1 - w the exponentials of their logs, both
    stable for any |log rho|.  Nothing here reads mu0; the maximum sits at
    log rho = 0.
    """
    kappa, c1, c2 = fam.profile.params.kappa, fam.c1, fam.c2
    exp = math.exp
    y_u, p_u, y_v, p_v = [], [], [], []
    for log_w, log_om, log_y in zip(*fam.profile._bounded_units(log_rho)):
        base, slope = exp(log_y), kappa * (exp(log_om) - exp(log_w))
        yu, yv = c1 * base, c2 * base
        y_u.append(yu)
        p_u.append(slope * yu)
        y_v.append(yv)
        p_v.append(slope * yv)
    return y_u, p_u, y_v, p_v


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


def _field(p: ProblemParams):
    """The field (y_u'', y_v'') at (y_u, y_v), as a closure over ``p``.

    Both components are clamped at zero for the powers (trial stages may dip
    below zero), and the coupling reads one product
    y_u^(alpha-1) y_v^(beta-1).
    """
    kappa2 = p.lambda_n - p.gamma
    e1, ea, eb = p.two_star - 1.0, p.alpha - 1.0, p.beta - 1.0
    nua, nub = p.nu * p.alpha, p.nu * p.beta

    def field(yu: float, yv: float) -> tuple[float, float]:
        cu = 0.0 if yu < 0.0 else yu
        cv = 0.0 if yv < 0.0 else yv
        fu = kappa2 * cu - cu ** e1
        fv = kappa2 * cv - cv ** e1
        if nua:
            q = cu ** ea * cv ** eb
            fu -= nua * q * cv
            fv -= nub * q * cu
        return fu, fv

    return field


def integrate(initial: EFState, t_span: tuple[float, float], p: ProblemParams,
              tol: float = 1e-10, stop=None) -> EFTrajectory:
    """Integrate the phase system with an embedded 5(4) pair.

    Error control is per unit step: a step of size h is accepted when the
    embedded estimate satisfies ||err/scale|| <= h, which makes the global
    error scale like tol^(5/4).  Each y is scaled by
    tol * (atol + max(|y_old|, |y_new|)) and its slope by
    tol * (atol + max(|y'_old|, |y'_new|, kappa max(|y_old|, |y_new|))),
    kappa = sqrt(lambda_n - gamma): (y, y'/kappa) on one phase-space scale
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A slope scaled by
    itself would shrink the steps wherever it passes through zero, as y_u'
    does at the turn that shooting stops at; on the decaying tails,
    y' ~ -kappa y, the two scales agree.  It runs forward only: a span with
    t1 < t0, or of a length that is not finite, raises ParameterError.  The
    field is reversible, so the backward leg from (y_u, y_u', y_v, y_v') over
    (t0, t1) is the forward run from the flipped state (y_u, -y_u', y_v,
    -y_v') over (-t0, -t1), with t and both slopes negated.  Termination is
    'completed', or 'blowup' when a component magnitude passes
    ``BLOWUP_THRESHOLD``, or 'extinction' when a component goes negative
    (the state is clamped at zero and reported).
    Past ``MAX_STEPS`` attempted steps, below a step of ``MIN_STEP``, or when
    a float power overflows (a tiny ``tol`` can do that), it raises
    IntegrationError.

    ``stop(t, y_u, p_u, y_v, p_v)`` is an optional early-exit predicate
    evaluated after every accepted step; a truthy value ends the run with
    termination 'completed'.  The initial state and ``t_span`` are read as
    Python floats, and the result's fields are lists of Python floats (see
    ``EFTrajectory``).

    The kernel is Dormand-Prince 5(4) in Nystrom form: the field never reads
    y', so the stage states are formed from the stage fields alone and no
    slope stage is built.  It is the same method as the table form
    ``y + h * (a1 * k1 + a2 * k2 + ...)`` on the first-order system, and
    agrees with it to rounding (``test_one_step_matches_the_table_form``,
    against ``dp5_table_step`` in ``tests/reference.py``).  The step is
    unrolled by hand: the coefficients and the field's constants live in
    local floats, and ``abs``, ``min`` and ``max`` are comparisons.  Stage 1,
    the field at the start, calls ``_field``; stages 2 to 7 form the same
    field inline, with its floating-point operations in its order: each
    clamps a trial state below zero at zero, forms kappa^2 y - y^(2*-1) and,
    under coupling, one product y_u^(alpha-1) y_v^(beta-1).  A call per
    stage cost about a tenth of a ``verify`` (ROADMAP aim 2).
    """
    if not (0.0 < tol < math.inf):
        raise ParameterError("tolerance must be positive and finite")
    # Python floats: numpy scalars would make every step about twice as slow
    yu, pu, yv, pv = start = tuple(map(float, initial))
    if not all(map(math.isfinite, start)):
        raise ParameterError("initial state must be finite")

    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 <= t1:
        raise ParameterError(f"t_span must run forward, got ({t0:g}, {t1:g})")
    span = t1 - t0
    if not math.isfinite(span):
        raise ParameterError(f"t_span must be finite, got ({t0:g}, {t1:g})")

    # locals, read once: the step loop tests them on every step
    blowup_threshold, max_steps = BLOWUP_THRESHOLD, MAX_STEPS
    kappa = p.kappa  # the slope scale of y on the tails
    # the field's constants, as _field reads them: stages 2 to 7 form it inline
    kappa2 = p.lambda_n - p.gamma
    e1, ea, eb = p.two_star - 1.0, p.alpha - 1.0, p.beta - 1.0
    nua, nub = p.nu * p.alpha, p.nu * p.beta
    c2, c3, c4, c5 = _C
    g31, = _AA3
    g41, g42 = _AA4
    g51, g52, g53 = _AA5
    g61, g62, g63, g64 = _AA6
    d1, _, d3, d4, d5, _ = _BA
    v1, _, v3, v4, v5, v6 = _EA
    b1, _, b3, b4, b5, b6 = _B
    w1, _, w3, w4, w5, w6, w7 = _E

    ts, yus, pus, yvs, pvs = [t0], [yu], [pu], [yv], [pv]
    accepted = rejected = 0
    termination = "completed"

    s = 0.0
    atol = 1e-8  # relative to tol; keeps the scale positive on decaying tails
    h = min(MAX_STEP, span, 1e-3)
    # float powers raise OverflowError where a product would give inf
    try:
        fu1, fv1 = _field(p)(yu, yv)  # stage 1, the field at the step's start (FSAL)

        # the remaining sliver below the cutoff is roundoff, not unfinished work
        end_slack = 1e-13 * max(1.0, span)
        while span - s > end_slack:
            if accepted + rejected > max_steps:
                raise IntegrationError(f"step budget exceeded ({max_steps} steps)")
            if span - s < h:
                h = span - s
            hh = h * h
            hc2, hc3, hc4, hc5 = h * c2, h * c3, h * c4, h * c5

            # stages 2 to 6, each the field at its trial state clamped at zero
            cu = yu + hc2 * pu
            cv = yv + hc2 * pv
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
            fu2 = kappa2 * cu - cu ** e1
            fv2 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu2 -= nua * q * cv
                fv2 -= nub * q * cu

            cu = yu + hc3 * pu + hh * (g31 * fu1)
            cv = yv + hc3 * pv + hh * (g31 * fv1)
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
            fu3 = kappa2 * cu - cu ** e1
            fv3 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu3 -= nua * q * cv
                fv3 -= nub * q * cu

            cu = yu + hc4 * pu + hh * (g41 * fu1 + g42 * fu2)
            cv = yv + hc4 * pv + hh * (g41 * fv1 + g42 * fv2)
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
            fu4 = kappa2 * cu - cu ** e1
            fv4 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu4 -= nua * q * cv
                fv4 -= nub * q * cu

            cu = yu + hc5 * pu + hh * (g51 * fu1 + g52 * fu2 + g53 * fu3)
            cv = yv + hc5 * pv + hh * (g51 * fv1 + g52 * fv2 + g53 * fv3)
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
            fu5 = kappa2 * cu - cu ** e1
            fv5 = kappa2 * cv - cv ** e1
            if nua:
                q = cu ** ea * cv ** eb
                fu5 -= nua * q * cv
                fv5 -= nub * q * cu

            # c_6 = 1
            cu = yu + h * pu + hh * (g61 * fu1 + g62 * fu2 + g63 * fu3 + g64 * fu4)
            cv = yv + h * pv + hh * (g61 * fv1 + g62 * fv2 + g63 * fv3 + g64 * fv4)
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
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
            # stage 7, the field at the new point (FSAL)
            cu = yu_new
            cv = yv_new
            if cu < 0.0:
                cu = 0.0
            if cv < 0.0:
                cv = 0.0
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
            # the next step's factor, clamped to [0.2, 5]: 5 at enorm = 0, 0.2
            # at a NaN enorm, and below 0.9 on a rejection, where enorm > h
            factor = 0.9 * (h / enorm) ** 0.25 if enorm else 5.0
            factor = factor if factor > 0.2 else 0.2
            factor = factor if factor < 5.0 else 5.0

            if enorm <= h:  # error-per-unit-step acceptance
                s += h
                yu, pu, yv, pv = yu_new, pu_new, yv_new, pv_new
                fu1, fv1 = fu7, fv7
                accepted += 1
                if yu < 0.0 or yv < 0.0:
                    yu, yv = max(yu, 0.0), max(yv, 0.0)
                    termination = "extinction"
                elif yu > blowup_threshold or yv > blowup_threshold:
                    termination = "blowup"
                ts.append(t0 + s)
                yus.append(yu)
                pus.append(pu)
                yvs.append(yv)
                pvs.append(pv)
                if termination != "completed" or stop is not None and stop(
                        ts[-1], yu, pu, yv, pv):
                    break
                h = h * factor
                if not h < MAX_STEP:
                    h = MAX_STEP
            else:
                rejected += 1
                h = h * factor
                if h < MIN_STEP:
                    raise IntegrationError(f"step size underflow at t-offset {s:.6g}")
    except OverflowError as exc:
        raise IntegrationError(f"floating-point overflow at t-offset {s:.6g}") from exc

    return EFTrajectory(
        t=ts,
        y_u=yus,
        p_u=pus,
        y_v=yvs,
        p_v=pvs,
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


def _manifold_coordinate(p: ProblemParams, s: float) -> float:
    """Manifold coordinate x0 y_eq of y_u at the shooting start.

    y_eq is the equilibrium amplitude of the ray y_v = y_u / s, y_eq^m =
    kappa^2 / K with K = 1 + nu alpha s^(-beta), and x0 = (2 2* rho0)^(1/m),
    m = 2* - 2, rho0 = 1/4.  The orbit through the start
    (``_manifold_start``) is e^(kappa (t - t_start)) times (x0 y_eq,
    x0 y_eq / s) as t -> -infinity.  K enters as K^(-1/m) = e^(-log K / m),
    log K = logaddexp(0, log(nu alpha) - beta log s), K = 1 at nu = 0:
    s^(-beta) and K overflow at a tiny root s whose start is a double.
    """
    m = p.two_star - 2.0
    log_k = 0.0
    if p.nu:
        x = math.log(p.nu) + math.log(p.alpha) - p.beta * math.log(s)
        log_k = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
    y_eq = (p.kappa * p.kappa) ** (1.0 / m) * math.exp(-log_k / m)
    return (2.0 * p.two_star * _RHO0) ** (1.0 / m) * y_eq


def _manifold_start(p: ProblemParams, s: float) -> EFState:
    """The shooting start on the unstable manifold of the ray y_v = y_u / s.

    On the ray, z = y_u / y_eq solves z'' = kappa^2 (z - z^(2*-1)), whose
    unstable manifold is z = Z(x e^(kappa t)), Z(x) = x (1 + rho)^(-2/m),
    rho = x^m / (2 2*), m = 2* - 2, in closed form for every rho.  The start
    is y_u = y_eq Z(x0), y_u' = kappa y_eq x0 Z'(x0) = kappa y_u (1 - 2 rho0
    / (1 + rho0)), at the coordinate of ``_manifold_coordinate``.  It reads
    2*, kappa, nu, alpha, beta and s, and nothing of the closed-form profile;
    the series of log(Z(x)/x) that the parametrisation method builds from the
    ODE alone (``tests/reference.py``) is its oracle.
    """
    m = p.two_star - 2.0
    x_u = _manifold_coordinate(p, s)
    y0 = x_u * math.exp(-2.0 / m * math.log1p(_RHO0))  # y_eq Z(x0)
    slope = p.kappa * y0 * (1.0 - 2.0 * _RHO0 / (1.0 + _RHO0))  # kappa y_eq x0 Z'(x0)
    return EFState(y_u=y0, p_u=slope, y_v=y0 / s, p_v=slope / s)


def _check_shooting_tol(tol: float) -> None:
    """Refuse a shooting tolerance outside [1e-12, 1e-4] (NaN included)."""
    if not 1e-12 <= tol <= 1e-4:
        raise ParameterError(f"tolerance must be in [1e-12, 1e-4], got {tol:g}")


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
    both slopes 0.  Its fields are lists of Python floats, as ``integrate``
    returns them.  The cubic interpolant, without y'', errs up to 7e-11 at
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
    it raises ParameterError before any step (``_check_shooting_tol``, which
    ``full_verification`` and the ``shoot`` command also run before their
    root search).  So does an s that ``constants_from_root`` would refuse as
    no root of f (``coupling._check_root``).
    """
    s = root.c_tilde
    _check_root(s, p)
    _check_shooting_tol(tol)
    start = _manifold_start(p, s)
    t_end = 2.0 * math.log(1.0 / _RHO0) / ((p.two_star - 2.0) * p.kappa)
    traj = integrate(start, (0.0, t_end), p, tol=tol,
                     stop=lambda t, yu, pu, yv, pv: pu <= 0.0)
    p1 = traj.p_u[-1]
    if traj.termination != "completed" or p1 > 0.0:
        raise IntegrationError(
            f"the unstable manifold did not turn ({traj.termination}, "
            f"y_u' = {p1:.6g} at t = {traj.t[-1]:.6g})")
    # (y, y', y'') of each component at both ends of the last step
    field = _field(p)
    fu0, fv0 = field(traj.y_u[-2], traj.y_v[-2])
    fu1, fv1 = field(traj.y_u[-1], traj.y_v[-1])
    h = traj.t[-1] - traj.t[-2]
    th, top_u, top_v = _quintic_turn(
        h, (traj.y_u[-2], traj.p_u[-2], fu0, traj.y_u[-1], traj.p_u[-1], fu1),
        (traj.y_v[-2], traj.p_v[-2], fv0, traj.y_v[-1], traj.p_v[-1], fv1))
    # the turn replaces the last step's end
    shift = traj.t[-2] + th * h
    return traj._replace(t=[t - shift for t in traj.t[:-1]] + [0.0],
                         y_u=traj.y_u[:-1] + [top_u], p_u=traj.p_u[:-1] + [0.0],
                         y_v=traj.y_v[:-1] + [top_v], p_v=traj.p_v[:-1] + [0.0])


# --- trajectory diagnostics ---------------------------------------------------


def proportionality_defect(traj: EFTrajectory, c_tilde: float) -> float:
    """sup |y_u - c_tilde * y_v| normalized by sup y_u, and 0 where y_u is 0
    throughout; ParameterError for an empty trajectory."""
    if len(traj.t) == 0:
        raise ParameterError("empty trajectory")
    top = max(traj.y_u)
    if top == 0.0:
        return 0.0
    return max(abs(u - c_tilde * v) for u, v in zip(traj.y_u, traj.y_v)) / top


# --- residuals of the radial encodings -----------------------------------------


def _encoding_residual(fam: SynchronizedFamily, tau: float, potential: float,
                       log_rho) -> tuple[float, float]:
    """Max normalized residual of the encoding of the radial system for g = r^tau u.

    Each equation g'' + (n-1-2 tau) g'/r + potential g/r^2
    + r^(-m tau) (g^(2*-1) + coupling), m = 2* - 2, is divided by c g / r^2,
    c the component's constant.  At each log rho = log(r/mu0) in
    ``log_rho``, as in ``_closed_form_arrays``, that leaves five terms
    bounded at every n and every mu0 (``profiles``):

        chi^2 - chi - 2 kappa q w (1 - w),   (n-1-2 tau) chi,   potential,
        c^m y^m,   nu alpha c^(alpha-2) c_other^beta y^m,

    w, 1 - w and y^m the exponentials of log w, log(1 - w) and m log y from
    the profile's bounded units.  A log rho that is not finite raises ParameterError.  The
    coefficients of the last two terms, c^m and nu alpha c^(alpha-2)
    c_other^beta, are those of the family's equation of the constants system
    (``verify_constants_system``), whose left side is their sum; a wrong c1
    or c2 shows as a wrong multiple of y^m.  chi is written against the root
    tau lies nearer to, so that it is a product, not a cancellation, where w
    or 1 - w is small.

    The sum is the same function of rho, r^2 (Lu + N(u)) / (c u), at every
    tau; only its rounding depends on tau.  It is normalized pointwise by
    max(1, c^m y^m, nu alpha c^(alpha-2) c_other^beta y^m), the two terms
    that carry c1 and c2, floored at 1 because they vanish in the tails.
    That scale is at most max(1, |terms|) over all five terms, so the value
    is at least that of the same sum under the larger scale.
    """
    p = fam.profile.params
    m = p.two_star - 2.0
    log_rho = [float(x) for x in log_rho]
    if not all(map(math.isfinite, log_rho)):
        raise ParameterError("log rho must be finite")
    c1, c2 = fam.c1, fam.c2
    equations = ((c1 ** m, p.nu * p.alpha * c1 ** (p.alpha - 2.0) * c2 ** p.beta),
                 (c2 ** m, p.nu * p.beta * c1 ** p.alpha * c2 ** (p.beta - 2.0)))
    q = fam.profile._q
    residuals = [0.0, 0.0]
    exp = math.exp
    for log_w, log_om, log_y in zip(*fam.profile._bounded_units(log_rho)):
        w, om, y_m = exp(log_w), exp(log_om), exp(m * log_y)
        if tau - p.tau1 <= p.kappa:
            chi = (tau - p.tau1) - 2.0 * p.kappa * w
        else:
            chi = (tau - p.tau2) + 2.0 * p.kappa * om
        # the three terms that both equations share
        head = (chi * chi - chi - 2.0 * p.kappa * q * w * om
                + (p.n - 1.0 - 2.0 * tau) * chi + potential)
        for i, (own, coupled) in enumerate(equations):
            # y^m > 0, so the larger of the two terms is max(own, coupled) y^m
            value = abs(head + (own + coupled) * y_m) / max(max(own, coupled) * y_m, 1.0)
            residuals[i] = max(residuals[i], value)
    return tuple(residuals)


def radial_system_residual(fam: SynchronizedFamily, log_rho) -> tuple[float, float]:
    """Max normalized residual of the radial system for (c1 W, c2 W) at ``log_rho``.

    Each equation is u'' + (n-1)u'/r + gamma u/r^2 + u^(2*-1) + coupling.
    For every tau, r^tau (u'' + (n-1)u'/r + gamma u/r^2) = g'' +
    (n-1-2 tau) g'/r + (tau^2 - (n-2) tau + gamma) g/r^2 with g = r^tau u,
    so this is the weighted encoding at tau = 0, with potential gamma.
    ``log_rho`` holds log(r/mu0), relative to the family's scale, so no
    radius is formed and the values do not depend on mu0.
    """
    return _encoding_residual(fam, 0.0, fam.profile.params.gamma, log_rho)


def weighted_system_residual(fam: SynchronizedFamily, tau: float,
                             log_rho) -> tuple[float, float]:
    """Max normalized residual of the weighted encoding for g = r^tau u at ``log_rho``.

    By the identity of ``radial_system_residual``, the potential of the
    weighted equation is tau^2 - (n-2) tau + gamma.  Requires tau to solve
    tau^2 - (n-2) tau + gamma = 0 (either root), so that the potential
    vanishes; it is passed as exactly 0, since computing it would leave
    roundoff next to terms that vanish as rho -> 0 or rho -> infinity.
    No command reads it: at the closed form it restates the constants
    system (``verify``'s docstring says how).
    """
    p = fam.profile.params
    char = tau * tau - (p.n - 2.0) * tau + p.gamma
    if abs(char) > 1e-10 * max(1.0, tau * tau, p.gamma):
        raise ParameterError(
            f"tau={tau} is not a root of the characteristic equation "
            f"(residual {char:.3e})"
        )
    return _encoding_residual(fam, tau, 0.0, log_rho)


def ef_system_residual(fam: SynchronizedFamily, log_rho) -> tuple[float, float]:
    """Max normalized residual of the phase-plane encoding at ``log_rho``.

    Read in t = log r, the weighted encoding at tau = delta is the phase-plane
    system for y = r^delta u: n-1-2 delta = 1, so r^2 (g'' + g'/r) = y'',
    r^(-m delta) = r^(-2), and the potential delta^2 - (n-2) delta + gamma
    is -kappa^2.  So each equation y'' - kappa^2 y + y^(2*-1) + coupling is
    divided by c y, in the bounded terms of ``_encoding_residual``, and the
    values do not depend on mu0.
    """
    p = fam.profile.params
    return _encoding_residual(fam, p.delta, p.gamma - p.lambda_n, log_rho)
