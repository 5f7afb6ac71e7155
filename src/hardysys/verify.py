"""Finite-difference oracles, convergence studies, and the bundled verifier.

``full_verification`` runs every closed-form family of a parameter set
through the whole battery of checks and returns a deterministic report.
Check names map one-to-one onto the invariants they measure:

==========================  ====================================================
check name                  invariant
==========================  ====================================================
constants_residual          algebraic constants system residuals <= 1e-12
ratio_identity              c1/c2 equals the coupling root to 1e-13
radial_residual             radial encoding residual <= 1e-9
weighted_residual_tau1      weighted encoding (inner exponent) <= 1e-9
weighted_residual_tau2      weighted encoding (outer exponent) <= 1e-9
ef_residual                 phase-plane encoding residual <= 1e-9
integration_deviation       integrated orbit within 1e-6 of the closed form
proportionality_defect      sup |y_u - s y_v| / sup y_u <= 1e-8 (integrated)
simultaneous_max_gap        argmax(y_u) and argmax(y_v) within 1e-6
max_location_error          common argmax within 1e-6 of log(mu0)
quotient_limit_minus        y_u/y_v at t0-10 within 1e-6 of the root
quotient_limit_plus         y_u/y_v at t0+10 within 1e-6 of the root
asymptotic_u0               extrapolated origin limit within 1e-6 of closed form
asymptotic_uinf             extrapolated far-field limit within 1e-6
asymptotic_ratio            u0/v0 equals c1/c2 to 1e-10
shooting_recovery           shooting recovers c1 A 2^-delta within 1e-6
energy_invariant            |H| <= 1e-10 along the scalar homoclinic (nu=0)
==========================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import classify, verify_constants_system
from .emdenfowler import (ShootConfig, ef_system_residual, exact_ef_solution,
                          integrate, proportionality_defect,
                          radial_system_residual, shoot_synchronized,
                          simultaneous_max_check, weighted_system_residual,
                          _closed_form_arrays, _system_constants)
from .errors import ConvergenceError, DomainError
from .params import ProblemParams
from .profiles import asymptotic_limits


@dataclass(frozen=True)
class RadialGrid:
    """A strictly increasing positive radius grid."""

    points: np.ndarray
    spacing: str = "custom"  # 'log-uniform' | 'custom'

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("grid needs at least two radii")
        if np.any(pts <= 0) or np.any(~np.isfinite(pts)):
            raise DomainError("grid radii must be positive and finite")
        if np.any(np.diff(pts) <= 0):
            raise DomainError("grid radii must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def log_uniform(cls, lo: float = 1e-6, hi: float = 1e6,
                    num: int = 2048) -> "RadialGrid":
        return cls(points=np.geomspace(lo, hi, num), spacing="log-uniform")


def fd_derivative(u, r: float, h: float, order: int = 1) -> float:
    """Centered finite difference of first or second order, error O(h^2).

    Used as the independent oracle against the analytic derivatives.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h <= 0:
        raise DomainError("step must be positive")
    if r - 2 * h <= 0:
        raise DomainError("stencil leaves the domain (need r - 2h > 0)")
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Deterministic bundle of every per-family check."""

    params: ProblemParams
    mu0: float
    n_families: int
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            "hardysys verification report",
            f"n: {self.params.n}",
            f"gamma1: {self.params.gamma1:.17g}",
            f"gamma2: {self.params.gamma2:.17g}",
            f"nu: {self.params.nu:.17g}",
            f"alpha: {self.params.alpha:.17g}",
            f"beta: {self.params.beta:.17g}",
            f"mu0: {self.mu0:.17g}",
            f"families: {self.n_families}",
        ]
        for c in self.checks:
            lines.append(
                f"check: {c.name} value={c.value:.17g} "
                f"threshold={c.threshold:.17g} pass={'yes' if c.passed else 'no'}"
            )
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "gamma1": self.params.gamma1,
                "gamma2": self.params.gamma2,
                "nu": self.params.nu,
                "alpha": self.params.alpha,
                "beta": self.params.beta,
            },
            "mu0": self.mu0,
            "families": self.n_families,
            "checks": [
                {"name": c.name,
                 # strict-JSON friendly: non-finite measurements become null
                 "value": c.value if math.isfinite(c.value) else None,
                 "threshold": c.threshold,
                 "passed": c.passed}
                for c in self.checks
            ],
            "overall": self.overall,
        }


def _quotient_gap(traj, index: int, s: float) -> float:
    """Relative gap of y_u/y_v from s at one endpoint; inf on a dead component."""
    denom = traj.y_v[index]
    if denom == 0.0:
        return math.inf
    return abs(traj.y_u[index] / denom - s) / s


def _merge_legs(backward, forward):
    """Concatenate a backward and a forward leg into one increasing trajectory."""
    t = np.concatenate([backward.t[::-1][:-1], forward.t])
    cols = {}
    for name in ("y_u", "p_u", "y_v", "p_v"):
        cols[name] = np.concatenate(
            [getattr(backward, name)[::-1][:-1], getattr(forward, name)])
    return replace(forward, t=t, **cols)


def full_verification(p: ProblemParams, mu0: float = 1.0, *,
                      integration_tol: float = 1e-10,
                      shoot_config: ShootConfig | None = None) -> VerificationReport:
    """Classify the parameter set and run every check on every family.

    Individual check failures are recorded, not raised; classification errors
    propagate.

    Each family is integrated once, over ten log-radius units from its
    maximum at t0 = log mu0, and the backward leg is that run mirrored.  The
    field y'' = F(y) does not involve y', and ``integrate`` runs a backward
    span as a forward one with the slopes negated.  The closed-form start
    has slopes of exactly +-0 (theta = 0), so negating them changes no
    operation: the backward run has the same y_u, y_v and step counts, bit
    for bit, and its slopes are the forward ones negated.
    """
    families = classify(p, mu0)
    grid = RadialGrid.log_uniform()
    d = p.derived()
    t0 = math.log(mu0)
    checks: list[CheckResult] = []

    def add(name: str, value: float, threshold: float) -> None:
        value = float(value)
        passed = math.isfinite(value) and value <= threshold
        checks.append(CheckResult(name=name, value=value, threshold=threshold,
                                  passed=passed))

    for idx, fam in enumerate(families):
        tag = f"f{idx}."
        s = fam.c_tilde

        res1, res2 = verify_constants_system(fam.c1, fam.c2, p)
        add(tag + "constants_residual", max(res1, res2), 1e-12)
        add(tag + "ratio_identity", abs(fam.c1 / fam.c2 - s) / s, 1e-13)

        ru, rv = radial_system_residual(fam, grid.points)
        add(tag + "radial_residual", max(ru, rv), 1e-9)
        for tau, label in ((d.tau1, "tau1"), (d.tau2, "tau2")):
            wu, wv = weighted_system_residual(fam, tau, grid.points)
            add(tag + f"weighted_residual_{label}", max(wu, wv), 1e-9)

        t_grid = np.linspace(t0 - 14.0, t0 + 14.0, 801)
        eu, ev = ef_system_residual(fam, t_grid)
        add(tag + "ef_residual", max(eu, ev), 1e-9)

        # one run serves both legs (see the docstring)
        run = integrate(exact_ef_solution(fam, t0), (0.0, 10.0), p,
                        tol=integration_tol)
        forward = replace(run, t=t0 + run.t)
        backward = replace(run, t=t0 - run.t, p_u=-run.p_u, p_v=-run.p_v)
        deviation = 0.0
        for leg in (forward, backward):
            ref_u, _, ref_v, _ = _closed_form_arrays(fam, leg.t)
            deviation = max(deviation,
                            float(np.max(np.abs(leg.y_u - ref_u))),
                            float(np.max(np.abs(leg.y_v - ref_v))))
        add(tag + "integration_deviation", deviation, 1e-6)

        merged = _merge_legs(backward, forward)
        add(tag + "proportionality_defect", proportionality_defect(merged, s), 1e-8)
        t_u, t_v = simultaneous_max_check(merged)
        add(tag + "simultaneous_max_gap", abs(t_u - t_v), 1e-6)
        add(tag + "max_location_error", max(abs(t_u - t0), abs(t_v - t0)), 1e-6)
        add(tag + "quotient_limit_minus", _quotient_gap(merged, 0, s), 1e-6)
        add(tag + "quotient_limit_plus", _quotient_gap(merged, -1, s), 1e-6)

        limits = asymptotic_limits(fam)
        amp = d.amplitude
        u0_exact = fam.c1 * amp * mu0 ** (-d.kappa)
        uinf_exact = fam.c1 * amp * mu0 ** d.kappa
        add(tag + "asymptotic_u0", abs(limits.u0 - u0_exact) / u0_exact, 1e-6)
        add(tag + "asymptotic_uinf", abs(limits.u_inf - uinf_exact) / uinf_exact, 1e-6)
        add(tag + "asymptotic_ratio",
            abs(limits.u0 / limits.v0 - fam.c1 / fam.c2) / (fam.c1 / fam.c2), 1e-10)

        recovered = shoot_synchronized(p, fam.root, shoot_config)
        target = fam.c1 * amp * 2.0 ** (-d.delta)
        add(tag + "shooting_recovery", abs(recovered - target) / target, 1e-6)

        if p.nu == 0.0:
            # |H| of ef_energy at each point, its constants computed once
            kappa2, ts = _system_constants(p)[:2]
            y_u, p_u, _, _ = _closed_form_arrays(fam, t_grid)
            h_vals = [abs(0.5 * q * q - 0.5 * kappa2 * y * y + y ** ts / ts)
                      for y, q in zip(y_u.tolist(), p_u.tolist())]
            add(tag + "energy_invariant", max(h_vals), 1e-10)

    return VerificationReport(params=p, mu0=float(mu0),
                              n_families=len(families), checks=tuple(checks))
