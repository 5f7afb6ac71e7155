"""The bundled verifier.

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
asymptotic_u0               origin limit, sampled at mu0 10^-km (k = 4..8,
                            m = max(1, 1/q), q = 2 kappa/delta) and
                            extrapolated, within 1e-6 of the closed form
asymptotic_uinf             far-field limit, sampled at mu0 10^km, within 1e-6
asymptotic_ratio            u0/v0 equals c1/c2 to 1e-10 (a limit that does
                            not converge fails all three, value inf)
shooting_recovery           shooting recovers c1 A 2^-delta within 1e-6
energy_invariant            |H| <= 1e-10 along the scalar homoclinic (nu=0)
==========================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import classify, verify_constants_system
from .emdenfowler import (ef_system_residual, exact_ef_solution, integrate,
                          proportionality_defect, radial_system_residual,
                          shoot_synchronized, simultaneous_max_check,
                          weighted_system_residual, _closed_form_arrays)
from .errors import ConvergenceError
from .params import ProblemParams
from .profiles import asymptotic_limits


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
            f"gamma1: {self.params.gamma:.17g}",
            f"gamma2: {self.params.gamma:.17g}",
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
                "gamma1": self.params.gamma,
                "gamma2": self.params.gamma,
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
                      integration_tol: float = 1e-10) -> VerificationReport:
    """Classify the parameter set and run every check on every family.

    Individual check failures are recorded, not raised, among them an
    asymptotic limit that does not converge; classification and integration
    errors propagate.  The families share one profile, so its asymptotic
    limits are estimated once.

    Each family is integrated once, over ten log-radius units from its
    maximum at t0 = log mu0, and the backward leg is that run mirrored.  The
    field y'' = F(y) does not involve y', and ``integrate`` runs a backward
    span as a forward one with the slopes negated.  The closed-form start
    has slopes of exactly +-0 (theta = 0), so negating them changes no
    operation: the backward run has the same y_u, y_v and step counts, bit
    for bit, and its slopes are the forward ones negated.
    """
    families = classify(p, mu0)
    try:
        limits = asymptotic_limits(families[0].profile) if families else None
    except ConvergenceError:
        limits = None  # a limit that does not settle fails all three checks
    grid = np.geomspace(1e-6, 1e6, 2048)
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

        ru, rv = radial_system_residual(fam, grid)
        add(tag + "radial_residual", max(ru, rv), 1e-9)
        for tau, label in ((p.tau1, "tau1"), (p.tau2, "tau2")):
            wu, wv = weighted_system_residual(fam, tau, grid)
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

        u0_exact = fam.c1 * p.amplitude * mu0 ** (-p.kappa)
        uinf_exact = fam.c1 * p.amplitude * mu0 ** p.kappa
        if limits is None:
            u0_gap = uinf_gap = ratio_gap = math.inf
        else:
            b0, b_inf = limits
            u0_gap = abs(fam.c1 * b0 - u0_exact) / u0_exact
            uinf_gap = abs(fam.c1 * b_inf - uinf_exact) / uinf_exact
            ratio_gap = (abs(fam.c1 * b0 / (fam.c2 * b0) - fam.c1 / fam.c2)
                         / (fam.c1 / fam.c2))
        add(tag + "asymptotic_u0", u0_gap, 1e-6)
        add(tag + "asymptotic_uinf", uinf_gap, 1e-6)
        add(tag + "asymptotic_ratio", ratio_gap, 1e-10)

        recovered = shoot_synchronized(p, fam.root)
        target = fam.peak_amplitude
        add(tag + "shooting_recovery", abs(recovered - target) / target, 1e-6)

        if p.nu == 0.0:
            # |H| at each point: ef_energy of tests/reference.py, its
            # constants computed once
            kappa2, ts = p.delta * p.delta - p.gamma, p.two_star
            y_u, p_u, _, _ = _closed_form_arrays(fam, t_grid)
            h_vals = [abs(0.5 * q * q - 0.5 * kappa2 * y * y + y ** ts / ts)
                      for y, q in zip(y_u.tolist(), p_u.tolist())]
            add(tag + "energy_invariant", max(h_vals), 1e-10)

    return VerificationReport(params=p, mu0=float(mu0),
                              n_families=len(families), checks=tuple(checks))
