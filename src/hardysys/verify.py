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
integration_deviation       sup |y - y_closed| / max(1, peak of y_u, y_v) <= 1e-6
                            on the integrated orbit (absolute up to a peak of 1)
proportionality_defect      sup |y_u - s y_v| / sup y_u <= 1e-8 (integrated)
simultaneous_max_gap        argmax(y_u) and argmax(y_v) within 1e-6
max_location_error          common argmax within 1e-6 of log(mu0)
quotient_limit_minus        y_u/y_v at the orbit's first point (y_u = eps y_eq)
                            within 1e-6 of the root
quotient_limit_plus         y_u/y_v at its last point, the first one mirrored
asymptotic_u0               origin limit, sampled at mu0 10^-km (k = 4..8,
                            m = max(1, 1/q), q = 2 kappa/delta) and
                            extrapolated, within 1e-6 of the closed form
asymptotic_uinf             far-field limit, sampled at mu0 10^km, within 1e-6
asymptotic_ratio            u0/v0 equals c1/c2 to 1e-10 (a limit that does
                            not converge fails all three, value inf)
shooting_recovery           the orbit's maximum is c1 A 2^-delta within 1e-6
energy_invariant            |H| / max(1, |terms of H|) <= 1e-10 along the
                            scalar closed form (nu=0)
==========================  ====================================================

The integrated orbit starts on the invariant ray y_v = y_u / s and is
mirrored at its turn, so proportionality_defect, simultaneous_max_gap and
max_location_error read zero by construction, up to rounding; checks that
can fail will replace them (ROADMAP.md, item 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import classify, verify_constants_system
from .emdenfowler import (ef_system_residual, proportionality_defect,
                          radial_system_residual, shoot_synchronized,
                          simultaneous_max_check, weighted_system_residual,
                          _closed_form_arrays, _max_normalized)
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


def _mirrored(half, t0: float):
    """``half`` reflected at its turn (t and y' odd, y even), shifted to peak at t0."""
    def reflect(col, sign):
        return np.concatenate([col, sign * col[-2::-1]])

    return replace(half, t=t0 + reflect(half.t, -1.0),
                   y_u=reflect(half.y_u, 1.0), p_u=reflect(half.p_u, -1.0),
                   y_v=reflect(half.y_v, 1.0), p_v=reflect(half.p_v, -1.0))


def full_verification(p: ProblemParams, mu0: float = 1.0, *,
                      integration_tol: float = 1e-10) -> VerificationReport:
    """Classify the parameter set and run every check on every family.

    Individual check failures are recorded, not raised, among them an
    asymptotic limit that does not converge; classification and integration
    errors propagate.  The families share one profile, so its asymptotic
    limits are estimated once, as logs; each gap is |expm1| of a difference
    of logs, so mu0^kappa never has to be a double.

    Each family is integrated once: ``shoot_synchronized`` traces it at
    ``integration_tol`` from the origin, where errors do not grow like
    e^(kappa t) as they do into the saddle, up to its turn.  Mirrored there
    and placed at t0 = log mu0, that trace is the orbit of every orbit check.
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

        half = shoot_synchronized(p, fam.root, integration_tol)
        orbit = _mirrored(half, t0)
        ref_u, _, ref_v, _ = _closed_form_arrays(fam, orbit.t)
        peak = max(1.0, half.y_u[-1], half.y_v[-1])
        deviation = max(np.max(np.abs(orbit.y_u - ref_u)), np.max(np.abs(orbit.y_v - ref_v)))
        add(tag + "integration_deviation", deviation / peak, 1e-6)

        add(tag + "proportionality_defect", proportionality_defect(orbit, s), 1e-8)
        t_u, t_v = simultaneous_max_check(orbit)
        add(tag + "simultaneous_max_gap", abs(t_u - t_v), 1e-6)
        add(tag + "max_location_error", max(abs(t_u - t0), abs(t_v - t0)), 1e-6)
        add(tag + "quotient_limit_minus", _quotient_gap(orbit, 0, s), 1e-6)
        add(tag + "quotient_limit_plus", _quotient_gap(orbit, -1, s), 1e-6)

        if limits is None:
            u0_gap = uinf_gap = ratio_gap = math.inf
        else:
            # the closed-form limits are c1 A mu0^(-+kappa); c1 cancels
            log_b0, log_b_inf = limits
            log_a = math.log(p.amplitude)
            u0_gap = abs(math.expm1(log_b0 - (log_a - p.kappa * t0)))
            uinf_gap = abs(math.expm1(log_b_inf - (log_a + p.kappa * t0)))
            ratio_gap = abs(math.expm1(math.log(fam.c1) + log_b0 - (math.log(fam.c2) + log_b0)
                                       - math.log(fam.c1 / fam.c2)))
        add(tag + "asymptotic_u0", u0_gap, 1e-6)
        add(tag + "asymptotic_uinf", uinf_gap, 1e-6)
        add(tag + "asymptotic_ratio", ratio_gap, 1e-10)

        target = fam.peak_amplitude
        add(tag + "shooting_recovery", abs(half.y_u[-1] - target) / target, 1e-6)

        if p.nu == 0.0:
            kappa2, ts = p.delta * p.delta - p.gamma, p.two_star
            y_u, p_u, _, _ = _closed_form_arrays(fam, t_grid)
            add(tag + "energy_invariant", _max_normalized(
                (0.5 * p_u * p_u, -0.5 * kappa2 * y_u * y_u, y_u ** ts / ts)), 1e-10)

    return VerificationReport(params=p, mu0=float(mu0),
                              n_families=len(families), checks=tuple(checks))
