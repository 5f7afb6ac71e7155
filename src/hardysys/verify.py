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
asymptotic_u0               limit at 0 of r^tau1 u, read off the integrated
                            orbit, within 1e-6 of c1 A mu0^-kappa
shooting_recovery           the orbit's maximum is c1 A 2^-delta within 1e-6
energy_invariant            |H| / max(1, |terms of H|) <= 1e-10 along the
                            scalar closed form (nu=0)
==========================  ====================================================

The integrated orbit is the half orbit that shooting traces, from its start
on the invariant ray y_v = y_u / s up to its turn.  ratio_identity records
what ``constants_from_root`` enforces, and DP5 keeps an orbit that starts on
the ray on it, so proportionality_defect reads zero up to rounding; it still
fails on an orbit that leaves the ray (a start 1e-6 off it reads 1.6e-6 at
n = 4, nu = 1).  Checks that test more will replace them (ROADMAP.md,
item 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import classify, verify_constants_system
from .emdenfowler import (ef_system_residual, proportionality_defect,
                          radial_system_residual, shoot_synchronized,
                          weighted_system_residual, _closed_form_arrays,
                          _manifold_start, _max_normalized)
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


def full_verification(p: ProblemParams, mu0: float = 1.0, *,
                      integration_tol: float = 1e-10) -> VerificationReport:
    """Classify the parameter set and run every check on every family.

    Individual check failures are recorded, not raised; classification and
    integration errors propagate.

    Each family is integrated once: ``shoot_synchronized`` traces it at
    ``integration_tol`` from the origin, where errors do not grow like
    e^(kappa t) as they do into the saddle, up to its turn.  Placed at
    t0 = log mu0, that half orbit is the orbit of every orbit check.  Its
    start sits at manifold coordinate x (``_manifold_start``) at time
    t0 + t_s, t_s = t[0] of the trace, so r^tau1 u = e^(-kappa t) y_u tends
    to x e^(-kappa (t0 + t_s)).  That limit and the closed form's stay logs,
    and the gap is |expm1| of their difference, so mu0^-kappa never has to
    be a double.
    """
    families = classify(p, mu0)
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
        ref_u, _, ref_v, _ = _closed_form_arrays(fam, t0 + half.t)
        peak = max(1.0, half.y_u[-1], half.y_v[-1])
        deviation = max(np.max(np.abs(half.y_u - ref_u)), np.max(np.abs(half.y_v - ref_v)))
        add(tag + "integration_deviation", deviation / peak, 1e-6)
        add(tag + "proportionality_defect", proportionality_defect(half, s), 1e-8)

        # log of the orbit's limit; the closed form's is log(c1 A mu0^-kappa)
        _, (x_u, _) = _manifold_start(p, s, integration_tol)
        log_b0, _ = asymptotic_limits(fam.profile)
        log_u0 = math.log(x_u) - p.kappa * (t0 + float(half.t[0]))
        add(tag + "asymptotic_u0",
            abs(math.expm1(log_u0 - (math.log(fam.c1) + log_b0))), 1e-6)

        target = fam.peak_amplitude
        add(tag + "shooting_recovery", abs(half.y_u[-1] - target) / target, 1e-6)

        if p.nu == 0.0:
            kappa2, ts = p.delta * p.delta - p.gamma, p.two_star
            y_u, p_u, _, _ = _closed_form_arrays(fam, t_grid)
            add(tag + "energy_invariant", _max_normalized(
                (0.5 * p_u * p_u, -0.5 * kappa2 * y_u * y_u, y_u ** ts / ts)), 1e-10)

    return VerificationReport(params=p, mu0=float(mu0),
                              n_families=len(families), checks=tuple(checks))
