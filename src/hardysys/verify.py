"""The bundled verifier.

``full_verification`` runs every closed-form family of a parameter set
through the whole battery of checks and returns a deterministic report.
Each family reports four checks, at every nu, and their names map
one-to-one onto the invariants they measure:

==========================  ====================================================
check name                  invariant
==========================  ====================================================
integration_deviation       sup |y - y_closed| / (peak of y_u, y_v) <= 1e-6
                            on the integrated orbit
proportionality_defect      sup |y_u - s y_v| / sup y_u <= 1e-8 (integrated)
asymptotic_u0               limit at 0 of mu0^kappa r^tau1 u, read off the
                            integrated orbit, within 1e-6 of c1 A
shooting_recovery           the orbit's maximum is c1 A 2^-delta within 1e-6
==========================  ====================================================

What the rows test.  On the ray y_v = y_u / s of the root s, the orbit is
y_u = y_eq z(kappa t), with z'' = z - z^(2*-1) and y_eq^m = kappa^2 / K,
m = 2* - 2, K = 1 + nu alpha s^-beta: one homoclinic z per n.  The closed
form's peak c1 A 2^-delta is y_eq times the peak of z exactly when
c1^m K = 1, which is c1^m + nu alpha c1^(alpha-2) c2^beta = 1, the first
equation of the constants system.  So integration_deviation, asymptotic_u0
and shooting_recovery test DP5 on one scalar ODE per n, plus that
equation, and only proportionality_defect reads s: the ray is invariant,
and an orbit started on it stays there, exactly when f(s) = 0.

The integrated orbit is the half orbit that shooting traces, from its start
on the invariant ray y_v = y_u / s up to its turn.  Rescaling by mu0 maps
solutions to solutions, and every check reads log rho = log(r/mu0): the
orbit checks read the trace's own times, with the turn at rho = 1, against
the closed form at the same log rho.  No check reads mu0, and the report
does not name it, so a report holds the same text at every mu0.
The start sits at coordinate rho = 1/4 of the ray's unstable manifold, whose
turn is at rho = 1, so the manifold's closed form carries most of the climb,
and the orbit checks see it: a start whose log(Z(x)/x) is off by 1e-5 of its
first term fails integration_deviation, asymptotic_u0 and shooting_recovery at
n = 4, nu = 1.  asymptotic_u0 reads the start's time relative to the turn, so it
also carries the error in the turn time.  ``integrate`` measures the error
of y_u' on the scale kappa |y_u| there, where y_u' passes through zero, so
the turn's step is as long as the others, and asymptotic_u0 is the largest
of the orbit checks: at most 2.7e-11 at the default tolerance 1e-10, over
n in {3, ..., 20} and gamma up to 0.99 lambda_n.  DP5 keeps an orbit that
starts on the ray on it, so proportionality_defect reads zero up to
rounding; it still fails on an orbit that leaves the ray (a start 1e-6 off
it reads 1.2e-6 at n = 4, nu = 1).  A check that tests more will replace it
(ROADMAP.md, items 10 and 24).

Three invariants are not checks of their own, because no report could fail
them.  ``constants_from_root`` raises ``ParameterError`` (exit 2 from the
command line) when c1, c2 or a term of the constants system leaves the range
of a double or a finite residual exceeds 1e-12, and c1 = s c2 by
construction.  The residual of the radial equations at the closed form, in
any encoding (``emdenfowler._encoding_residual``), reduces to
(S - 1) A^m w (1 - w), S the left side of the family's constants equation,
so it restates that 1e-12; and the first integral H of the scalar case
(nu = 0) is identically 0 on the closed form.  Tier-1 evaluates both on the
closed form, and shows that the residual fails when c1, c2, w, y^m or q is
off by 1e-6 (tests/test_verify.py, tests/test_acceptance.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import sub

from .coupling import classify
from .emdenfowler import (proportionality_defect, shoot_synchronized, _check_shooting_tol,
                          _manifold_coordinate)
from .params import ProblemParams


class CheckResult(namedtuple("CheckResult", "name value threshold passed")):
    """One check of one family: its measured value, threshold and verdict."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "params n_families checks")):
    """Deterministic bundle of every per-family check; ``checks`` is a tuple
    of ``CheckResult``."""

    __slots__ = ()

    @property
    def overall(self) -> bool:
        """Every check passed, and there is one at least: a report with no
        family fails."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            "hardysys verification report",
            f"n: {self.params.n}",
            f"gamma: {self.params.gamma:.17g}",
            f"nu: {self.params.nu:.17g}",
            f"alpha: {self.params.alpha:.17g}",
            f"beta: {self.params.beta:.17g}",
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
                "gamma": self.params.gamma,
                "nu": self.params.nu,
                "alpha": self.params.alpha,
                "beta": self.params.beta,
            },
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
    integration errors propagate.  An ``integration_tol`` outside
    [1e-12, 1e-4] raises ParameterError before the root search, whether or
    not a family exists.

    Each family is integrated once: ``shoot_synchronized`` traces it at
    ``integration_tol`` from the origin, where errors do not grow like
    e^(kappa t) as they do into the saddle, up to its turn at t = 0.  That
    half orbit, about 70 points, is the orbit of every check, and its times
    are log rho = log(r/mu0), the argument of the profile's bounded units.
    Only the closed form's y_u and y_v are formed there, c e^(log y) with
    the bits of ``_closed_form_arrays``: no check reads w or a slope.  The
    start sits at manifold coordinate x0 y_eq (``_manifold_coordinate``) at
    log rho = t[0] of the trace, so mu0^kappa r^tau1 u = e^(-kappa log rho)
    y_u tends to x0 y_eq e^(-kappa t[0]), and the closed form's limit is
    c1 A.  Both stay logs, and the gap is |expm1| of their difference.  mu0 reaches
    only ``classify``, which refuses a scale that is not positive and
    finite; nothing else reads it, and the report does not carry it.
    """
    _check_shooting_tol(integration_tol)
    families = classify(p, mu0)
    checks: list[CheckResult] = []

    def add(name: str, value: float, threshold: float) -> None:
        value = float(value)
        passed = math.isfinite(value) and value <= threshold
        checks.append(CheckResult(name=name, value=value, threshold=threshold,
                                  passed=passed))

    for idx, fam in enumerate(families):
        tag = f"f{idx}."
        s = fam.c_tilde

        half = shoot_synchronized(p, fam.root, integration_tol)
        # the closed form's y_u and y_v, c e^(log y) as _closed_form_arrays forms them
        base = list(map(math.exp, fam.profile._bounded_units(half.t)[2]))
        ref = [fam.c1 * b for b in base] + [fam.c2 * b for b in base]
        peak = max(half.y_u[-1], half.y_v[-1])
        deviation = max(map(abs, map(sub, half.y_u + half.y_v, ref)))
        add(tag + "integration_deviation", deviation / peak, 1e-6)
        add(tag + "proportionality_defect", proportionality_defect(half, s), 1e-8)

        # log of the orbit's limit of mu0^kappa r^tau1 u; the closed form's is log(c1 A)
        log_u0 = math.log(_manifold_coordinate(p, s)) - p.kappa * half.t[0]
        add(tag + "asymptotic_u0", abs(math.expm1(
            log_u0 - (math.log(fam.c1) + math.log(p.amplitude)))), 1e-6)

        target = fam.peak_amplitude
        add(tag + "shooting_recovery", abs(half.y_u[-1] - target) / target, 1e-6)

    return VerificationReport(params=p, n_families=len(families), checks=tuple(checks))
