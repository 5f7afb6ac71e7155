"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them)."""

import math
import time
from functools import partial

import numpy as np
import pytest

import hardysys as hs
from hardysys.emdenfowler import integrate
from hardysys.profiles import _closed_form_arrays
from reference import (LOG_RHO_GRID, bounded_closed_form, bounded_units, convergence_order,
                       ef_energy, encoding_residual, exact_ef_solution, fd_derivative,
                       hardy_weight, hardy_weight_dx1, kelvin_transform, profile_value,
                       simultaneous_max_check)


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_root_counts():
    t_start = time.perf_counter()
    p3 = hs.ProblemParams(3, 0.0, 1.0, 3.0)
    fams3 = hs.classify(p3, 1.0)
    expected = ((3.0 - math.sqrt(5.0)) / 2.0, 1.0, (3.0 + math.sqrt(5.0)) / 2.0)
    ok = len(fams3) == 3 and all(
        abs(f.c_tilde - e) <= 1e-12 for f, e in zip(fams3, expected))
    elapsed3 = time.perf_counter() - t_start

    t_start = time.perf_counter()
    p4 = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fams4 = hs.classify(p4, 1.0)
    ok = ok and len(fams4) == 1 and abs(fams4[0].c_tilde - 1.0) <= 1e-12
    ok = ok and abs(fams4[0].c1 - 3.0 ** -0.5) <= 1e-12
    ok = ok and abs(fams4[0].c2 - 3.0 ** -0.5) <= 1e-12
    elapsed4 = time.perf_counter() - t_start

    ok = ok and elapsed3 < 1.0 and elapsed4 < 1.0
    _report(1, "root counts and constants",
            ok, f"times {elapsed3:.2f}s / {elapsed4:.2f}s")


def test_criterion_02_exact_solution_residuals(matrix_families):
    # the radial and weighted encodings on the log rho grid, in the array
    # form of _encoding_residual
    t_start = time.perf_counter()
    worst = 0.0
    for p, mu0, fam in matrix_families:
        units = bounded_units(fam.profile, LOG_RHO_GRID)
        for tau, potential in ((0.0, p.gamma), (p.tau1, 0.0), (p.tau2, 0.0)):
            worst = max(worst, *encoding_residual(fam, tau, potential, units))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, "closed-form residuals over the matrix",
            ok, f"worst {worst:.2e}, {elapsed:.1f}s, {len(matrix_families)} families")


def test_criterion_03_ode_fidelity():
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    start = exact_ef_solution(fam, 0.0)

    def sup_err(tol):
        worst = 0.0
        # the backward leg is the forward run from the flipped state, mirrored in t
        flipped = hs.EFState(start.y_u, -start.p_u, start.y_v, -start.p_v)
        for direction, state in ((+1.0, start), (-1.0, flipped)):
            traj = integrate(state, (0.0, 10.0), p, tol=tol)
            ref_u, _, ref_v, _ = bounded_closed_form(fam, direction * np.asarray(traj.t))
            worst = max(worst, float(np.max(np.abs(traj.y_u - ref_u))),
                        float(np.max(np.abs(traj.y_v - ref_v))))
        return worst

    err10 = sup_err(1e-10)
    err11 = sup_err(1e-11)
    ratio = err10 / err11
    ok = err10 <= 1e-6 and ratio >= 16.0
    _report(3, "ODE fidelity and tolerance scaling",
            ok, f"sup {err10:.2e}, ratio {ratio:.1f}")


def test_criterion_04_proportionality(matrix_trajectories):
    worst = 0.0
    for case in matrix_trajectories:
        worst = max(worst, hs.proportionality_defect(case["orbit"],
                                                     case["family"].c_tilde))
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    control_traj = [c for c in matrix_trajectories
                    if c["params"].n == 4 and c["params"].nu == 1.0
                    and c["params"].gamma == 0.0 and c["mu0"] == 1.0][0]["orbit"]
    control = hs.proportionality_defect(control_traj, fam.c_tilde * 1.1)
    ok = worst <= 1e-8 and control >= 0.05
    _report(4, "proportionality of integrated components",
            ok, f"worst defect {worst:.2e}, mismatch control {control:.3f}")


def test_criterion_05_simultaneous_maximum(matrix_trajectories):
    worst_gap = worst_loc = 0.0
    for case in matrix_trajectories:
        t_u, t_v = simultaneous_max_check(case["orbit"])
        t0 = math.log(case["mu0"])
        worst_gap = max(worst_gap, abs(t_u - t_v))
        worst_loc = max(worst_loc, abs(t_u - t0), abs(t_v - t0))
    ok = worst_gap <= 1e-6 and worst_loc <= 1e-6
    _report(5, "simultaneous maximum location",
            ok, f"gap {worst_gap:.2e}, offset {worst_loc:.2e}")


def test_criterion_06_shooting_recovery():
    t_start = time.perf_counter()
    p4 = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam4 = hs.classify(p4, 1.0)[0]
    a4 = hs.shoot_synchronized(p4, fam4.root).y_u[-1]
    target4 = fam4.c1 * p4.amplitude * 2.0 ** (-p4.delta)
    rel4 = abs(a4 - target4) / target4

    p3 = hs.ProblemParams(3, 0.0, 1.0, 3.0)
    fam3 = [f for f in hs.classify(p3, 1.0) if abs(f.c_tilde - 1.0) < 1e-9][0]
    a3 = hs.shoot_synchronized(p3, fam3.root).y_u[-1]
    target3 = fam3.c1 * p3.amplitude * 2.0 ** (-p3.delta)
    rel3 = abs(a3 - target3) / target3
    elapsed = time.perf_counter() - t_start

    ok = rel4 <= 1e-6 and rel3 <= 1e-6 and elapsed < 5.0
    _report(6, "shooting recovery of the homoclinic amplitude",
            ok, f"rel {rel4:.1e} / {rel3:.1e}, {elapsed:.1f}s")


def test_criterion_07_asymptotics(matrix_trajectories):
    worst_limit = worst_ratio = worst_quot = 0.0
    for case in matrix_trajectories:
        fam = case["family"]
        p = fam.profile.params
        orbit = case["orbit"]
        # the orbit starts at manifold coordinates (x_u, x_v) at time t[0],
        # so r^tau1 u = e^(-kappa t) y_u -> x_u e^(-kappa t[0]), and by the
        # mirror r^tau2 u -> x_u e^(kappa t[-1]); logs throughout
        x_u, x_v = case["coordinates"]
        log_u0 = math.log(x_u) - p.kappa * orbit.t[0]
        log_v0 = math.log(x_v) - p.kappa * orbit.t[0]
        log_uinf = math.log(x_u) + p.kappa * orbit.t[-1]
        # closed form: u0 = c1 A mu0^-kappa, uinf = c1 A mu0^kappa
        limit0, limit_inf = hs.profiles.asymptotic_limits(fam.profile)
        log_c1 = math.log(fam.c1)
        worst_limit = max(worst_limit,
                          abs(math.expm1(log_u0 - (log_c1 + limit0))),
                          abs(math.expm1(log_uinf - (log_c1 + limit_inf))))
        worst_ratio = max(worst_ratio,
                          abs(math.expm1(log_u0 - log_v0 - math.log(fam.c1 / fam.c2))))
        orbit = case["orbit"]
        s = fam.c_tilde
        worst_quot = max(worst_quot,
                         abs(orbit.y_u[0] / orbit.y_v[0] - s) / s,
                         abs(orbit.y_u[-1] / orbit.y_v[-1] - s) / s)
    ok = worst_limit <= 1e-6 and worst_ratio <= 1e-10 and worst_quot <= 1e-6
    _report(7, "asymptotic limits and quotients",
            ok, f"limit {worst_limit:.1e}, ratio {worst_ratio:.1e}, quot {worst_quot:.1e}")


def test_criterion_08_weight_geometry():
    rng = np.random.default_rng(20240817)
    dim = 4
    violations = 0
    for _ in range(100_000):
        x = rng.uniform(-10.0, 10.0, size=dim)
        x[0] = abs(x[0])
        x0 = rng.uniform(-10.0, 10.0, size=dim)
        x0[0] = 0.0
        if hardy_weight_dx1(x, x0) < 0.0:
            violations += 1

    sym_worst = 0.0
    for _ in range(500):
        x = rng.uniform(-5.0, 5.0, size=dim)
        x0 = rng.uniform(-5.0, 5.0, size=dim)
        x0[0] = 0.0
        flipped = x.copy()
        flipped[0] = -flipped[0]
        sym_worst = max(sym_worst,
                        abs(hardy_weight(flipped, x0) - hardy_weight(x, x0))
                        / max(1.0, abs(hardy_weight(x, x0))))

    orders = []
    for _ in range(5):
        x = rng.uniform(0.2, 3.0, size=dim)
        x0 = rng.uniform(-1.0, 1.0, size=dim)
        x0[0] = 0.0

        def along_x1(t, x=x, x0=x0):
            xt = x.copy()
            xt[0] = t
            return hardy_weight(xt, x0)

        exact = hardy_weight_dx1(x, x0)
        errs = [(h, abs(fd_derivative(along_x1, x[0], h) - exact))
                for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        orders.append(convergence_order(errs))

    ok = violations == 0 and sym_worst <= 1e-14 and min(orders) >= 1.9
    _report(8, "monotonicity and symmetry of the inverted-pole weight",
            ok, f"violations {violations}, sym {sym_worst:.1e}, order {min(orders):.2f}")


def test_criterion_09_kelvin_identities():
    worst_inv = worst_bubble = 0.0
    bounds_ok = True
    r_far = np.geomspace(10.0, 1e6, 1024)
    samples = np.array([0.1, 0.5, 1.0, 2.0, 10.0])
    for n in (3, 4, 5):
        lam = hs.hardy_constant(n)
        for gamma in (0.0, lam / 2.0):
            p = hs.ProblemParams(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
            prof = hs.ScalarProfile(p, 1.0)

            def once(r, prof=prof, n=n):
                return kelvin_transform(partial(profile_value, prof), n, r)

            exact = profile_value(prof, samples)
            twice = kelvin_transform(once, n, samples)
            worst_inv = max(worst_inv, float(np.max(np.abs(twice - exact) / exact)))

            compensated = r_far ** (n - 2.0) * once(r_far)
            bounds_ok = bounds_ok and bool(np.all(np.isfinite(compensated))
                                           and np.min(compensated) > 0)
            if gamma == 0.0:
                image = once(samples)
                worst_bubble = max(worst_bubble, float(np.max(np.abs(image - exact) / exact)))
    ok = worst_inv <= 1e-12 and worst_bubble <= 1e-12 and bounds_ok
    _report(9, "Kelvin involution, bubble invariance, far-field bounds",
            ok, f"involution {worst_inv:.1e}, bubble {worst_bubble:.1e}")


def test_criterion_10_scalar_energy_invariant():
    worst = 0.0
    for n in (3, 4, 5):
        lam = hs.hardy_constant(n)
        for gamma in (0.0, lam / 2.0):
            p = hs.ProblemParams(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
            fam = hs.classify(p, 1.0)[0]
            t = np.linspace(-20.0, 20.0, 1601)
            y, q, _, _ = _closed_form_arrays(fam, t)
            h_vals = np.array([ef_energy(float(a), float(b), p)
                               for a, b in zip(y, q)])
            worst = max(worst, float(np.max(np.abs(h_vals))),
                        float(np.max(h_vals) - np.min(h_vals)))
    ok = worst <= 1e-10
    _report(10, "scalar first integral vanishes on the homoclinic orbit",
            ok, f"max |H| {worst:.1e}")
