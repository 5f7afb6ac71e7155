import math
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import EFState, ParameterError, emdenfowler
from hardysys.cli import main
from hardysys.emdenfowler import (_closed_form_arrays, _field, _manifold_coordinate,
                                  _manifold_start, integrate)
from reference import (DP5_A, DP5_B, DP5_E, LOG_RHO_GRID, bounded_closed_form,
                       bounded_units, closed_form_accel, closed_form_arrays,
                       convergence_order, dp5_table_step, encoding_residual, ef_energy,
                       ef_rhs, exact_ef_solution, exact_trajectory, manifold_coefficients,
                       manifold_series_start, phase_plane_residual, r_space_residual,
                       simultaneous_max_check)

# rho = r/mu0 of the residuals of the four encodings, and its logs, their argument
LOG_GRID = LOG_RHO_GRID
GRID = np.exp(LOG_GRID)


# --- right-hand side -----------------------------------------------------------


def test_rhs_vanishes_at_phase_origin(benchmark4):
    p, _ = benchmark4
    assert ef_rhs(EFState(0.0, 0.0, 0.0, 0.0), p) == (0.0, 0.0, 0.0, 0.0)


def test_rhs_rejects_negative_components(benchmark4):
    p, _ = benchmark4
    with pytest.raises(ParameterError):
        ef_rhs(EFState(-0.1, 0.0, 1.0, 0.0), p)


def test_rhs_matches_closed_form_acceleration(benchmark4):
    p, fam = benchmark4
    for t in (-2.0, 0.0, 1.5):
        state = exact_ef_solution(fam, t)
        _, acc_u, _, acc_v = ef_rhs(state, p)
        ref_u, ref_v = closed_form_accel(fam, t)
        assert_allclose((acc_u, acc_v), (float(ref_u), float(ref_v)), rtol=1e-12)


def test_rhs_decouples_at_zero_nu():
    p = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    out_a = ef_rhs(EFState(0.3, 0.1, 0.8, -0.2), p)
    out_b = ef_rhs(EFState(0.9, 0.1, 0.8, -0.2), p)
    assert out_a[2:] == out_b[2:]  # v-equations blind to y_u


@pytest.mark.parametrize("args", [(4, 0.0, 0.0, 2.0), (4, 0.0, 1.0, 2.0), (3, 0.1, 0.7, 2.5),
                                  (10, 4.0, 10.0, 1.1)])
def test_field_is_the_reference_field(args):
    # the kernel's one field agrees with ef_rhs, which forms the coupling
    # factor by factor, within a few ulps of the largest term, and clamps a
    # negative trial component to zero where ef_rhs refuses it
    p = hs.ProblemParams(*args)
    field = _field(p)
    rng = np.random.default_rng(17)
    for yu, yv in rng.uniform(0.0, 2.0, size=(50, 2)).tolist() + [[0.0, 0.7], [0.7, 0.0]]:
        _, ref_u, _, ref_v = ef_rhs(EFState(yu, 0.0, yv, 0.0), p)
        got = field(yu, yv)
        scale = max(1.0, yu, yv) ** (p.two_star - 1.0) * max(1.0, p.nu * max(p.alpha, p.beta))
        assert abs(got[0] - ref_u) <= 8 * math.ulp(scale)
        assert abs(got[1] - ref_v) <= 8 * math.ulp(scale)
        assert field(-yu - 0.1, yv) == field(0.0, yv)
        assert field(yu, -yv - 0.1) == field(yu, 0.0)


# --- closed form ----------------------------------------------------------------


def test_exact_solution_evenness(benchmark4):
    _, fam = benchmark4
    for s in (0.3, 1.7, 4.0, 9.0):
        left = exact_ef_solution(fam, -s)
        right = exact_ef_solution(fam, +s)
        assert abs(left.y_u - right.y_u) <= 1e-13 * right.y_u
        assert abs(left.p_u + right.p_u) <= 1e-13 * max(1.0, abs(right.p_u))


def test_exact_solution_maximum_value(benchmark4):
    _, fam = benchmark4
    # c1 * A * 2^(-delta) = (1/sqrt3) * sqrt8 / 2 = sqrt(2/3)
    state = exact_ef_solution(fam, 0.0)
    assert_allclose(state.y_u, math.sqrt(2.0 / 3.0), rtol=1e-14)
    assert state.p_u == 0.0 or abs(state.p_u) < 1e-16


def test_exact_solution_scale_translation():
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam2 = hs.classify(p, 2.0)[0]
    state = exact_ef_solution(fam2, math.log(2.0))
    assert_allclose(state.y_u, math.sqrt(2.0 / 3.0), rtol=1e-14)


def test_exact_solution_decay_rate(benchmark4):
    _, fam = benchmark4
    kappa = fam.profile.params.kappa
    y8 = exact_ef_solution(fam, 8.0).y_u
    y10 = exact_ef_solution(fam, 10.0).y_u
    slope = (math.log(y10) - math.log(y8)) / 2.0
    assert abs(slope + kappa) <= 1e-6


def test_closed_form_matches_theta_form(matrix_families):
    # the trajectory from the profile's bounded units, on log rho, is the
    # theta form y = c A (2 cosh theta)^(-delta), y' = -kappa tanh(theta) y,
    # on log r = log mu0 + log rho, to roundoff
    for _, mu0, fam in matrix_families:
        log_rho = np.linspace(-30.0, 30.0, 601)
        ref = closed_form_arrays(fam, math.log(mu0) + log_rho)
        for got, want in zip(_closed_form_arrays(fam, log_rho), ref):
            assert_allclose(got, want, rtol=1e-13, atol=1e-15 * np.max(ref[0]))


def test_two_sided_exponential_bounds(matrix_families):
    for _, _, fam in matrix_families:
        kappa = fam.profile.params.kappa
        s = np.concatenate([-np.linspace(10, 30, 41), np.linspace(10, 30, 41)])
        y_u, _, _, _ = _closed_form_arrays(fam, s)
        compensated = np.exp(kappa * np.abs(s)) * y_u
        assert np.all(np.isfinite(compensated))
        assert np.min(compensated) > 0
        # converges to c1*A at both ends: tiny spread on |s| >= 10
        assert np.max(compensated) / np.min(compensated) < 1.01


@pytest.mark.parametrize("args", [(4, 0.0, 1.0, 2.0), (10, 1.0, 1.0, 1.25)])
def test_closed_form_is_finite_at_the_ends_of_the_doubles(args):
    # at log rho = 1e308, q log rho (n = 4) or delta log(1 + rho^q) (n = 10,
    # gamma > 0) overflows: w = e^(t - L) and log y were inf - inf, so the
    # exported trajectory read nan; the limits are y = 0 at both ends, with
    # slope kappa (1 - 2w) y of either sign
    fam = hs.classify(hs.ProblemParams(*args))[0]
    y_u, p_u, y_v, p_v = _closed_form_arrays(fam, [-1e308, 1e308])
    assert y_u == y_v == [0.0, 0.0]
    assert p_u == p_v == [0.0, 0.0]
    # the logs of (w, 1 - w, y): (1, 0, 0) and (0, 1) in the limits
    assert fam.profile._bounded_units([1e308]) == ([0.0], [-math.inf], [-math.inf])
    assert fam.profile._bounded_units([-1e308])[:2] == ([-math.inf], [0.0])


# --- integration -----------------------------------------------------------------


def _flipped(state):
    """(y_u, -y_u', y_v, -y_v'): its forward run is the backward leg, mirrored in t."""
    return EFState(state.y_u, -state.p_u, state.y_v, -state.p_v)


def test_integration_tracks_closed_form(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    for direction, state in ((+1.0, start), (-1.0, _flipped(start))):
        traj = integrate(state, (0.0, 10.0), p, tol=1e-10)
        assert traj.termination == "completed"
        ref_u, ref_p, ref_v, _ = bounded_closed_form(fam, direction * np.asarray(traj.t))
        assert np.max(np.abs(traj.y_u - ref_u)) <= 1e-6
        assert np.max(np.abs(traj.y_v - ref_v)) <= 1e-6
        assert np.max(np.abs(direction * np.asarray(traj.p_u) - ref_p)) <= 1e-5


def test_integration_tolerance_scaling(benchmark4):
    # a factor 10 in tol must buy at least a factor 16 in sup error
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)

    def sup_err(tol):
        worst = 0.0
        for direction, state in ((+1.0, start), (-1.0, _flipped(start))):
            traj = integrate(state, (0.0, 10.0), p, tol=tol)
            ref_u, _, _, _ = bounded_closed_form(fam, direction * np.asarray(traj.t))
            worst = max(worst, float(np.max(np.abs(traj.y_u - ref_u))))
        return worst

    assert sup_err(1e-10) / sup_err(1e-11) >= 16.0


def test_integrator_effective_order(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    pairs = []
    for tol in (1e-7, 1e-8, 1e-9, 1e-10):
        traj = integrate(start, (0.0, 10.0), p, tol=tol)
        ref_u, _, _, _ = bounded_closed_form(fam, traj.t)
        h_mean = 10.0 / traj.accepted
        pairs.append((h_mean, float(np.max(np.abs(traj.y_u - ref_u)))))
    assert convergence_order(pairs) >= 4.0


def test_trajectory_monotone_time_and_stats(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    fwd = integrate(start, (0.0, 5.0), p, tol=1e-8)
    assert np.all(np.diff(fwd.t) > 0)
    bwd = integrate(_flipped(start), (0.0, 5.0), p, tol=1e-8)
    assert np.all(np.diff(-np.asarray(bwd.t)) < 0)
    assert fwd.accepted == len(fwd.t) - 1
    assert fwd.rejected >= 0
    # reversibility: backward leg mirrors the forward one
    ref_u, _, _, _ = bounded_closed_form(fam, -np.asarray(bwd.t))
    assert np.max(np.abs(bwd.y_u - ref_u)) <= 1e-6


def test_perturbed_amplitude_terminates(benchmark4):
    p, fam = benchmark4
    exact = exact_ef_solution(fam, 0.0)
    bumped = EFState(exact.y_u * 1.01, 0.0, exact.y_v * 1.01, 0.0)
    traj = integrate(bumped, (0.0, 50.0), p, tol=1e-10)
    assert traj.termination != "completed"


def test_zero_initial_state_stays_zero(benchmark4):
    p, _ = benchmark4
    traj = integrate(EFState(0.0, 0.0, 0.0, 0.0), (0.0, 10.0), p, tol=1e-10)
    assert traj.termination == "completed"
    assert np.max(np.abs(traj.y_u)) == 0.0
    assert np.max(np.abs(traj.y_v)) == 0.0


def test_zero_length_span(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.3)
    traj = integrate(start, (0.3, 0.3), p, tol=1e-10)
    assert traj.termination == "completed"
    assert len(traj.t) == 1
    assert traj.t[0] == 0.3


def test_integrate_reads_numpy_scalars_as_floats(benchmark4):
    p, fam = benchmark4
    exact = exact_ef_solution(fam, 0.2)
    forward = (exact.y_u, exact.p_u, exact.y_v, exact.p_v)
    flipped = (exact.y_u, -exact.p_u, exact.y_v, -exact.p_v)
    for values, span in ((forward, (0.2, 4.0)), (flipped, (-0.2, 3.0))):
        seen = []

        def stop(*state):
            seen.extend(type(v) for v in state)
            return False

        plain = integrate(EFState(*map(float, values)), span, p, tol=1e-10)
        wrapped = integrate(EFState(*map(np.float64, values)),
                            tuple(map(np.float64, span)), p, tol=1e-10, stop=stop)
        for name in ("t", "y_u", "p_u", "y_v", "p_v"):
            assert np.array_equal(getattr(plain, name), getattr(wrapped, name))
        assert (plain.accepted, plain.rejected) == (wrapped.accepted, wrapped.rejected)
        assert seen and set(seen) == {float}


def test_orbit_fields_are_python_floats(benchmark3):
    # integrate and the shot return lists of Python floats, not numpy scalars
    p, fams = benchmark3
    start = exact_ef_solution(fams[0], 0.0)
    for traj in (integrate(start, (0.0, 4.0), p, tol=1e-10),
                 *(hs.shoot_synchronized(p, fam.root) for fam in fams)):
        for name in ("t", "y_u", "p_u", "y_v", "p_v"):
            column = getattr(traj, name)
            assert type(column) is list and len(column) == traj.accepted + 1
            assert {type(v) for v in column} == {float}


def _one_step_cases():
    n4 = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    n3 = hs.ProblemParams(3, 0.0, 1.0, 2.5)
    scalar = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    return {
        "on-ray-n4": (n4, exact_ef_solution(hs.classify(n4, 1.0)[0], -1.0), 1e-10),
        "off-ray-n3": (n3, EFState(0.6, 0.2, 0.3, -0.1), 1e-10),
        "nu0": (scalar, exact_ef_solution(hs.classify(scalar, 1.0)[0], 0.7), 1e-10),
        # y_u + 0.3 h y_u' < 0: stages 3 to 6 are clamped, and so is the end
        "stage-dips-below-zero": (n3, EFState(1e-5, -0.05, 0.4, 0.1), 1e-4),
        # y + h y' / 5 < 0: every stage from 2 on, and the end, clamp y_u or
        # y_v, so each of the kernel's clamps is compared
        "stage-2-dips-below-zero-u": (n3, EFState(1e-5, -0.06, 0.4, 0.1), 1e-4),
        "stage-2-dips-below-zero-v": (n3, EFState(0.4, 0.1, 1e-5, -0.06), 1e-4),
    }


@pytest.mark.parametrize("name", sorted(_one_step_cases()))
def test_one_step_matches_the_table_form(name):
    # the Nystrom kernel is the table form y + h sum a_ij k_j of the same
    # tableau on ef_rhs, up to rounding
    p, start, tol = _one_step_cases()[name]
    traj = integrate(start, (0.0, 1e-3), p, tol=tol)
    assert (traj.accepted, traj.rejected) == (1, 0)
    table, _ = dp5_table_step(start, 1e-3, p)
    want = (table.y_u, table.p_u, table.y_v, table.p_v)
    if traj.termination == "extinction":  # integrate clamps the state it reports
        want = (max(want[0], 0.0), want[1], max(want[2], 0.0), want[3])
    got = tuple(float(getattr(traj, k)[-1]) for k in ("y_u", "p_u", "y_v", "p_v"))
    for g, w in zip(got, want):
        assert abs(g - w) <= 4 * math.ulp(max(abs(g), abs(w)))


@pytest.mark.parametrize("name", ["on-ray-n4", "nu0"])
def test_step_control_reads_the_table_forms_error_estimate(name):
    # the second step is h * 0.9 (h / ||err / scale||)^(1/4) with the error
    # estimate of the first; at tol 1e-13 that factor is not clamped.  The
    # table form's err_y = h sum e_j P_j cancels slope stages P_j that each
    # round at the ulp of y' down to about 1e-18, and is off by up to 0.5 %,
    # so the step agrees to about 1e-3, not to the last bit
    p, start, _ = _one_step_cases()[name]
    h, tol = 1e-3, 1e-13
    end, err = dp5_table_step(start, h, p)
    old = (start.y_u, start.p_u, start.y_v, start.p_v)
    new = (end.y_u, end.p_u, end.y_v, end.p_v)
    q = []
    for c in (0, 2):
        y = max(abs(old[c]), abs(new[c]))
        slope = max(abs(old[c + 1]), abs(new[c + 1]), p.kappa * y)
        q += [err[c] / (tol * (1e-8 + y)), err[c + 1] / (tol * (1e-8 + slope))]
    factor = 0.9 * (h / math.sqrt(0.25 * sum(x * x for x in q))) ** 0.25
    assert 0.2 < factor < 5.0
    calls = []
    traj = integrate(start, (0.0, 1.0), p, tol=tol,
                     stop=lambda *state: calls.append(state) or len(calls) == 2)
    assert (traj.accepted, traj.rejected) == (2, 0)
    assert math.isclose(traj.t[2] - traj.t[1], h * factor, rel_tol=2e-3)


def test_nystrom_coefficients_are_the_tableau_squared():
    # every coefficient of the kernel is the float of its exact value from
    # the table form: c = A 1, A^2, bA and eA with b as the 7th row of A;
    # the entries that the kernel leaves out are exactly 0
    rows = [list(r) + [F(0)] * (7 - len(r)) for r in DP5_A] + [list(DP5_B) + [F(0)]]
    aa = [[sum(rows[i][j] * rows[j][k] for j in range(7)) for k in range(7)]
          for i in range(7)]
    ea = [sum(e * rows[j][k] for j, e in enumerate(DP5_E)) for k in range(7)]
    c = [sum(row) for row in rows]
    assert c[5] == c[6] == sum(DP5_B) == 1 and sum(DP5_E) == 0

    def floats(values):
        return [float(v) for v in values]

    assert floats(c[1:5]) == list(emdenfowler._C)
    assert not any(aa[0] + aa[1])  # stage 2 is y + h c_2 y'
    for i, kept in ((2, emdenfowler._AA3), (3, emdenfowler._AA4),
                    (4, emdenfowler._AA5), (5, emdenfowler._AA6)):
        assert floats(aa[i][:len(kept)]) == list(kept) and not any(aa[i][len(kept):])
    assert floats(aa[6][:6]) == list(emdenfowler._BA) and aa[6][6] == 0
    assert floats(ea[:6]) == list(emdenfowler._EA) and ea[6] == 0
    assert floats(DP5_B) == list(emdenfowler._B)
    assert floats(DP5_E) == list(emdenfowler._E)


# Step counts and the exact last state (t, y_u, p_u, y_v, p_v) of fixed runs:
# any change in the kernel's floating-point operations, its error scale among
# them, shows up here.  Recorded when the kernel came to run in Nystrom form
# (stage states from the stage fields alone, the coupling as one product
# y_u^(alpha-1) y_v^(beta-1)): the extinction trial went from 152 accepted and
# 27 rejected steps to 151 and 30, and every other run kept its counts.  Backward
# legs are forward runs from the flipped state over the mirrored span, with t
# and both slopes negated back.  At t0 = 0 the start is the maximum, where
# both slopes are zero; the off-maximum leg starts at t0 = 0.5, on a slope.
KERNEL_PINS = {
    "n4-forward": (631, 0, "completed", (
        "0x1.4000000000000p+3", "0x1.36f5e5735455ep-14", "-0x1.36f3c3227b23bp-14",
        "0x1.36f5e5735455ep-14", "-0x1.36f3c3227b23bp-14")),
    "n4-backward": (631, 0, "completed", (
        "-0x1.4000000000000p+3", "0x1.36f5e5735455ep-14", "0x1.36f3c3227b23bp-14",
        "0x1.36f5e5735455ep-14", "0x1.36f3c3227b23bp-14")),
    "n4-backward-off-maximum": (689, 0, "completed", (
        "-0x1.4000000000000p+3", "0x1.36f6738994cc5p-14", "0x1.36f3350c3eba2p-14",
        "0x1.36f6738994cc5p-14", "0x1.36f3350c3eba2p-14")),
    "n3-forward-tol12": (1057, 0, "completed", (
        "0x1.4000000000000p+3", "0x1.ab20ae1ab1a11p-9", "-0x1.ab20adfcf8779p-10",
        "0x1.178f05b1ce716p-7", "-0x1.178f059e583fdp-8")),
    "n3-backward-tol12": (1057, 0, "completed", (
        "-0x1.4000000000000p+3", "0x1.ab20ae1ab1a11p-9", "0x1.ab20adfcf8779p-10",
        "0x1.178f05b1ce716p-7", "0x1.178f059e583fdp-8")),
    "n4-shooting-trial": (151, 30, "extinction", (
        "0x1.a7128d7e4038ep+1", "0x0.0p+0", "-0x1.dee343134cb3ep-4",
        "0x0.0p+0", "-0x1.dee343134cb3ep-4")),
    "n4-low-blowup-threshold": (105, 0, "blowup", (
        "-0x1.10c518c9b2d55p+0", "0x1.0181f7067b951p-1", "0x1.95b5b8dc7b1b6p-2",
        "0x1.0181f7067b951p-1", "0x1.95b5b8dc7b1b6p-2")),
    "n4-scalar-forward": (631, 0, "completed", (
        "0x1.4000000000000p+3", "0x1.0d4cba521b707p-13", "-0x1.0d4ae1898484cp-13",
        "0x1.0d4cba521b707p-13", "-0x1.0d4ae1898484cp-13")),
}


def _pinned_run(name):
    n4 = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam4 = hs.classify(n4, 1.0)[0]
    if name.startswith("n3"):
        n3 = hs.ProblemParams(3, 0.0, 1.0, 3.0)
        start = exact_ef_solution(hs.classify(n3, 1.0)[0], 0.0)
        if "backward" in name:
            start = _flipped(start)
        return integrate(start, (0.0, 10.0), n3, tol=1e-12)
    if name == "n4-shooting-trial":
        a = 1.01 * fam4.c1 * n4.amplitude * 2.0 ** (-n4.delta)
        start = EFState(a, 0.0, a / fam4.c_tilde, 0.0)
        return integrate(start, (0.0, 60.0 / n4.kappa), n4, tol=1e-9,
                         stop=lambda t, yu, pu, yv, pv: pu > 0.0)
    if name == "n4-low-blowup-threshold":
        return integrate(exact_ef_solution(fam4, -3.0), (-3.0, 10.0), n4)
    if name == "n4-scalar-forward":
        scalar = hs.ProblemParams(4, 0.0, 0.0, 2.0)
        start = exact_ef_solution(hs.classify(scalar, 1.0)[0], 0.0)
        return integrate(start, (0.0, 10.0), scalar)
    if name == "n4-backward-off-maximum":
        return integrate(_flipped(exact_ef_solution(fam4, 0.5)), (-0.5, 10.0), n4)
    start = exact_ef_solution(fam4, 0.0)
    if name == "n4-backward":
        start = _flipped(start)
    return integrate(start, (0.0, 10.0), n4)


@pytest.mark.parametrize("name", sorted(KERNEL_PINS))
def test_kernel_bitwise_regression(name, monkeypatch):
    if name == "n4-low-blowup-threshold":
        monkeypatch.setattr(emdenfowler, "BLOWUP_THRESHOLD", 0.5)
    traj = _pinned_run(name)
    # a backward leg is read back in the original time: t and slopes negated
    sign = -1.0 if "backward" in name else 1.0
    last = tuple(float(s * getattr(traj, k)[-1]).hex() for s, k in (
        (sign, "t"), (1.0, "y_u"), (sign, "p_u"), (1.0, "y_v"), (sign, "p_v")))
    assert (traj.accepted, traj.rejected, traj.termination, last) == KERNEL_PINS[name]


def test_shoot_bitwise_regression(benchmark4):
    # 0x1.a20bd700be7b1p-1 until the start came to read K = 1 + nu alpha
    # s^-beta as e^(log K), 5 ulps higher
    p, fam = benchmark4
    assert hs.shoot_synchronized(p, fam.root).y_u[-1].hex() == "0x1.a20bd700be7b6p-1"


@pytest.mark.parametrize("n", [3, 6, 14, 50, 150, 200])
def test_manifold_series_start(n):
    # at x0 = (2 2* rho0)^(1/m), rho0 = 1/4, the series of G = log(Z(x)/x),
    # built from the ODE alone, solves x^2 Z'' + x Z' = Z - Z^(2*-1) to
    # roundoff; the closed-form start Z(x0) = x0 (1 + rho0)^(-2/m) is the
    # start summed from that series, and it lies on the zero level set of
    # the ray's first integral
    ts = hs.critical_exponent(n)
    m = ts - 2.0
    p = hs.ProblemParams(n, 0.0, 0.0, ts / 2.0)
    w = 2.0 * ts * 0.25
    x0 = w ** (1.0 / m)
    logs = manifold_coefficients(ts, w)
    g = math.fsum(a * w ** k for k, a in enumerate(logs))
    dg = math.fsum(m * k * a * w ** k for k, a in enumerate(logs))  # m theta G
    d2g = math.fsum((m * k) ** 2 * a * w ** k for k, a in enumerate(logs))
    z = x0 * math.exp(g)
    d2z = z * ((1.0 + dg) ** 2 + d2g)  # x^2 Z'' + x Z'
    assert abs(d2z - z + z ** (ts - 1.0)) <= 4e-15 * max(d2z, z)
    x_u = _manifold_coordinate(p, 1.0)
    # the coordinate is x0 y_eq, y_eq = kappa^(2/m) on the scalar ray
    assert math.isclose(x_u, x0 * p.kappa ** (2.0 / m), rel_tol=1e-14)
    start, series = _manifold_start(p, 1.0), manifold_series_start(p, 1.0)
    assert (start.y_v, start.p_v) == (start.y_u, start.p_u)
    # the series' own rounding: G = -(2/m) log(5/4), -22 at n = 200, sums
    # about 30 rounded terms of one sign and errs by up to 3.2e-15 |G|, which
    # exp turns into a relative error of the series start (7e-14 at n = 200,
    # 1.5e-14 at n = 150); the closed form has no such growth
    tol = 4e-15 * max(1.0, abs(g))
    assert math.isclose(start.y_u, series.y_u, rel_tol=tol)
    assert math.isclose(start.p_u, series.p_u, rel_tol=tol)
    # the first integral in units of y_eq, whose 2*-th power overflows at n = 200
    y_eq, kappa2 = x_u / x0, p.kappa * p.kappa
    z, q = start.y_u / y_eq, start.p_u / y_eq
    energy = 0.5 * q * q - 0.5 * kappa2 * z * z + kappa2 * z ** ts / ts
    assert abs(energy) <= 1e-15 * 0.5 * kappa2 * z * z


def test_manifold_coordinate_at_a_tiny_root():
    # at s = 1.97e-251, K = 1 + nu alpha s^-beta is about 2.6e501, beyond
    # the doubles; y_eq = (kappa^2 / K)^(1/m) is about 2e-251, and the start's
    # y_u / s on the ray is the equilibrium's K-free ratio x0 kappa^(2/m)
    # (nu alpha)^(-1/m) s^(beta/m - 1) to rounding
    p = hs.ProblemParams(4, 0.0, 6.771602131663632e-05, 1.984557056190681)
    s = hs.find_positive_roots(p)[0].c_tilde
    assert s < 1e-250
    m = p.two_star - 2.0
    x_u = _manifold_coordinate(p, s)
    x0 = (2.0 * p.two_star * 0.25) ** (1.0 / m)
    log_ratio = (math.log(x0) + 2.0 / m * math.log(p.kappa)
                 - math.log(p.nu * p.alpha) / m + (p.beta / m - 1.0) * math.log(s))
    assert abs(math.log(x_u / s) - log_ratio) <= 1e-12 * abs(log_ratio)
    # where nothing overflows, K itself gives the same coordinate to rounding
    for s in (1e-3, 1.0, 1e3):
        k = 1.0 + p.nu * p.alpha * s ** -p.beta
        assert math.isclose(_manifold_coordinate(p, s),
                            x0 * (p.kappa * p.kappa / k) ** (1.0 / m), rel_tol=1e-14)


def test_shoot_returns_the_half_orbit_up_to_its_turn(benchmark3):
    # from the start on the ray to the turn, which sits at t = 0 with both
    # slopes 0 and y_u = a*, the interpolant's maximum
    p, fams = benchmark3
    for fam in fams:
        s = fam.c_tilde
        half = hs.shoot_synchronized(p, fam.root)
        assert half.termination == "completed"
        assert half.y_v[0] == half.y_u[0] / s
        assert half.t[-1] == 0.0 and np.all(np.diff(half.t) > 0.0)
        assert np.all(np.asarray(half.p_u[:-1]) > 0.0)
        assert (half.p_u[-1], half.p_v[-1]) == (0.0, 0.0)
        assert half.y_u[-1] == np.max(half.y_u)
        assert abs(half.y_v[-1] * s / half.y_u[-1] - 1.0) <= 1e-12
        assert abs(half.y_u[-1] - fam.peak_amplitude) <= 1e-10 * fam.peak_amplitude


def test_shoot_tolerance_bound(benchmark4):
    # up to 1e-4 the amplitude errs by at most tol / 2; looser is refused.
    # Down to 1e-12 it shoots; tighter lies outside the tested range, and it
    # is refused before any step
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root, tol=1e-4).y_u[-1]
    assert abs(a - fam.peak_amplitude) <= 0.5e-4 * fam.peak_amplitude
    with pytest.raises(ParameterError, match=r"in \[1e-12, 1e-4\], got 0.000101$"):
        hs.shoot_synchronized(p, fam.root, tol=1.01e-4)
    a = hs.shoot_synchronized(p, fam.root, tol=1e-12).y_u[-1]
    assert abs(a - fam.peak_amplitude) <= 1e-11 * fam.peak_amplitude
    for tol in (0.99e-12, 1e-13, 1e-300, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match=rf"in \[1e-12, 1e-4\], got {tol:g}$"):
            hs.shoot_synchronized(p, fam.root, tol=tol)


def test_shoot_loose_tolerance_is_single_stage(monkeypatch, benchmark4):
    # at any tolerance, 1e-7 included, a shot is one run at that tolerance
    p, fam = benchmark4
    tols = []

    def recording(initial, *args, **kwargs):
        tols.append(kwargs["tol"])
        return integrate(initial, *args, **kwargs)

    monkeypatch.setattr(emdenfowler, "integrate", recording)
    a = hs.shoot_synchronized(p, fam.root, tol=1e-7).y_u[-1]
    assert tols == [1e-7]
    assert a.hex() == "0x1.a20bd6fc7a322p-1"
    target = math.sqrt(2.0 / 3.0)
    assert abs(a - target) / target <= 1e-9


def test_integration_rejects_bad_inputs(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="positive and finite"):
            integrate(start, (0.0, 1.0), p, tol=tol)
    with pytest.raises(ParameterError):
        integrate(EFState(math.nan, 0.0, 0.0, 0.0), (0.0, 1.0), p)


def test_integration_rejects_backward_span(benchmark4):
    # a span with t1 < t0 would otherwise return the start alone; a backward
    # leg is the forward run from the flipped state
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    for span in ((0.0, -10.0), (0.3, 0.2999999999999999), (0.0, math.nan)):
        with pytest.raises(ParameterError, match="t_span must run forward"):
            integrate(start, span, p)


def test_trajectory_csv(benchmark4, tmp_path):
    # export --what trajectory at N = 5 on [-1, 1]: 2 floor(N/2) + 1 rows
    _, fam = benchmark4
    out = tmp_path / "traj.csv"
    assert main(["export", "--n", "4", "--nu", "1", "--alpha", "2", "--what", "trajectory",
                 "--t-halfspan", "1", "--t-points", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y_u,p_u,y_v,p_v"
    assert len(lines) == 1 + 2 * (5 // 2) + 1
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    traj = exact_trajectory(fam, parsed[:, 0])
    assert_allclose(parsed[:, 1], traj.y_u, rtol=0)  # 17 digits round-trip


# --- energy ----------------------------------------------------------------------


def test_scalar_energy_zero_on_homoclinic():
    for n, gamma in ((4, 0.0), (5, 1.125)):
        p = hs.ProblemParams(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
        fam = hs.classify(p, 1.0)[0]
        t = np.linspace(-20.0, 20.0, 1601)
        y, q, _, _ = _closed_form_arrays(fam, t)
        h_vals = np.array([ef_energy(float(a), float(b), p) for a, b in zip(y, q)])
        assert np.max(np.abs(h_vals)) <= 1e-10
        assert np.max(h_vals) - np.min(h_vals) <= 1e-10


# --- shooting --------------------------------------------------------------------


def test_shoot_recovers_n4_amplitude(benchmark4):
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root).y_u[-1]
    target = math.sqrt(2.0 / 3.0)
    assert abs(a - target) / target <= 1e-6


def test_shoot_recovers_scalar_amplitude():
    p = hs.ProblemParams(5, 0.0, 0.0, hs.critical_exponent(5) / 2.0)
    fam = hs.classify(p, 1.0)[0]
    a = hs.shoot_synchronized(p, fam.root).y_u[-1]
    target = p.amplitude * 2.0 ** (-p.delta)
    assert abs(a - target) / target <= 1e-6


def test_shoot_recovers_n3_amplitude(benchmark3):
    p, fams = benchmark3
    fam = [f for f in fams if abs(f.c_tilde - 1.0) < 1e-9][0]
    a = hs.shoot_synchronized(p, fam.root).y_u[-1]
    target = 3.0 ** 0.25 / 2.0  # c1 A 2^-delta = 2^-1/2 * 3^1/4 * 2^-1/2
    assert abs(a - target) / target <= 1e-6


def test_shoot_rejects_non_root(benchmark4):
    p, _ = benchmark4
    fake = hs.CouplingRoot(c_tilde=1.7, f_prime=1.0, is_degenerate=False)
    with pytest.raises(ParameterError):
        hs.shoot_synchronized(p, fake)


def test_shoot_and_constants_share_one_root_test(benchmark4):
    # s = 1 + 3e-9 at n = 4, nu = 1, alpha = 2: |f(s)| = 6.0e-9, 1e-9 of the
    # term sum, above the 1e-10 that decides a root.  Both refuse it, with
    # one message, and so a NaN or infinite s, whose residual is NaN
    p, fam = benchmark4
    cases = {1.0 + 3e-9: r"\|f\(1.000000003\)\| = 6.000e-09",
             math.nan: r"\|f\(nan\)\| = nan", math.inf: r"\|f\(inf\)\| = nan"}
    for s, residual in cases.items():
        for refuse in (hs.constants_from_root, lambda r, p: hs.shoot_synchronized(p, r)):
            with pytest.raises(ParameterError, match="root residual too large: " + residual):
                refuse(fam.root._replace(c_tilde=s), p)


def test_shoot_trial_budget(monkeypatch, benchmark4, benchmark3):
    starts = []

    def counting(initial, *args, **kwargs):
        starts.append(initial)
        return integrate(initial, *args, **kwargs)

    monkeypatch.setattr(emdenfowler, "integrate", counting)
    (p4, fam4), (p3, fams3) = benchmark4, benchmark3
    assert len(fams3) == 3
    for p, fam in [(p4, fam4)] + [(p3, f) for f in fams3]:
        starts.clear()
        a = hs.shoot_synchronized(p, fam.root).y_u[-1]
        assert abs(a - fam.peak_amplitude) / fam.peak_amplitude <= 1e-10
        assert len(starts) == 1
        # numpy scalars here would make every step of the run slower
        assert all(type(getattr(starts[0], k)) is float
                   for k in ("y_u", "p_u", "y_v", "p_v"))


def test_shoot_run_that_does_not_turn_raises(benchmark4, monkeypatch):
    # a* = 0.816 lies above the lowered blow-up threshold, so the run ends in
    # blow-up before it turns
    p, fam = benchmark4
    monkeypatch.setattr(emdenfowler, "BLOWUP_THRESHOLD", 0.5)
    with pytest.raises(hs.IntegrationError, match="did not turn"):
        hs.shoot_synchronized(p, fam.root)


def test_shoot_bracket_failure(monkeypatch, benchmark4):
    # the span (0, t_end) brackets the turning time as a bracket once held
    # a*: on the exact orbit rho = x^m / (2 2*) grows like e^(m kappa t) from
    # 1/4 at the start to 1 at the turn, half the span.  A span cut to just
    # below half ends before the turn, and the shot raises; one cut to just
    # above half turns at that time
    p, fam = benchmark4
    turn = math.log(4.0) / ((p.two_star - 2.0) * p.kappa)
    for fraction in (0.49, 0.51):
        def short(initial, span, *args, **kwargs):
            assert span == (0.0, 2.0 * turn)
            return integrate(initial, (span[0], fraction * span[1]), *args, **kwargs)

        monkeypatch.setattr(emdenfowler, "integrate", short)
        if fraction < 0.5:
            with pytest.raises(hs.IntegrationError, match=r"did not turn \(completed,"):
                hs.shoot_synchronized(p, fam.root)
        else:
            assert abs(hs.shoot_synchronized(p, fam.root).t[0] + turn) <= 1e-9 * turn


def test_shoot_bracket_wholly_below_homoclinic(monkeypatch, benchmark4):
    # a* = sqrt(2/3) ~ 0.8165, ray equilibrium 1/sqrt(3) ~ 0.577.  y_u climbs
    # until the turn, so a run stopped at 0.8 (above the equilibrium) or 0.5
    # (below it) reached only amplitudes below a*, and the shot raises
    p, fam = benchmark4
    target = math.sqrt(2.0 / 3.0)
    for level in (0.8, 0.5):
        runs = []

        def stopped(initial, *args, stop, **kwargs):
            traj = integrate(initial, *args, stop=lambda t, yu, pu, yv, pv: yu >= level,
                             **kwargs)
            runs.append(traj)
            return traj

        monkeypatch.setattr(emdenfowler, "integrate", stopped)
        with pytest.raises(hs.IntegrationError, match="did not turn"):
            hs.shoot_synchronized(p, fam.root)
        assert len(runs) == 1
        assert level <= float(np.max(runs[0].y_u)) < target


def _fate(p, s, a):
    """'rebound' or 'extinction' of a trial from the symmetric maximum (a, 0, a/s, 0)."""
    traj = integrate(EFState(a, 0.0, a / s, 0.0), (0.0, 60.0 / p.kappa), p, tol=1e-9,
                     stop=lambda t, yu, pu, yv, pv: pu > 0.0)
    if traj.termination == "completed" and traj.p_u[-1] > 0.0:
        return "rebound"
    return traj.termination


def _dichotomy_roots():
    """(n, gamma / lambda_n, nu, root index) of the 16 distinct roots of the
    acceptance matrix, alpha = 2*/2; the first four keep their earlier names."""
    roots = {"n4": (4, 0.0, 1.0, 0), "n3": (3, 0.0, 1.0, 0),
             "n3-root1": (3, 0.0, 1.0, 1), "n3-root2": (3, 0.0, 1.0, 2)}
    for n in (3, 4, 5):
        for frac in (0.0, 0.5):
            for nu in (0.0, 1.0):
                for index in range(3 if (n, nu) == (3, 1.0) else 1):
                    if (n, frac, nu, index) not in roots.values():
                        roots[f"n{n}-gamma{frac:g}-nu{nu:g}-root{index}"] = (
                            n, frac, nu, index)
    return roots


DICHOTOMY_ROOTS = _dichotomy_roots()


@pytest.mark.parametrize("name", list(DICHOTOMY_ROOTS))
def test_shoot_result_proven_at_final_tolerance(name):
    # the traced amplitude separates the two fates of a trial from the
    # maximum: 1e-8 below it (relative) rebounds, 1e-8 above it goes extinct
    n, frac, nu, index = DICHOTOMY_ROOTS[name]
    p = hs.ProblemParams(n, frac * hs.hardy_constant(n), nu, hs.critical_exponent(n) / 2.0)
    fam = hs.classify(p, 1.0)[index]
    a = hs.shoot_synchronized(p, fam.root, tol=1e-9).y_u[-1]
    assert _fate(p, fam.c_tilde, a * (1.0 - 1e-8)) == "rebound"
    assert _fate(p, fam.c_tilde, a * (1.0 + 1e-8)) == "extinction"


def test_shoot_accuracy_across_dimensions():
    # 28 roots: n in {3, 6, 14}, gamma at 0 and 0.99 lambda_n, nu in {0, 10},
    # alpha 5 % of its range (1, 2* - 1) from either end
    roots = 0
    for n in (3, 6, 14):
        ts = hs.critical_exponent(n)
        for frac in (0.0, 0.99):
            for nu in (0.0, 10.0):
                for alpha in (1.0 + 0.05 * (ts - 2.0), ts - 1.0 - 0.05 * (ts - 2.0)):
                    p = hs.ProblemParams(n, frac * hs.hardy_constant(n), nu, alpha)
                    for fam in hs.classify(p, 1.0):
                        a = hs.shoot_synchronized(p, fam.root).y_u[-1]
                        target = fam.peak_amplitude
                        assert abs(a - target) / target <= 1e-10, (n, frac, nu, alpha)
                        roots += 1
    assert roots == 28


def test_shoot_accuracy_near_the_hardy_constant():
    # gamma = 0.99 lambda_n, where kappa, and with it the floor kappa |y| of
    # each slope's error scale, is smallest: across the accepted tolerances
    # the amplitude still errs by at most tol / 2 (at most 0.12 tol here)
    roots = 0
    for n in (3, 6, 14):
        ts = hs.critical_exponent(n)
        for nu in (0.0, 1.0, 10.0):
            for alpha in (1.0 + 0.05 * (ts - 2.0), ts / 2.0, ts - 1.0 - 0.05 * (ts - 2.0)):
                p = hs.ProblemParams(n, 0.99 * hs.hardy_constant(n), nu, alpha)
                for fam in hs.classify(p, 1.0):
                    target = fam.peak_amplitude
                    for tol in (1e-4, 1e-7, 1e-12):
                        a = hs.shoot_synchronized(p, fam.root, tol).y_u[-1]
                        assert abs(a - target) / target <= 0.5 * tol, (n, nu, alpha, tol)
                    roots += 1
    assert roots == 35


def test_shot_keeps_its_step_through_the_turn(monkeypatch, benchmark4):
    # each slope's error is scaled by at least kappa |y|, which does not pass
    # through zero with y_u', so the steps do not shrink at the turn: at tol
    # 1e-10 the shot's last accepted step, the one through the turn, is at
    # least half its median step (about 0.3 of it when the slope was scaled
    # by itself), and no step is rejected
    # (shooting writes the turn into the run's arrays, so its times are copied)
    p, fam = benchmark4
    runs = []

    def recording(*args, **kwargs):
        run = integrate(*args, **kwargs)
        runs.append((run.t.copy(), run.rejected))
        return run

    monkeypatch.setattr(emdenfowler, "integrate", recording)
    hs.shoot_synchronized(p, fam.root, tol=1e-10)
    ((t, rejected),) = runs
    steps = np.diff(t)
    assert rejected == 0
    assert steps[-1] >= 0.5 * np.median(steps)


# --- trajectory diagnostics -------------------------------------------------------


def test_proportionality_exact_and_mismatched(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-8.0, 8.0, 3001))
    assert hs.proportionality_defect(traj, fam.c_tilde) <= 1e-13
    assert hs.proportionality_defect(traj, fam.c_tilde * 1.1) >= 0.05


def test_proportionality_integrated(matrix_trajectories):
    for case in matrix_trajectories:
        defect = hs.proportionality_defect(case["orbit"], case["family"].c_tilde)
        assert defect <= 1e-8


def test_proportionality_empty_rejected(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-1, 1, 11))
    empty = type(traj)(t=np.array([]), y_u=np.array([]), p_u=np.array([]),
                       y_v=np.array([]), p_v=np.array([]), accepted=0, rejected=0,
                       termination="completed")
    with pytest.raises(ParameterError, match="empty trajectory"):
        hs.proportionality_defect(empty, 1.0)


def test_proportionality_zero_orbit():
    # an orbit with y_u = 0 throughout has nothing to normalize by: defect 0
    zero = hs.EFTrajectory(t=[0.0, 1.0], y_u=[0.0, 0.0], p_u=[0.0, 0.0],
                           y_v=[0.0, 0.0], p_v=[0.0, 0.0], accepted=1, rejected=0,
                           termination="completed")
    assert hs.proportionality_defect(zero, 1.0) == 0.0


def test_simultaneous_max_off_grid(benchmark4):
    # sampling grid deliberately not centered on the maximum
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-5.0011, 4.9989, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u - t_v) <= 1e-6
    assert abs(t_u) <= 1e-6


def test_simultaneous_max_scaled_family():
    p = hs.ProblemParams(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 2.0)[0]
    t0 = math.log(2.0)
    traj = exact_trajectory(fam, np.linspace(t0 - 5.0011, t0 + 4.9989, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u - t0) <= 1e-6
    assert abs(t_v - t0) <= 1e-6


def test_simultaneous_max_scalar_case():
    p = hs.ProblemParams(3, 0.125, 0.0, 3.0)
    fam = hs.classify(p, 1.0)[0]
    traj = exact_trajectory(fam, np.linspace(-6.0007, 5.9993, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u) <= 1e-6 and abs(t_v) <= 1e-6


def test_simultaneous_max_boundary_error(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(1.0, 5.0, 101))  # max at left edge
    with pytest.raises(ValueError, match="maximum on trajectory boundary"):
        simultaneous_max_check(traj)


# --- residuals of the three encodings ---------------------------------------------


def test_radial_residual_benchmark(benchmark4):
    _, fam = benchmark4
    ru, rv = hs.emdenfowler.radial_system_residual(fam, LOG_GRID)
    assert max(ru, rv) <= 1e-9


def test_radial_residual_scalar():
    p = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    ru, rv = hs.emdenfowler.radial_system_residual(fam, LOG_GRID)
    assert max(ru, rv) <= 1e-9


def test_radial_residual_detects_wrong_amplitude(benchmark4):
    _, fam = benchmark4
    wrong = fam._replace(c1=1.1 * fam.c1, c2=1.1 * fam.c2)
    ru, rv = hs.emdenfowler.radial_system_residual(wrong, LOG_GRID)
    assert max(ru, rv) >= 1e-2


def test_radial_residual_rejects_bad_grid(benchmark4):
    # the residuals take log rho: a non-finite one is refused, in every encoding
    p, fam = benchmark4
    for bad in (math.nan, math.inf, -math.inf):
        log_rho = np.array([0.0, bad])
        with pytest.raises(ParameterError, match="log rho must be finite"):
            hs.emdenfowler.radial_system_residual(fam, log_rho)
        with pytest.raises(ParameterError, match="log rho must be finite"):
            hs.emdenfowler.weighted_system_residual(fam, p.tau2, log_rho)
        with pytest.raises(ParameterError, match="log rho must be finite"):
            hs.emdenfowler.ef_system_residual(fam, log_rho)


def test_weighted_residual_both_roots(benchmark4):
    p, fam = benchmark4
    for tau in (p.tau1, p.tau2):
        wu, wv = hs.emdenfowler.weighted_system_residual(fam, tau, LOG_GRID)
        assert max(wu, wv) <= 1e-9


def test_weighted_residual_rejects_non_root_exponent():
    p = hs.ProblemParams(5, 1.125, 1.0, hs.critical_exponent(5) / 2.0)
    fam = hs.classify(p, 1.0)[0]
    with pytest.raises(ParameterError):
        hs.emdenfowler.weighted_system_residual(fam, p.delta, LOG_GRID)


def test_three_encodings_agree(matrix_families):
    # one solution, three formulations, all residuals at the same tolerance,
    # in the array form of _encoding_residual; the radial and weighted ones
    # also by the r-space oracle, which sums the undivided equations term by
    # term at the radii r = mu0 rho, and the phase-plane one also by the
    # theta-form oracle, summed in t = log r
    for p, mu0, fam in matrix_families:
        units = bounded_units(fam.profile, LOG_GRID)
        assert max(encoding_residual(fam, 0.0, p.gamma, units)) <= 1e-9
        assert max(r_space_residual(fam, 0.0, p.gamma, mu0 * GRID)) <= 1e-9
        for tau in (p.tau1, p.tau2):
            assert max(encoding_residual(fam, tau, 0.0, units)) <= 1e-9
            assert max(r_space_residual(fam, tau, 0.0, mu0 * GRID)) <= 1e-9
        assert max(encoding_residual(fam, p.delta, p.gamma - p.delta * p.delta, units)) <= 1e-9
        t_grid = np.linspace(math.log(mu0) - 14.0, math.log(mu0) + 14.0, 801)
        assert max(phase_plane_residual(fam, t_grid)) <= 1e-9


@pytest.mark.parametrize("args", [(4, 0.0, 1.0, 2.0), (3, 0.0, 1.0, 3.0),
                                  (5, 1.125, 1.0, 5.0 / 3.0), (20, 0.0, 0.3, 1.2),
                                  (150, 5475.0, 0.0, 1.0135135135135136),
                                  (150, 0.0, 1.0, 1.0135135135135136)])
def test_float_residual_is_the_array_form(args):
    # the residual runs on Python floats, the tests' array form in numpy, in
    # the same order of operations on the same units: only numpy's exp may
    # round y^m differently, by an ulp, so the maxima agree to 1e-15
    p = hs.ProblemParams(*args)
    for fam in hs.classify(p):
        units = bounded_units(fam.profile, LOG_GRID)
        wrappers = {
            (0.0, p.gamma): hs.emdenfowler.radial_system_residual(fam, LOG_GRID),
            (p.tau1, 0.0): hs.emdenfowler.weighted_system_residual(fam, p.tau1, LOG_GRID),
            (p.tau2, 0.0): hs.emdenfowler.weighted_system_residual(fam, p.tau2, LOG_GRID),
            (p.delta, p.gamma - p.delta * p.delta):
                hs.emdenfowler.ef_system_residual(fam, LOG_GRID)}
        for (tau, potential), got in wrappers.items():
            assert_allclose(got, encoding_residual(fam, tau, potential, units),
                            rtol=0, atol=1e-15)


def test_quotient_limits_integrated(matrix_trajectories):
    for case in matrix_trajectories:
        orbit = case["orbit"]
        s = case["family"].c_tilde
        assert abs(orbit.y_u[0] / orbit.y_v[0] - s) <= 1e-6 * s
        assert abs(orbit.y_u[-1] / orbit.y_v[-1] - s) <= 1e-6 * s
