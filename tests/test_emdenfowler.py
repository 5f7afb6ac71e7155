import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import (EFState, ParameterError, TrajectoryError,
                      emdenfowler)
from hardysys.emdenfowler import (_closed_form_accel, _closed_form_arrays,
                                  exact_ef_solution, exact_trajectory, integrate)
from reference import convergence_order, ef_energy, ef_rhs

GRID = np.geomspace(1e-6, 1e6, 2048)


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
        ref_u, ref_v = _closed_form_accel(fam, t)
        assert_allclose((acc_u, acc_v), (float(ref_u), float(ref_v)), rtol=1e-12)


def test_rhs_decouples_at_zero_nu():
    p = hs.ProblemParams.symmetric(4, 0.0, 0.0, 2.0)
    out_a = ef_rhs(EFState(0.3, 0.1, 0.8, -0.2), p)
    out_b = ef_rhs(EFState(0.9, 0.1, 0.8, -0.2), p)
    assert out_a[2:] == out_b[2:]  # v-equations blind to y_u


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
    p = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
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


def test_two_sided_exponential_bounds(matrix_families):
    for _, mu0, fam in matrix_families:
        kappa = fam.profile.params.kappa
        t0 = math.log(mu0)
        s = np.concatenate([-np.linspace(10, 30, 41), np.linspace(10, 30, 41)])
        y_u, _, _, _ = _closed_form_arrays(fam, t0 + s)
        compensated = np.exp(kappa * np.abs(s)) * y_u
        assert np.all(np.isfinite(compensated))
        assert np.min(compensated) > 0
        # converges to c1*A at both ends: tiny spread on |s| >= 10
        assert np.max(compensated) / np.min(compensated) < 1.01


# --- integration -----------------------------------------------------------------


def test_integration_tracks_closed_form(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    for direction in (+1.0, -1.0):
        traj = integrate(start, (0.0, 10.0 * direction), p, tol=1e-10)
        assert traj.termination == "completed"
        ref_u, ref_p, ref_v, _ = _closed_form_arrays(fam, traj.t)
        assert np.max(np.abs(traj.y_u - ref_u)) <= 1e-6
        assert np.max(np.abs(traj.y_v - ref_v)) <= 1e-6
        assert np.max(np.abs(traj.p_u - ref_p)) <= 1e-5


def test_integration_tolerance_scaling(benchmark4):
    # a factor 10 in tol must buy at least a factor 16 in sup error
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)

    def sup_err(tol):
        worst = 0.0
        for direction in (+1.0, -1.0):
            traj = integrate(start, (0.0, 10.0 * direction), p, tol=tol)
            ref_u, _, _, _ = _closed_form_arrays(fam, traj.t)
            worst = max(worst, float(np.max(np.abs(traj.y_u - ref_u))))
        return worst

    assert sup_err(1e-10) / sup_err(1e-11) >= 16.0


def test_integrator_effective_order(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    pairs = []
    for tol in (1e-7, 1e-8, 1e-9, 1e-10):
        traj = integrate(start, (0.0, 10.0), p, tol=tol)
        ref_u, _, _, _ = _closed_form_arrays(fam, traj.t)
        h_mean = 10.0 / traj.accepted
        pairs.append((h_mean, float(np.max(np.abs(traj.y_u - ref_u)))))
    assert convergence_order(pairs) >= 4.0


def test_trajectory_monotone_time_and_stats(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    fwd = integrate(start, (0.0, 5.0), p, tol=1e-8)
    assert np.all(np.diff(fwd.t) > 0)
    bwd = integrate(start, (0.0, -5.0), p, tol=1e-8)
    assert np.all(np.diff(bwd.t) < 0)
    assert fwd.accepted == len(fwd.t) - 1
    assert fwd.rejected >= 0
    # reversibility: backward leg mirrors the forward one
    ref_u, _, _, _ = _closed_form_arrays(fam, bwd.t)
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
    values = (exact.y_u, exact.p_u, exact.y_v, exact.p_v)
    for span in ((0.2, 4.0), (0.2, -3.0)):
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


# Step counts and the exact last state (t, y_u, p_u, y_v, p_v) of fixed runs,
# recorded from the table-driven form of the kernel: any change in the order
# of its floating-point operations shows up here.
KERNEL_PINS = {
    "n4-forward": (672, 0, "completed", (
        "0x1.4000000000000p+3", "0x1.36f53ac6bdc18p-14", "-0x1.36f46dcf0d2edp-14",
        "0x1.36f53ac6bdc18p-14", "-0x1.36f46dcf0d2edp-14")),
    "n4-backward": (672, 0, "completed", (
        "-0x1.4000000000000p+3", "0x1.36f53ac6bdc18p-14", "0x1.36f46dcf0d2edp-14",
        "0x1.36f53ac6bdc18p-14", "0x1.36f46dcf0d2edp-14")),
    "n3-forward-tol12": (1170, 2, "completed", (
        "0x1.4000000000000p+3", "0x1.ab20ae1aa7bdcp-9", "-0x1.ab20adfd02593p-10",
        "0x1.178f05b1ca8c3p-7", "-0x1.178f059e5c24dp-8")),
    "n3-backward-tol12": (1170, 2, "completed", (
        "-0x1.4000000000000p+3", "0x1.ab20ae1aa7bdcp-9", "0x1.ab20adfd02593p-10",
        "0x1.178f05b1ca8c3p-7", "0x1.178f059e5c24dp-8")),
    "n4-shooting-trial": (175, 28, "extinction", (
        "0x1.a7128e109664ap+1", "0x0.0p+0", "-0x1.dee3431449a67p-4",
        "0x0.0p+0", "-0x1.dee3431449a67p-4")),
    "n4-low-blowup-threshold": (106, 0, "blowup", (
        "-0x1.11129b4b66825p+0", "0x1.01448ea2158afp-1", "0x1.9590072665c0cp-2",
        "0x1.01448ea2158afp-1", "0x1.9590072665c0cp-2")),
    "n4-scalar-forward": (672, 0, "completed", (
        "0x1.4000000000000p+3", "0x1.0d4c263d2548fp-13", "-0x1.0d4b759e76aefp-13",
        "0x1.0d4c263d2548fp-13", "-0x1.0d4b759e76aefp-13")),
}


def _pinned_run(name):
    n4 = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
    fam4 = hs.classify(n4, 1.0)[0]
    if name.startswith("n3"):
        n3 = hs.ProblemParams.symmetric(3, 0.0, 1.0, 3.0)
        start = exact_ef_solution(hs.classify(n3, 1.0)[0], 0.0)
        end = 10.0 if "forward" in name else -10.0
        return integrate(start, (0.0, end), n3, tol=1e-12)
    if name == "n4-shooting-trial":
        a = 1.01 * fam4.c1 * n4.amplitude * 2.0 ** (-n4.delta)
        start = EFState(a, 0.0, a / fam4.c_tilde, 0.0)
        return integrate(start, (0.0, 60.0 / n4.kappa), n4, tol=1e-9,
                         stop=lambda t, yu, pu, yv, pv: pu > 0.0)
    if name == "n4-low-blowup-threshold":
        return integrate(exact_ef_solution(fam4, -3.0), (-3.0, 10.0), n4)
    if name == "n4-scalar-forward":
        scalar = hs.ProblemParams.symmetric(4, 0.0, 0.0, 2.0)
        start = exact_ef_solution(hs.classify(scalar, 1.0)[0], 0.0)
        return integrate(start, (0.0, 10.0), scalar)
    end = 10.0 if name == "n4-forward" else -10.0
    return integrate(exact_ef_solution(fam4, 0.0), (0.0, end), n4)


@pytest.mark.parametrize("name", sorted(KERNEL_PINS))
def test_kernel_bitwise_regression(name, monkeypatch):
    if name == "n4-low-blowup-threshold":
        monkeypatch.setattr(emdenfowler, "BLOWUP_THRESHOLD", 0.5)
    traj = _pinned_run(name)
    last = tuple(float(getattr(traj, k)[-1]).hex()
                 for k in ("t", "y_u", "p_u", "y_v", "p_v"))
    assert (traj.accepted, traj.rejected, traj.termination, last) == KERNEL_PINS[name]


def test_shoot_bitwise_regression(benchmark4):
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root)
    assert a.hex() == "0x1.a20bd700c5ac2p-1"
    # the value when every trial ran at the final tolerance
    single_stage = float.fromhex("0x1.a20bd700c5ac0p-1")
    assert abs(a - single_stage) <= 8 * math.ulp(single_stage)


def test_shoot_loose_tolerance_is_single_stage(benchmark4):
    # at tol >= LOOSE_TOL there is no loose stage: the bits of a search whose
    # every trial runs at tol
    p, fam = benchmark4
    assert hs.shoot_synchronized(p, fam.root, tol=1e-7).hex() == "0x1.a20bd705a1b69p-1"


def test_shoot_with_custom_window(benchmark4):
    p, fam = benchmark4
    target = math.sqrt(2.0 / 3.0)
    a = hs.shoot_synchronized(p, fam.root, bracket=(0.7, 1.2))
    assert abs(a - target) / target <= 1e-6


def test_integration_rejects_bad_inputs(benchmark4):
    p, fam = benchmark4
    start = exact_ef_solution(fam, 0.0)
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="positive and finite"):
            integrate(start, (0.0, 1.0), p, tol=tol)
    with pytest.raises(ParameterError):
        integrate(EFState(math.nan, 0.0, 0.0, 0.0), (0.0, 1.0), p)


def test_trajectory_csv(benchmark4):
    p, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-1.0, 1.0, 5))
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,y_u,p_u,y_v,p_v"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert_allclose(parsed[:, 1], traj.y_u, rtol=0)  # 17 digits round-trip


# --- energy ----------------------------------------------------------------------


def test_scalar_energy_zero_on_homoclinic():
    for n, gamma in ((4, 0.0), (5, 1.125)):
        p = hs.ProblemParams.symmetric(n, gamma, 0.0, hs.critical_exponent(n) / 2.0)
        fam = hs.classify(p, 1.0)[0]
        t = np.linspace(-20.0, 20.0, 1601)
        y, q, _, _ = _closed_form_arrays(fam, t)
        h_vals = np.array([ef_energy(float(a), float(b), p) for a, b in zip(y, q)])
        assert np.max(np.abs(h_vals)) <= 1e-10
        assert np.max(h_vals) - np.min(h_vals) <= 1e-10


# --- shooting --------------------------------------------------------------------


def test_shoot_recovers_n4_amplitude(benchmark4):
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root)
    target = math.sqrt(2.0 / 3.0)
    assert abs(a - target) / target <= 1e-6


def test_shoot_recovers_scalar_amplitude():
    p = hs.ProblemParams.symmetric(5, 0.0, 0.0, hs.critical_exponent(5) / 2.0)
    fam = hs.classify(p, 1.0)[0]
    a = hs.shoot_synchronized(p, fam.root)
    target = p.amplitude * 2.0 ** (-p.delta)
    assert abs(a - target) / target <= 1e-6


def test_shoot_recovers_n3_amplitude(benchmark3):
    p, fams = benchmark3
    fam = [f for f in fams if abs(f.c_tilde - 1.0) < 1e-9][0]
    a = hs.shoot_synchronized(p, fam.root)
    target = 3.0 ** 0.25 / 2.0  # c1 A 2^-delta = 2^-1/2 * 3^1/4 * 2^-1/2
    assert abs(a - target) / target <= 1e-6


def test_shoot_rejects_non_root(benchmark4):
    p, _ = benchmark4
    fake = hs.CouplingRoot(c_tilde=1.7, f_residual=0.0, f_prime=1.0, is_degenerate=False)
    with pytest.raises(ParameterError):
        hs.shoot_synchronized(p, fake)


def test_shoot_bracket_failure(benchmark4):
    p, fam = benchmark4
    with pytest.raises(hs.BracketError):
        hs.shoot_synchronized(p, fam.root, bracket=(100.0, 200.0))


def test_shoot_bracket_wholly_below_homoclinic(benchmark4):
    p, fam = benchmark4  # a* = sqrt(2/3) ~ 0.8165, ray equilibrium 1/sqrt(3)
    for bracket in ((0.6, 0.8), (0.1, 0.5)):
        with pytest.raises(hs.BracketError):
            hs.shoot_synchronized(p, fam.root, bracket=bracket)


@pytest.mark.parametrize("bracket", [(0.6, 100.0), (0.01, 1e4)])
def test_shoot_wide_bracket(benchmark4, bracket):
    # the far end is steep: early secant steps from lo are tiny although a*
    # is far from lo, so a small step alone must not end the search
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root, bracket=bracket)
    target = math.sqrt(2.0 / 3.0)
    assert abs(a - target) / target <= 1e-6


def test_shoot_trial_budget(monkeypatch, benchmark4, benchmark3):
    amplitudes = []

    def counting(initial, *args, **kwargs):
        amplitudes.append(initial.y_u)
        return integrate(initial, *args, **kwargs)

    monkeypatch.setattr(emdenfowler, "integrate", counting)
    (p4, fam4), (p3, fams3) = benchmark4, benchmark3
    assert len(fams3) == 3
    for p, fam in [(p4, fam4)] + [(p3, f) for f in fams3]:
        amplitudes.clear()
        a = hs.shoot_synchronized(p, fam.root)
        target = fam.c1 * p.amplitude * 2.0 ** (-p.delta)
        assert abs(a - target) / target <= 1e-6
        assert 3 <= len(amplitudes) <= 15
        # numpy scalars here would make every step of every trial slower
        assert all(type(x) is float for x in amplitudes)
    # regula falsi alone creeps from a far, steep end: 72 trials here
    amplitudes.clear()
    hs.shoot_synchronized(p4, fam4.root, bracket=(0.01, 1e4))
    assert len(amplitudes) <= 24  # twice the default budget


def _shoot_case(name, benchmark4, benchmark3):
    if name == "n4":
        return benchmark4
    p3, fams3 = benchmark3
    return p3, fams3[0]


def _record_trials(monkeypatch):
    """Wrap integrate: list (a, tol, kind) of every trial, kind its event."""
    trials = []

    def recording(initial, *args, **kwargs):
        traj = integrate(initial, *args, **kwargs)
        if traj.termination == "extinction":
            kind = "extinction"
        elif traj.termination == "completed" and traj.p_u[-1] > 0.0:
            kind = "rebound"
        else:
            kind = traj.termination
        trials.append((initial.y_u, kwargs["tol"], kind))
        return traj

    monkeypatch.setattr(emdenfowler, "integrate", recording)
    return trials


@pytest.mark.parametrize("name", ["n4", "n3"])
def test_shoot_result_proven_at_final_tolerance(monkeypatch, benchmark4, benchmark3,
                                                name):
    # the result lies between a rebound and an extinction that both ran at
    # tol, REL_WIDTH * hi apart; loose trials only narrowed the bracket
    p, fam = _shoot_case(name, benchmark4, benchmark3)
    trials = _record_trials(monkeypatch)
    a = hs.shoot_synchronized(p, fam.root, tol=1e-9)
    assert any(tol == emdenfowler.LOOSE_TOL for _, tol, _ in trials)
    below = max(x for x, tol, kind in trials
                if tol == 1e-9 and kind == "rebound" and x <= a)
    above = min(x for x, tol, kind in trials
                if tol == 1e-9 and kind == "extinction" and x >= a)
    assert above - below <= emdenfowler.REL_WIDTH * above


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
@pytest.mark.parametrize("name", ["n4", "n3"])
def test_shoot_restarts_when_loose_trials_mislead(monkeypatch, benchmark4, benchmark3,
                                                  name, shift):
    # loose trials that start at a (1 + shift) put the stage-1 bracket beside
    # a*, so stage 2 never replaces one of its ends: the search starts again
    # at tol and gives the bits of the single-stage search
    p, fam = _shoot_case(name, benchmark4, benchmark3)
    monkeypatch.setattr(emdenfowler, "LOOSE_TOL", 1e-9)
    single_stage = hs.shoot_synchronized(p, fam.root, tol=1e-9)
    monkeypatch.undo()
    loose = []

    def misled(initial, *args, **kwargs):
        if kwargs["tol"] == emdenfowler.LOOSE_TOL:
            loose.append(initial.y_u)
            initial = EFState(initial.y_u * (1.0 + shift), 0.0,
                              initial.y_v * (1.0 + shift), 0.0)
        return integrate(initial, *args, **kwargs)

    monkeypatch.setattr(emdenfowler, "integrate", misled)
    a = hs.shoot_synchronized(p, fam.root, tol=1e-9)
    assert loose
    assert a.hex() == single_stage.hex()


# --- trajectory diagnostics -------------------------------------------------------


def test_proportionality_exact_and_mismatched(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-8.0, 8.0, 3001))
    assert hs.proportionality_defect(traj, fam.c_tilde) <= 1e-13
    assert hs.proportionality_defect(traj, fam.c_tilde * 1.1) >= 0.05


def test_proportionality_integrated(matrix_trajectories):
    for case in matrix_trajectories:
        defect = hs.proportionality_defect(case["merged"], case["family"].c_tilde)
        assert defect <= 1e-8


def test_proportionality_empty_rejected(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-1, 1, 11))
    empty = type(traj)(t=np.array([]), y_u=np.array([]), p_u=np.array([]),
                       y_v=np.array([]), p_v=np.array([]), accepted=0, rejected=0,
                       termination="completed")
    with pytest.raises(TrajectoryError):
        hs.proportionality_defect(empty, 1.0)


def test_simultaneous_max_off_grid(benchmark4):
    # sampling grid deliberately not centered on the maximum
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-5.0011, 4.9989, 4001))
    t_u, t_v = hs.simultaneous_max_check(traj)
    assert abs(t_u - t_v) <= 1e-6
    assert abs(t_u) <= 1e-6


def test_simultaneous_max_scaled_family():
    p = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 2.0)[0]
    t0 = math.log(2.0)
    traj = exact_trajectory(fam, np.linspace(t0 - 5.0011, t0 + 4.9989, 4001))
    t_u, t_v = hs.simultaneous_max_check(traj)
    assert abs(t_u - t0) <= 1e-6
    assert abs(t_v - t0) <= 1e-6


def test_simultaneous_max_scalar_case():
    p = hs.ProblemParams.symmetric(3, 0.125, 0.0, 3.0)
    fam = hs.classify(p, 1.0)[0]
    traj = exact_trajectory(fam, np.linspace(-6.0007, 5.9993, 4001))
    t_u, t_v = hs.simultaneous_max_check(traj)
    assert abs(t_u) <= 1e-6 and abs(t_v) <= 1e-6


def test_simultaneous_max_boundary_error(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(1.0, 5.0, 101))  # max at left edge
    with pytest.raises(TrajectoryError):
        hs.simultaneous_max_check(traj)


# --- residuals of the three encodings ---------------------------------------------


def test_radial_residual_benchmark(benchmark4):
    _, fam = benchmark4
    ru, rv = hs.radial_system_residual(fam, GRID)
    assert max(ru, rv) <= 1e-9


def test_radial_residual_scalar():
    p = hs.ProblemParams.symmetric(4, 0.0, 0.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    ru, rv = hs.radial_system_residual(fam, GRID)
    assert max(ru, rv) <= 1e-9


def test_radial_residual_detects_wrong_amplitude(benchmark4):
    from dataclasses import replace

    _, fam = benchmark4
    wrong = replace(fam, c1=1.1 * fam.c1, c2=1.1 * fam.c2)
    ru, rv = hs.radial_system_residual(wrong, GRID)
    assert max(ru, rv) >= 1e-2


def test_radial_residual_rejects_bad_grid(benchmark4):
    _, fam = benchmark4
    with pytest.raises(ParameterError):
        hs.radial_system_residual(fam, np.array([-1.0, 1.0]))


def test_weighted_residual_both_roots(benchmark4):
    p, fam = benchmark4
    for tau in (p.tau1, p.tau2):
        wu, wv = hs.weighted_system_residual(fam, tau, GRID)
        assert max(wu, wv) <= 1e-9


def test_weighted_residual_rejects_non_root_exponent():
    p = hs.ProblemParams.symmetric(5, 1.125, 1.0, hs.critical_exponent(5) / 2.0)
    fam = hs.classify(p, 1.0)[0]
    with pytest.raises(ParameterError):
        hs.weighted_system_residual(fam, p.delta, GRID)


def test_three_encodings_agree(matrix_families):
    # one solution, three formulations, all residuals at the same tolerance
    for p, mu0, fam in matrix_families:
        ru, rv = hs.radial_system_residual(fam, GRID)
        assert max(ru, rv) <= 1e-9
        for tau in (p.tau1, p.tau2):
            wu, wv = hs.weighted_system_residual(fam, tau, GRID)
            assert max(wu, wv) <= 1e-9
        t_grid = np.linspace(math.log(mu0) - 14.0, math.log(mu0) + 14.0, 801)
        eu, ev = hs.ef_system_residual(fam, t_grid)
        assert max(eu, ev) <= 1e-9


def test_quotient_limits_integrated(matrix_trajectories):
    for case in matrix_trajectories:
        merged = case["merged"]
        s = case["family"].c_tilde
        assert abs(merged.y_u[0] / merged.y_v[0] - s) <= 1e-6 * s
        assert abs(merged.y_u[-1] / merged.y_v[-1] - s) <= 1e-6 * s
