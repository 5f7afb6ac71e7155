import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import (EFState, ParameterError, TrajectoryError,
                      emdenfowler)
from hardysys.emdenfowler import (_closed_form_accel, _closed_form_arrays,
                                  _manifold_coefficients, _manifold_start,
                                  exact_trajectory, integrate)
from reference import (convergence_order, ef_energy, ef_rhs, exact_ef_solution,
                       simultaneous_max_check)

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
    assert hs.shoot_synchronized(p, fam.root).y_u[-1].hex() == "0x1.a20bd700c1530p-1"


@pytest.mark.parametrize("n", [3, 6, 14, 50])
def test_manifold_series_start(n):
    # at x = eps, Z(x) = x exp(G(x^m)) solves x^2 Z'' + x Z' = Z - Z^(2*-1) to
    # roundoff, and the start lies on the zero level set of the ray's first
    # integral far below 1e-3 tol (the linear start y' = kappa y misses it by
    # 3e-9 at n = 3 and 0.3 at n = 50, tol 1e-9)
    ts = hs.critical_exponent(n)
    m = ts - 2.0
    p = hs.ProblemParams(n, 0.0, 0.0, ts / 2.0)
    for tol in (1e-4, 1e-9, 1e-10):
        eps = (1e-3 * tol) ** (1.0 / ts)
        w = eps ** m
        logs = _manifold_coefficients(ts, w)
        g = math.fsum(a * w ** k for k, a in enumerate(logs))
        dg = math.fsum(m * k * a * w ** k for k, a in enumerate(logs))  # m theta G
        d2g = math.fsum((m * k) ** 2 * a * w ** k for k, a in enumerate(logs))
        z = eps * math.exp(g)
        d2z = z * ((1.0 + dg) ** 2 + d2g)  # x^2 Z'' + x Z'
        assert abs(d2z - z + z ** (ts - 1.0)) <= 1e-15 * max(d2z, z), (n, tol)
        assert abs(g + 2.0 / m * math.log1p(w / (2.0 * ts))) <= 1e-15, (n, tol)
        start, (x_u, x_v) = _manifold_start(p, 1.0, tol)
        # the coordinate is eps y_eq, y_eq = kappa^(2/m) on the scalar ray
        assert x_v == x_u and math.isclose(x_u, eps * p.kappa ** (2.0 / m), rel_tol=1e-14)
        energy = ef_energy(start.y_u, start.p_u, p)
        assert abs(energy) <= 1e-3 * tol * 0.5 * (p.kappa * start.y_u) ** 2, (n, tol)


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
        assert np.all(half.p_u[:-1] > 0.0)
        assert (half.p_u[-1], half.p_v[-1]) == (0.0, 0.0)
        assert half.y_u[-1] == np.max(half.y_u)
        assert abs(half.y_v[-1] * s / half.y_u[-1] - 1.0) <= 1e-12
        assert abs(half.y_u[-1] - fam.peak_amplitude) <= 1e-10 * fam.peak_amplitude


def test_shoot_tolerance_bound(benchmark4):
    # up to 1e-4 the amplitude errs by at most tol / 2; looser is refused.
    # Down to 1e-12 it shoots; tighter, doubles cannot meet tol near the
    # turn, and it is refused before any step
    p, fam = benchmark4
    a = hs.shoot_synchronized(p, fam.root, tol=1e-4).y_u[-1]
    assert abs(a - fam.peak_amplitude) <= 0.5e-4 * fam.peak_amplitude
    with pytest.raises(ParameterError, match="at most 1e-4"):
        hs.shoot_synchronized(p, fam.root, tol=1.01e-4)
    a = hs.shoot_synchronized(p, fam.root, tol=1e-12).y_u[-1]
    assert abs(a - fam.peak_amplitude) <= 1e-11 * fam.peak_amplitude
    for tol in (0.99e-12, 1e-13, 1e-300):
        with pytest.raises(ParameterError, match="at least 1e-12"):
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
    assert a.hex() == "0x1.a20bd70271292p-1"
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
    a = hs.shoot_synchronized(p, fam.root).y_u[-1]
    target = math.sqrt(2.0 / 3.0)
    assert abs(a - target) / target <= 1e-6


def test_shoot_recovers_scalar_amplitude():
    p = hs.ProblemParams.symmetric(5, 0.0, 0.0, hs.critical_exponent(5) / 2.0)
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
    fake = hs.CouplingRoot(c_tilde=1.7, f_residual=0.0, f_prime=1.0, is_degenerate=False)
    with pytest.raises(ParameterError):
        hs.shoot_synchronized(p, fake)


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
    # a*; a span cut to a quarter ends before the turn, and the shot raises
    p, fam = benchmark4

    def short(initial, span, *args, **kwargs):
        return integrate(initial, (span[0], 0.25 * span[1]), *args, **kwargs)

    monkeypatch.setattr(emdenfowler, "integrate", short)
    with pytest.raises(hs.IntegrationError, match=r"did not turn \(completed,"):
        hs.shoot_synchronized(p, fam.root)


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
    with pytest.raises(TrajectoryError):
        hs.proportionality_defect(empty, 1.0)


def test_simultaneous_max_off_grid(benchmark4):
    # sampling grid deliberately not centered on the maximum
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(-5.0011, 4.9989, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u - t_v) <= 1e-6
    assert abs(t_u) <= 1e-6


def test_simultaneous_max_scaled_family():
    p = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 2.0)[0]
    t0 = math.log(2.0)
    traj = exact_trajectory(fam, np.linspace(t0 - 5.0011, t0 + 4.9989, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u - t0) <= 1e-6
    assert abs(t_v - t0) <= 1e-6


def test_simultaneous_max_scalar_case():
    p = hs.ProblemParams.symmetric(3, 0.125, 0.0, 3.0)
    fam = hs.classify(p, 1.0)[0]
    traj = exact_trajectory(fam, np.linspace(-6.0007, 5.9993, 4001))
    t_u, t_v = simultaneous_max_check(traj)
    assert abs(t_u) <= 1e-6 and abs(t_v) <= 1e-6


def test_simultaneous_max_boundary_error(benchmark4):
    _, fam = benchmark4
    traj = exact_trajectory(fam, np.linspace(1.0, 5.0, 101))  # max at left edge
    with pytest.raises(TrajectoryError):
        simultaneous_max_check(traj)


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
        orbit = case["orbit"]
        s = case["family"].c_tilde
        assert abs(orbit.y_u[0] / orbit.y_v[0] - s) <= 1e-6 * s
        assert abs(orbit.y_u[-1] / orbit.y_v[-1] - s) <= 1e-6 * s
