import importlib
import math
import os
import random
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hardysys as hs
from hardysys import ParameterError
from reference import convergence_order, endpoint_signs, fd_derivative

# positive roots of s^4 - 3 s^3 + 3 s - 1 = (s-1)(s+1)(s^2-3s+1)
N3_ROOTS = ((3.0 - math.sqrt(5.0)) / 2.0, 1.0, (3.0 + math.sqrt(5.0)) / 2.0)


def p3():
    return hs.ProblemParams(3, 0.0, 1.0, 3.0)


def p4():
    return hs.ProblemParams(4, 0.0, 1.0, 2.0)


def test_coupling_f_values():
    assert hs.coupling_f(1.0, p4()) == 0.0       # f(s) = 1 - s^2
    assert hs.coupling_f(1.0, p3()) == 0.0       # 1 + 3 - 1 - 3
    assert_allclose(hs.coupling_f(2.0, p4()), -3.0, rtol=1e-15)


def test_coupling_f_decoupled_monotone():
    p = hs.ProblemParams(5, 0.0, 0.0, hs.critical_exponent(5) / 2.0)
    assert hs.coupling_f(1.0, p) == 0.0
    s = np.geomspace(1e-3, 1e3, 200)
    assert np.all(np.diff([hs.coupling_f(x, p) for x in s]) > 0)


def test_coupling_f_rejects_nonpositive():
    with pytest.raises(ParameterError):
        hs.coupling_f(0.0, p4())
    with pytest.raises(ParameterError):
        hs.coupling_f_prime(-1.0, p4())


@pytest.mark.parametrize("fn", [hs.coupling_f, hs.coupling_f_prime])
@pytest.mark.parametrize("s", [0, -1.0, np.array(0.0), np.float64(-2.0), np.array(-3.0)])
def test_coupling_f_rejects_nonpositive_on_both_paths(fn, s):
    # Python numbers, a numpy scalar and 0-d arrays, all taken by float()
    with pytest.raises(ParameterError):
        fn(s, p3())


@pytest.mark.parametrize("fn", [hs.coupling_f, hs.coupling_f_prime])
def test_coupling_f_return_types(fn):
    # a number or a 0-d array gives a float
    for s in (2.0, 2, np.float64(2.0), np.array(2.0)):
        assert type(fn(s, p3())) is float


@pytest.mark.parametrize("fn", [hs.coupling_f, hs.coupling_f_prime])
def test_coupling_f_nan_in_nan_out(fn):
    assert math.isnan(fn(math.nan, p3()))


def test_coupling_f_prime_values():
    assert hs.coupling_f_prime(1.0, p4()) == -2.0  # d/ds (1 - s^2) at 1
    pdec = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    assert hs.coupling_f_prime(1.0, pdec) == 2.0   # d/ds (s^2 - 1) at 1


@pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
def test_coupling_f_prime_matches_fd(s0):
    p = p3()
    exact = hs.coupling_f_prime(s0, p)
    errs = [(h, abs(fd_derivative(lambda s: hs.coupling_f(s, p), s0, h) - exact))
            for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    assert convergence_order(errs) >= 1.9


def test_find_roots_n4_single():
    roots = hs.find_positive_roots(p4())
    assert len(roots) == 1
    assert abs(roots[0].c_tilde - 1.0) <= 1e-12
    assert not roots[0].is_degenerate


def test_find_roots_n3_three():
    roots = hs.find_positive_roots(p3())
    assert len(roots) == 3
    for root, expect in zip(roots, N3_ROOTS):
        assert abs(root.c_tilde - expect) <= 1e-12
        assert not root.is_degenerate
    values = [r.c_tilde for r in roots]
    assert values == sorted(values)


def test_find_roots_n3_against_companion_matrix():
    # independent oracle: eigenvalue roots of the quartic s^4 - 3s^3 + 3s - 1
    poly = np.roots([1.0, -3.0, 0.0, 3.0, -1.0])
    expected = sorted(float(z.real) for z in poly if abs(z.imag) < 1e-12 and z.real > 0)
    found = [r.c_tilde for r in hs.find_positive_roots(p3())]
    assert_allclose(found, expected, rtol=0, atol=1e-10)


def test_find_roots_decoupled():
    p = hs.ProblemParams(5, 0.0, 0.0, hs.critical_exponent(5) / 2.0)
    roots = hs.find_positive_roots(p)
    assert len(roots) == 1
    assert abs(roots[0].c_tilde - 1.0) <= 1e-14


def test_root_residuals_within_scale():
    for p in (p3(), p4()):
        for root in hs.find_positive_roots(p):
            scale = max(1.0, abs(hs.coupling_f_prime(root.c_tilde, p)))
            assert abs(hs.coupling_f(root.c_tilde, p)) <= 1e-13 * scale


def test_polish_stops_where_f_prime_vanishes():
    # f'(1) is exactly 0.0 at n = 3, nu = 2/3, alpha = 3: no Newton step
    p = hs.ProblemParams(3, 0.0, 2.0 / 3.0, 3.0)
    assert hs.coupling_f_prime(1.0, p) == 0.0
    assert hs.coupling._polish(1.0, p) == 1.0


def test_polish_refuses_a_step_longer_than_half_of_s():
    # at n = 4, nu = 0, f(s) = s^2 - 1: from s = 0.1 the Newton step is
    # -4.95, longer than s/2 = 0.05, so s is returned as it came
    p = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    assert hs.coupling_f(0.1, p) / hs.coupling_f_prime(0.1, p) < -0.5 * 0.1
    assert hs.coupling._polish(0.1, p) == 0.1


def test_dense_grid_sign_change_oracle():
    # the returned simple-root count must match a million-point sign scan
    grid = np.geomspace(1e-6, 1e6, 1_000_000)
    for n in (3, 4, 5):
        for nu in (0.0, 1.0):
            p = hs.ProblemParams(n, 0.0, nu, hs.critical_exponent(n) / 2.0)
            fv = np.array([hs.coupling_f(s, p) for s in grid.tolist()])
            sign_changes = int(np.count_nonzero(fv[:-1] * fv[1:] < 0))
            simple = [r for r in hs.find_positive_roots(p) if not r.is_degenerate]
            assert sign_changes == len(simple), (n, nu)


def test_endpoint_sign_classification_matches_evaluation():
    cases = [
        hs.ProblemParams(3, 0.0, 1.0, 3.0),    # alpha > 2
        hs.ProblemParams(4, 0.0, 1.0, 2.0),    # alpha = 2
        hs.ProblemParams(5, 0.0, 1.0, 5.0 / 3.0),  # alpha < 2
        hs.ProblemParams(4, 0.0, 0.25, 2.0),   # alpha = 2, nu*alpha < 1
        hs.ProblemParams(5, 0.0, 0.0, 5.0 / 3.0),  # decoupled
        hs.ProblemParams(3, 0.0, 1.0, 1.5),    # alpha < 2*-2: f -> +inf
        hs.ProblemParams(3, 0.0, 0.5, 2.0),    # nu*alpha = 1: s^4 - 2 s^2
        hs.ProblemParams(5, 0.0, 0.5, 2.0),    # nu*alpha = 1: s^(4/3) - (2/3) s^2
    ]
    for p in cases:
        lo_sign, hi_sign = endpoint_signs(p)
        assert np.sign(hs.coupling_f(1e-8, p)) == lo_sign, p
        assert np.sign(hs.coupling_f(1e8, p)) == hi_sign, p


def test_constants_from_root_examples():
    fam4 = hs.classify(p4(), 1.0)
    assert len(fam4) == 1
    assert_allclose((fam4[0].c1, fam4[0].c2), (3 ** -0.5, 3 ** -0.5), rtol=1e-12)

    fams3 = hs.classify(p3(), 1.0)
    mid = [f for f in fams3 if abs(f.c_tilde - 1.0) < 1e-9][0]
    assert_allclose((mid.c1, mid.c2), (2 ** -0.5, 2 ** -0.5), rtol=1e-12)

    pdec = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    famd = hs.classify(pdec, 1.0)[0]
    assert (famd.c1, famd.c2) == (1.0, 1.0)


def test_constants_root_residual_guard():
    bad = hs.CouplingRoot(c_tilde=1.5, f_prime=1.0, is_degenerate=False)
    with pytest.raises(ParameterError):
        hs.constants_from_root(bad, p4())


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan), (0.0, 2e-12)])
def test_constants_system_guard_raises(monkeypatch, residuals):
    # the guard is the only test of the constants system: a NaN residual, in
    # either equation, raises as a large one does
    monkeypatch.setattr(hs.coupling, "verify_constants_system", lambda c1, c2, p: residuals)
    root = hs.find_positive_roots(p4())[0]
    with pytest.raises(ParameterError, match="constants system residuals"):
        hs.constants_from_root(root, p4())


def test_verify_constants_system_values():
    assert_allclose(hs.verify_constants_system(3 ** -0.5, 3 ** -0.5, p4()),
                    (0.0, 0.0), atol=1e-15)
    pdec = hs.ProblemParams(4, 0.0, 0.0, 2.0)
    assert hs.verify_constants_system(1.0, 1.0, pdec) == (0.0, 0.0)
    assert_allclose(hs.verify_constants_system(1.0, 1.0, p4()), (2.0, 2.0), rtol=1e-15)
    with pytest.raises(ParameterError):
        hs.verify_constants_system(-1.0, 1.0, p4())


def test_verify_constants_system_beyond_double_range():
    # nu beta c1^alpha c2^(beta-2) at c1 = 1e300, alpha = 1.5, and
    # nu alpha c1^(alpha-2) c2^beta at n = 150, c1 = 1e-308, about 1e313, are
    # terms beyond a double: both are refused, not raised as OverflowError or
    # returned as an infinite residual
    with pytest.raises(ParameterError, match="beyond the range of a double"):
        hs.verify_constants_system(1e300, 1.0, hs.ProblemParams(4, 0.0, 1.0, 1.5))
    p = hs.ProblemParams(150, 3969.915893387126, 185766274.20473182, 1.010056960915477)
    with pytest.raises(ParameterError, match="beyond the range of a double"):
        hs.verify_constants_system(1e-308, 1.0, p)
    # there, nu alpha c1^(alpha-2) c2^beta is about 0.2, though nu alpha
    # c1^(alpha-2) is beyond a double and c2^beta subnormal
    residuals = hs.verify_constants_system(6.78728e-307, 6.81047e-307, p)
    assert all(map(math.isfinite, residuals))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_at_large_n_satisfies_the_constants_system():
    # c1 = 1.24e-306 is a double, but c1^alpha, formed on its own, is a
    # subnormal with about four digits lost: the residual read 1.8e-12 and
    # classify refused the point.  Over a large-n box, classify either
    # returns families that satisfy the constants system to 1e-12 or refuses
    # the point with ParameterError
    rng = np.random.default_rng(11)
    points = [(150, 0.0, 182797434.30013418, 1.019603784221409)]
    for _ in range(300):
        n = int(rng.choice((50, 100, 150, 200, 250)))
        ts = hs.critical_exponent(n)
        points.append((n, float(rng.choice((0.0, 0.5, 0.99))) * hs.hardy_constant(n),
                       10.0 ** rng.uniform(-3.0, 14.0), rng.uniform(1.0001, ts - 1.0001)))
    families = 0
    for point in points:
        p = hs.ProblemParams(*point)
        try:
            fams = hs.classify(p)
        except ParameterError:
            continue
        families += len(fams)
        for fam in fams:
            assert max(hs.verify_constants_system(fam.c1, fam.c2, p)) <= 1e-12
    assert families >= 100


def test_constants_beyond_double_range_are_refused():
    # c2 = (1 + nu beta s^alpha)^(-1/(2*-2)) underflows at n = 150, where
    # -1/(2*-2) = -37: below the least normal double, the constants are refused
    p = hs.ProblemParams(150, 0.0, 733570424133.4932, 1.0012491346457573)
    with pytest.raises(ParameterError, match=r"s = \S+ are beyond the range of a double"):
        hs.classify(p)
    # a coupling term far below the least normal double changes no residual
    p = hs.ProblemParams(4, 0.0, 1e-310, 2.0)
    assert hs.verify_constants_system(1.0, 1.0, p) == (0.0, 0.0)
    assert [(f.c1, f.c2) for f in hs.classify(p)] == [(1.0, 1.0)]


def test_classify_counts_and_invariants():
    fams3 = hs.classify(p3(), 1.0)
    assert len(fams3) == 3
    fams4 = hs.classify(p4(), 1.0)
    assert len(fams4) == 1
    for fam in fams3 + fams4:
        p = fam.profile.params
        assert abs(fam.c1 / fam.c2 - fam.c_tilde) <= 1e-13 * fam.c_tilde
        res = hs.verify_constants_system(fam.c1, fam.c2, p)
        assert max(res) <= 1e-12
        assert fam.c1 > 0 and fam.c2 > 0


@pytest.mark.parametrize("mu0", [0.0, -1.0, math.nan, math.inf])
def test_classify_requires_positive_finite_scale(mu0):
    with pytest.raises(ParameterError, match="scale"):
        hs.classify(p3(), mu0)


def test_classify_constants_independent_of_scale():
    # bitwise equality: the root search never sees mu0
    reference = [(f.c_tilde, f.c1, f.c2) for f in hs.classify(p3(), 1.0)]
    for mu0 in (0.5, 2.0):
        other = [(f.c_tilde, f.c1, f.c2) for f in hs.classify(p3(), mu0)]
        assert other == reference


def test_identically_zero_coupling_function_warns():
    # alpha = beta = 2 at nu = 1/2: f = (1-2 nu)(s^2-1) collapses to zero
    p = hs.ProblemParams(4, 0.0, 0.5, 2.0)
    with pytest.warns(RuntimeWarning, match="identically"):
        roots = hs.find_positive_roots(p)
    assert roots == []


FOLD_CASES = [(3, 2.6), (3, 3.4), (5, 1.533), (6, 1.1), (6, 1.25), (6, 1.4), (4, 1.3),
              (8, 1.2), (14, 1.05)]


def _folds_in_nu(n, alpha):
    """(s0, nu*) of each double root of f = A + nu B, A = s^(2*-2) - 1: the
    zeros of A'B - AB' on a log grid of s in [1e-8, 1e8], bisected, at nu > 0."""
    ts = hs.critical_exponent(n)
    beta = ts - alpha

    def parts(s):
        a, da = s ** (ts - 2.0) - 1.0, (ts - 2.0) * s ** (ts - 3.0)
        b = alpha * s ** (alpha - 2.0) - beta * s ** alpha
        db = alpha * (alpha - 2.0) * s ** (alpha - 3.0) - beta * alpha * s ** (alpha - 1.0)
        return a, b, da * b - a * db

    folds = []
    grid = [10.0 ** (k / 50.0) for k in range(-400, 401)]
    for lo, hi in zip(grid, grid[1:]):
        if parts(lo)[2] * parts(hi)[2] < 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if parts(mid)[2] * parts(lo)[2] > 0 else (lo, mid)
            a, b, _ = parts(0.5 * (lo + hi))
            if -a / b > 0:
                folds.append((0.5 * (lo + hi), -a / b))
    return folds


def test_double_root_reported_once_as_degenerate():
    # at n = 3, alpha = 2.5 two roots merge at the one fold in nu
    [(s0, nu)] = _folds_in_nu(3, 2.5)
    roots = hs.find_positive_roots(hs.ProblemParams(3, 0.0, nu, 2.5))
    near = [r for r in roots if abs(r.c_tilde / s0 - 1.0) <= 1e-6]
    assert len(near) == 1 and near[0].is_degenerate
    assert [r.is_degenerate for r in roots] == [True, False]


def test_triple_root_flagged_degenerate_and_excluded():
    # f = s^4 - 2 s^3 + 2 s - 1 = (s-1)^3 (s+1) at nu = 2/3
    p = hs.ProblemParams(3, 0.0, 2.0 / 3.0, 3.0)
    roots = hs.find_positive_roots(p)
    assert len(roots) == 1
    assert roots[0].is_degenerate
    assert abs(roots[0].c_tilde - 1.0) <= 1e-5  # cube-root conditioning
    with pytest.warns(RuntimeWarning):
        fams = hs.classify(p, 1.0)
    assert fams == []


def test_tangency_flags_every_root_near_a_fold():
    # approaching each fold in nu from both sides, nu*(1 -+ 10^-k), every root
    # not flagged tangential keeps G'(x) = s f'(s) above 1e-8 of the sum of
    # its term magnitudes, sum |c a| s^a (5.6e-6 at least): the tangency test
    # on G at the critical point catches a merging pair first, so no second
    # test on f' is needed
    points = flagged = 0
    for n, alpha in FOLD_CASES:
        for _, nu_fold in _folds_in_nu(n, alpha):
            for k in range(1, 17):
                for sign in (-1.0, 1.0):
                    p = hs.ProblemParams(n, 0.0, nu_fold * (1.0 + sign * 10.0 ** -k), alpha)
                    points += 1
                    ts = p.two_star
                    for root in hs.find_positive_roots(p):
                        flagged += root.is_degenerate
                        s = root.c_tilde
                        slope_scale = ((ts - 2.0) * s ** (ts - 2.0)
                                       + p.nu * p.alpha * abs(p.alpha - 2.0) * s ** (p.alpha - 2.0)
                                       + p.nu * p.beta * p.alpha * s ** p.alpha)
                        assert root.is_degenerate or abs(s * root.f_prime) > 1e-8 * slope_scale, \
                            (n, alpha, p.nu, s)
    assert points == 256  # eight folds: none at (4, 1.3)
    assert flagged > 0


def test_classify_keeps_every_root_at_tiny_coupling_and_large_n():
    # n in {8, 14} with nu in [1e-9, 1.3e-8] puts a simple root at s between
    # 6e11 and 1.3e25, where every term of f' is tiny: none is dropped
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice((8, 14))
        ts = hs.critical_exponent(n)
        p = hs.ProblemParams(n, 0.0, rng.uniform(1e-9, 1.3e-8),
                             rng.uniform(1.0001, ts - 1.0001))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fams = hs.classify(p)
        assert caught == [], p
        assert len(fams) == len(hs.find_positive_roots(p)), p


def test_tiny_coupling_keeps_both_roots():
    # the small root sits near (nu alpha)^(1/(2-alpha)), far below 1e-8
    p = hs.ProblemParams(3, 0.0, 1e-8, 1.05)
    small, large = hs.find_positive_roots(p)
    assert abs(small.c_tilde / 3.99256e-9 - 1.0) <= 1e-5
    assert abs(large.c_tilde - 1.00000001) <= 1e-9
    for root in (small, large):
        assert not root.is_degenerate
        scale = hs.coupling._f_scale(root.c_tilde, p)
        assert abs(hs.coupling_f(root.c_tilde, p)) <= 1e-13 * scale
    assert [f.c_tilde for f in hs.classify(p, 1.0)] == [small.c_tilde, large.c_tilde]


def test_root_beyond_double_range_raises():
    # alpha near 2 pushes a root out to log s ~ 1269, where e^x overflows
    p = hs.ProblemParams(4, 0.0, 1.6e-8, 2.0136)
    with pytest.raises(ParameterError, match=r"log s = 1269\.\d"):
        hs.find_positive_roots(p)
    with pytest.raises(ParameterError, match="log s"):
        hs.classify(p, 1.0)


@pytest.mark.parametrize("args,expected", [
    ((3, 0.0, 0.8726445630856866, 3.537011260986959),
     [("0x1.0c4d9305c8f7dp-1", "0x1.3a019a7a770fap+1"),
      ("0x1.c811d53acde3ap+0", "-0x1.e838e2a89a790p+1"),
      ("0x1.1de5c4496ee35p+2", "0x1.c4621a3696700p+4")]),
    ((4, 0.0, 0.2015080314116346, 2.0058742293118517),
     [("0x1.fefc5f22ff84cp-1", "0x1.31a9dddf007e4p+0"),
      ("0x1.e31075142c345p+223", "-0x1.6b37790012000p+216")]),
])
def test_root_bits_are_the_same_on_every_python(args, expected):
    # the search adds its terms left to right; sum() of floats, compensated
    # from Python 3.12 on, moved each middle and last root here by 3 to 179 ulps
    roots = hs.find_positive_roots(hs.ProblemParams(*args))
    assert [(r.c_tilde.hex(), r.f_prime.hex()) for r in roots] == expected
    assert not any(r.is_degenerate for r in roots)


# thresholds of the benchmark's root-box draw: nearer to a tangential root
# than this, a point's root count is ill-posed
MIN_ROOT_SLOPE = 1e-3
MIN_CRITICAL_VALUE = 1e-6
LOG_MAX = math.log(sys.float_info.max)


def _log_largest_term(n, nu, alpha, s):
    """log of the largest of s, 1/s and every power and term of f and f' at s."""
    if not 0.0 < s < math.inf:
        return math.inf
    ts = hs.critical_exponent(n)
    beta = ts - alpha
    x = math.log(s)
    terms = ((1.0, 1.0), (1.0, -1.0), (1.0, ts - 2.0), (nu * alpha, alpha - 2.0),
             (nu * beta, alpha), (ts - 2.0, ts - 3.0),
             (nu * alpha * abs(alpha - 2.0), alpha - 3.0), (nu * beta * alpha, alpha - 1.0))
    return max(e * x + math.log(max(c, 1.0)) for c, e in terms)


def test_root_counts_match_the_exponential_sum_oracle(monkeypatch):
    # the benchmark's independent root counter, imported read-only
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    oracles = importlib.import_module("oracles")
    rng = np.random.default_rng(6)
    points = []
    for centre in (None, 2.0, -2.0):
        for _ in range(200):
            n = int(rng.choice((3, 4, 5)))
            ts = hs.critical_exponent(n)
            nu = 10.0 ** rng.uniform(-8.0, 3.0)
            if centre is None:
                alpha = rng.uniform(1.05, ts - 1.05)
            else:  # within 0.1 of 2 or of 2*-2, where roots move out fastest
                alpha = (centre if centre > 0 else ts + centre) + rng.uniform(-0.1, 0.1)
            points.append((n, float(nu), float(alpha)))
    with np.errstate(over="ignore"):
        oracle = oracles.CouplingOracle(points)
    checked = raised = 0
    for i, (n, nu, alpha) in enumerate(points):
        if oracle.min_slope[i] < MIN_ROOT_SLOPE or oracle.min_crit[i] < MIN_CRITICAL_VALUE:
            continue
        expected = oracle.roots[i]
        largest = max(_log_largest_term(n, nu, alpha, float(s)) for s in expected)
        if LOG_MAX - 3.0 < largest <= LOG_MAX:
            continue  # at the edge of the range of a double
        p = hs.ProblemParams(n, 0.0, nu, alpha)
        if largest > LOG_MAX:
            with pytest.raises(ParameterError, match=r"log s = \S+, beyond the range"):
                hs.find_positive_roots(p)
            raised += 1
            continue
        roots = hs.find_positive_roots(p)
        found = [r.c_tilde for r in roots]
        assert len(found) == len(expected), (n, nu, alpha)
        assert_allclose(found, expected, rtol=1e-9)
        assert len(found) <= oracle.bound[i]
        lo_sign, hi_sign = endpoint_signs(p)
        assert len(found) % 2 == (lo_sign != hi_sign), (n, nu, alpha)
        assert not any(r.is_degenerate for r in roots)
        checked += 1
    assert checked >= 500 and raised >= 40, (checked, raised)
