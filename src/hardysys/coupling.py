"""The coupling function, its positive roots, and the synchronized constants.

Proportional solution pairs (u, v) = (c1 W, c2 W) exist exactly when the
ratio s = c1/c2 is a positive root of

    f(s) = s^(2*-2) + nu alpha s^(alpha-2) - 1 - nu beta s^alpha,

after which c2 = (1 + nu beta s^alpha)^(-1/(2*-2)) and c1 = s c2 solve the
algebraic two-by-two constants system.  Root isolation is a dense log-grid
sign scan followed by bisection and a safeguarded Newton polish; tangential
near-roots (extrema of f touching zero) are reported but flagged degenerate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .params import ProblemParams
from .profiles import ScalarProfile


@dataclass(frozen=True)
class RootSearchOptions:
    s_lo: float = 1e-8
    s_hi: float = 1e8
    grid_points: int = 4096
    bisect_width: float = 1e-13
    degeneracy_threshold: float = 1e-8
    tangency_tol: float = 1e-10


@dataclass(frozen=True)
class CouplingRoot:
    """One positive root of the coupling function."""

    c_tilde: float
    f_residual: float
    f_prime: float
    is_degenerate: bool


@dataclass(frozen=True)
class SynchronizedFamily:
    """One synchronized solution family (c1 * profile, c2 * profile)."""

    root: CouplingRoot
    c1: float
    c2: float
    profile: ScalarProfile

    @property
    def c_tilde(self) -> float:
        return self.root.c_tilde

    def u(self, r):
        return self.c1 * self.profile.value(r)

    def v(self, r):
        return self.c2 * self.profile.value(r)


def _check_positive(s) -> None:
    if np.any(np.asarray(s) <= 0):
        raise DomainError("the coupling function is defined for positive arguments only")


def coupling_f(s, p: ProblemParams):
    """f(s) = s^(2*-2) + nu alpha s^(alpha-2) - 1 - nu beta s^alpha."""
    _check_positive(s)
    s = np.asarray(s, dtype=float)
    ts = p.two_star
    out = (np.power(s, ts - 2.0) + p.nu * p.alpha * np.power(s, p.alpha - 2.0)
           - 1.0 - p.nu * p.beta * np.power(s, p.alpha))
    return float(out) if out.ndim == 0 else out


def coupling_f_prime(s, p: ProblemParams):
    """Analytic derivative of the coupling function."""
    _check_positive(s)
    s = np.asarray(s, dtype=float)
    ts = p.two_star
    out = ((ts - 2.0) * np.power(s, ts - 3.0)
           + p.nu * p.alpha * (p.alpha - 2.0) * np.power(s, p.alpha - 3.0)
           - p.nu * p.beta * p.alpha * np.power(s, p.alpha - 1.0))
    return float(out) if out.ndim == 0 else out


def _f_scale(s: float, p: ProblemParams) -> float:
    """Sum of term magnitudes of f near s, floored at 1 (local residual scale)."""
    ts = p.two_star
    return max(1.0, s ** (ts - 2.0) + p.nu * p.alpha * s ** (p.alpha - 2.0)
               + 1.0 + p.nu * p.beta * s ** p.alpha)


def _fprime_scale(s: float, p: ProblemParams) -> float:
    ts = p.two_star
    return max(1.0, (ts - 2.0) * s ** (ts - 3.0)
               + p.nu * p.alpha * abs(p.alpha - 2.0) * s ** (p.alpha - 3.0)
               + p.nu * p.beta * p.alpha * s ** (p.alpha - 1.0))


def endpoint_signs(p: ProblemParams) -> tuple[int, int]:
    """Signs of f near 0+ and near infinity from the dominant exponents.

    Near 0 the s^(alpha-2) term decides for alpha < 2; for alpha = 2 the
    constant part nu*alpha - 1 decides (falling back to the next-smallest
    exponent when it vanishes); otherwise the -1 survives.  Near infinity
    the larger of the exponents 2*-2 and alpha decides; they tie exactly
    when beta = 2, where the combined coefficient 1 - nu*beta decides.
    A vanishing dominant coefficient at either end means f degenerates
    (e.g. alpha = beta = 2 at nu = 1/2, where f is identically zero) and
    sign 0 is returned for that end.
    """
    ts = p.two_star
    if p.nu > 0 and p.alpha < 2.0:
        near_zero = 1
    elif p.nu > 0 and p.alpha == 2.0:
        near_zero = int(np.sign(p.nu * p.alpha - 1.0))
        if near_zero == 0:
            # constants cancel; remaining terms s^(2*-2) - nu*beta*s^2
            if ts - 2.0 < 2.0:
                near_zero = 1
            elif ts - 2.0 > 2.0:
                near_zero = -1
            else:
                near_zero = int(np.sign(1.0 - p.nu * p.beta))
    else:
        near_zero = -1
    if p.nu == 0:
        return near_zero, 1
    if p.alpha > ts - 2.0:
        at_inf = -1
    elif p.alpha < ts - 2.0:
        at_inf = 1
    else:
        at_inf = int(np.sign(1.0 - p.nu * p.beta))
    return near_zero, at_inf


def _bisect(fun, a: float, b: float, fa: float, fb: float, width: float) -> tuple[float, float]:
    while b - a > width * max(1.0, abs(b)):
        m = 0.5 * (a + b)
        fm = fun(m)
        if fm == 0.0:
            return m, m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return a, b


def find_positive_roots(p: ProblemParams, opts: RootSearchOptions | None = None) -> list[CouplingRoot]:
    """All positive roots of f in the search window, sorted ascending.

    Simple roots come from sign changes (bisection + Newton polish);
    tangential candidates come from extrema of f whose value is at the
    tangency tolerance.  Degenerate roots carry ``is_degenerate=True``.
    """
    opts = opts or RootSearchOptions()
    grid = np.geomspace(opts.s_lo, opts.s_hi, opts.grid_points)
    fv = coupling_f(grid, p)
    ts = p.two_star
    term_scale = (np.power(grid, ts - 2.0) + p.nu * p.alpha * np.power(grid, p.alpha - 2.0)
                  + 1.0 + p.nu * p.beta * np.power(grid, p.alpha))
    if np.max(np.abs(fv) / term_scale) <= 1e-14:
        # e.g. alpha = beta = 2 at nu = 1/2: f collapses to the zero function
        # and grid values are pure roundoff
        warnings.warn("the coupling function vanishes identically on the search "
                      "grid; no isolated roots exist", RuntimeWarning, stacklevel=2)
        return []

    def f(s):
        return coupling_f(s, p)

    def fp(s):
        return coupling_f_prime(s, p)

    roots: list[CouplingRoot] = []

    def polish_and_append(s: float, degenerate_hint: bool) -> None:
        for _ in range(12):
            fs, fps = f(s), fp(s)
            if fps == 0.0:
                break
            step = fs / fps
            if not np.isfinite(step) or abs(step) > 0.5 * s:
                break
            s -= step
            if abs(step) <= 1e-16 * s:
                break
        fs, fps = f(s), fp(s)
        degenerate = degenerate_hint or abs(fps) <= opts.degeneracy_threshold * _fprime_scale(s, p)
        roots.append(CouplingRoot(c_tilde=s, f_residual=abs(fs), f_prime=fps,
                                  is_degenerate=degenerate))

    # sign-change roots
    exact_hits = np.flatnonzero(fv == 0.0)
    for i in exact_hits:
        polish_and_append(float(grid[i]), False)
    changes = np.flatnonzero(fv[:-1] * fv[1:] < 0.0)
    for i in changes:
        a, b = _bisect(f, float(grid[i]), float(grid[i + 1]),
                       float(fv[i]), float(fv[i + 1]), opts.bisect_width)
        polish_and_append(0.5 * (a + b), False)

    # tangential candidates: extrema of f with |f| at the tangency tolerance
    fpv = coupling_f_prime(grid, p)
    extrema = np.flatnonzero(fpv[:-1] * fpv[1:] < 0.0)
    for i in extrema:
        a, b = _bisect(fp, float(grid[i]), float(grid[i + 1]),
                       float(fpv[i]), float(fpv[i + 1]), opts.bisect_width)
        s_ext = 0.5 * (a + b)
        if abs(f(s_ext)) > opts.tangency_tol * _f_scale(s_ext, p):
            continue
        if any(abs(s_ext - r.c_tilde) <= 1e-9 * max(1.0, s_ext) for r in roots):
            continue
        roots.append(CouplingRoot(c_tilde=s_ext, f_residual=abs(f(s_ext)),
                                  f_prime=fp(s_ext), is_degenerate=True))

    if not roots:
        lo_sign, hi_sign = endpoint_signs(p)
        warnings.warn(
            "no sign change of the coupling function in "
            f"[{opts.s_lo:g}, {opts.s_hi:g}]; endpoint sign classification is "
            f"({lo_sign:+d} near 0, {hi_sign:+d} at infinity)",
            RuntimeWarning, stacklevel=2,
        )

    roots.sort(key=lambda root: root.c_tilde)
    # collapse duplicates produced by adjacent brackets around one root
    merged: list[CouplingRoot] = []
    for root in roots:
        if merged and abs(root.c_tilde - merged[-1].c_tilde) <= 1e-12 * max(1.0, root.c_tilde):
            continue
        merged.append(root)
    return merged


def verify_constants_system(c1: float, c2: float, p: ProblemParams) -> tuple[float, float]:
    """Residuals of the two algebraic equations for the constants (c1, c2)."""
    if c1 <= 0 or c2 <= 0:
        raise DomainError(f"constants must be positive, got ({c1}, {c2})")
    ts = p.two_star
    res1 = abs(c1 ** (ts - 2.0) + p.nu * p.alpha * c1 ** (p.alpha - 2.0) * c2 ** p.beta - 1.0)
    res2 = abs(c2 ** (ts - 2.0) + p.nu * p.beta * c1 ** p.alpha * c2 ** (p.beta - 2.0) - 1.0)
    return res1, res2


def constants_from_root(root: CouplingRoot, p: ProblemParams) -> tuple[float, float]:
    """Map a root s of f to the constants (c1, c2) = (s c2, (1+nu beta s^alpha)^(-1/(2*-2))).

    The second equation of the constants system holds by construction; the
    first follows from f(s) = 0 and is asserted, not assumed.
    """
    s = root.c_tilde
    residual = abs(coupling_f(s, p))
    if residual > 1e-10 * _f_scale(s, p):
        raise ParameterError(
            f"root residual too large: |f({s:.17g})| = {residual:.3e}"
        )
    ts = p.two_star
    c2 = (1.0 + p.nu * p.beta * s ** p.alpha) ** (-1.0 / (ts - 2.0))
    c1 = s * c2
    res1, res2 = verify_constants_system(c1, c2, p)
    if max(res1, res2) > 1e-12:
        raise ConvergenceError(
            f"constants system residuals ({res1:.3e}, {res2:.3e}) exceed 1e-12"
        )
    return c1, c2


def classify(p: ProblemParams, mu0: float = 1.0,
             opts: RootSearchOptions | None = None, *,
             roots: list[CouplingRoot] | None = None) -> list[SynchronizedFamily]:
    """One synchronized family per simple positive root of f, shared scale mu0.

    Degenerate (tangential) roots are excluded with a warning: the constants
    map is still defined there, but the sign-change structure the
    classification rests on is not.  ``roots``, when given, is the result of
    ``find_positive_roots(p, opts)`` and spares searching again.
    """
    p.gamma  # validation: raises ParameterError for gamma1 != gamma2
    if mu0 <= 0:
        raise ParameterError(f"scale must be positive, got mu0={mu0}")
    if roots is None:
        roots = find_positive_roots(p, opts)
    degenerate = [r for r in roots if r.is_degenerate]
    if degenerate:
        values = ", ".join(f"{r.c_tilde:.12g}" for r in degenerate)
        warnings.warn(f"excluding degenerate (tangential) root(s) at s = {values}",
                      RuntimeWarning, stacklevel=2)
    profile = ScalarProfile(p, mu0)
    families = []
    for root in roots:
        if root.is_degenerate:
            continue
        c1, c2 = constants_from_root(root, p)
        families.append(SynchronizedFamily(root=root, c1=c1, c2=c2, profile=profile))
    return families
