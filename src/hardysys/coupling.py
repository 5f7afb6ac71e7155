"""The coupling function, its positive roots, and the synchronized constants.

Proportional solution pairs (u, v) = (c1 W, c2 W) exist exactly when the
ratio s = c1/c2 is a positive root of

    f(s) = s^(2*-2) + nu alpha s^(alpha-2) - 1 - nu beta s^alpha,

after which c2 = (1 + nu beta s^alpha)^(-1/(2*-2)) and c1 = s c2 solve the
algebraic two-by-two constants system.  In x = log s, f is a sum of at most
four exponentials; recursion on its critical points isolates every root, with
no grid or search window, and Newton in s polishes each.  Tangential roots
(critical points where f vanishes), and only they, are flagged degenerate.
All of it runs on Python floats and loads no numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple

from .errors import ParameterError
from .params import ProblemParams
from .profiles import ScalarProfile

# bisection width in x = log s, relative to max(1, |x|); a root is degenerate
# when |f| at a critical point is this small against the sum of the
# magnitudes of its terms (a sign change with slope 1e-8 of them has a
# critical point beside it where |f| is about 5e-17 of them)
BISECT_WIDTH = 1e-13
TANGENCY_TOL = 1e-10


class CouplingRoot(namedtuple("CouplingRoot", "c_tilde f_prime is_degenerate")):
    """One positive root of the coupling function."""

    __slots__ = ()


class SynchronizedFamily(namedtuple("SynchronizedFamily", "root c1 c2 profile")):
    """One synchronized solution family (c1 * profile, c2 * profile)."""

    __slots__ = ()

    @property
    def c_tilde(self) -> float:
        return self.root.c_tilde

    @property
    def peak_amplitude(self) -> float:
        """c1 A 2^(-delta): the maximum of y_u = r^delta u over t = log r,
        the symmetric-maximum amplitude that shooting recovers."""
        p = self.profile.params
        return self.c1 * p.amplitude * 2.0 ** (-p.delta)


def _positive(s) -> float:
    """s as a float; ParameterError if it is <= 0."""
    s = float(s)
    if s <= 0:
        raise ParameterError("the coupling function is defined for positive arguments only")
    return s


def coupling_f(s: float, p: ProblemParams) -> float:
    """f(s) = s^(2*-2) + nu alpha s^(alpha-2) - 1 - nu beta s^alpha, as a float.

    Where a power overflows, Python's float power raises OverflowError.
    """
    s = _positive(s)
    ts = p.two_star
    return (s ** (ts - 2.0) + p.nu * p.alpha * s ** (p.alpha - 2.0)
            - 1.0 - p.nu * p.beta * s ** p.alpha)


def coupling_f_prime(s: float, p: ProblemParams) -> float:
    """Analytic derivative of the coupling function, as a float."""
    s = _positive(s)
    ts = p.two_star
    return ((ts - 2.0) * s ** (ts - 3.0)
            + p.nu * p.alpha * (p.alpha - 2.0) * s ** (p.alpha - 3.0)
            - p.nu * p.beta * p.alpha * s ** (p.alpha - 1.0))


def _f_scale(s: float, p: ProblemParams) -> float:
    """Sum of term magnitudes of f near s (local residual scale), at least 1."""
    ts = p.two_star
    return (s ** (ts - 2.0) + p.nu * p.alpha * s ** (p.alpha - 2.0)
            + 1.0 + p.nu * p.beta * s ** p.alpha)


def _check_root(s: float, p: ProblemParams) -> None:
    """ParameterError unless |f(s)| is at most 1e-10 of the term sum of f."""
    residual = abs(coupling_f(s, p))
    if residual > 1e-10 * _f_scale(s, p):
        raise ParameterError(f"root residual too large: |f({s:.17g})| = {residual:.3e}")


def _merged_terms(p: ProblemParams) -> tuple[list[float], list[float]]:
    """f(e^x) = sum c_i exp(a_i x) as ([c_i], [a_i]), exponents ascending, with
    equal exponents merged and vanishing coefficients dropped."""
    merged: dict[float, float] = {}
    for c, a in ((1.0, p.two_star - 2.0), (p.nu * p.alpha, p.alpha - 2.0),
                 (-1.0, 0.0), (-p.nu * p.beta, p.alpha)):
        merged[a] = merged.get(a, 0.0) + c
    expos = sorted(a for a, c in merged.items() if c != 0.0)
    return [merged[a] for a in expos], expos


def _sum_roots(coefs: list[float], expos: list[float], lo: float,
               hi: float) -> list[tuple[float, bool]]:
    """Roots of G(x) = sum c_i exp(a_i x) in (lo, hi), ascending, as (x, tangential).

    exp(-a_0 x) G shares the roots of G and is monotone between those of its
    derivative, a sum with one term fewer (two terms: closed form).  So each
    strict sign change between consecutive nodes (lo, critical points, hi) is
    one root, and a critical point where G vanishes to rounding is tangential:
    Laguerre's proof of Descartes' rule of signs, run as an algorithm.
    """
    if len(coefs) == 2:
        ratio = -coefs[1] / coefs[0]
        x = math.log(ratio) / (expos[0] - expos[1]) if ratio > 0 else lo
        return [(x, False)] if lo < x < hi else []
    shifted = [a - expos[0] for a in expos[1:]]
    crit = _sum_roots([c * a for c, a in zip(coefs[1:], shifted)], shifted, lo, hi)
    logc = [math.log(abs(c)) for c in coefs]
    positive = [c > 0 for c in coefs]

    def scaled(x: float) -> tuple[float, float]:
        # G and the sum of its term magnitudes, both over the largest term,
        # added left to right: sum() of floats rounds differently from 3.12 on
        e = [lc + a * x for lc, a in zip(logc, expos)]
        top = max(e)
        g = total = 0.0
        for w, plus in zip([math.exp(v - top) for v in e], positive):
            g += w if plus else -w
            total += w
        return g, total

    roots: list[tuple[float, bool]] = []
    a, ga = lo, scaled(lo)[0]
    for b, _ in crit + [(hi, False)]:
        gb, total = scaled(b)
        tangential = b < hi and abs(gb) <= TANGENCY_TOL * total
        if ga * gb < 0.0 and not tangential:
            left, right = a, b
            while right - left > BISECT_WIDTH * max(1.0, abs(left), abs(right)):
                mid = 0.5 * (left + right)
                if (scaled(mid)[0] > 0.0) == (ga > 0.0):
                    left = mid
                else:
                    right = mid
            roots.append((0.5 * (left + right), False))
        if tangential:
            roots.append((b, True))
        a, ga = b, 0.0 if tangential else gb
    return roots


def _root_at(x: float, p: ProblemParams) -> float:
    """s = e^x; ParameterError if s, a power of f or f' at s, the term sum of
    f or the value of f' there is not a finite normal double."""
    try:
        s = math.exp(x)
        if s >= sys.float_info.min and math.isfinite(_f_scale(s, p) + coupling_f_prime(s, p)):
            return s
    except OverflowError:
        pass
    raise ParameterError(f"the coupling function has a root at log s = {x:.6g}, "
                         "beyond the range of a double")


def _polish(s: float, p: ProblemParams) -> float:
    """Safeguarded Newton on f from s.  When rounding leaves the iterates
    alternating between two doubles, it keeps the larger one, so the result
    does not depend on where the polish started."""
    before = None
    for _ in range(12):
        fs, fps = coupling_f(s, p), coupling_f_prime(s, p)
        if fps == 0.0:
            break
        step = fs / fps
        if not math.isfinite(step) or abs(step) > 0.5 * s:
            break
        s, previous = s - step, s
        if abs(step) <= 1e-16 * s:
            break
        if s == before:
            return max(s, previous)
        before = previous
    return s


def find_positive_roots(p: ProblemParams) -> list[CouplingRoot]:
    """All positive roots of f, ascending.

    Sign-change roots are bisected in x = log s and polished by Newton in s;
    tangential roots, and only they, are flagged degenerate, however small
    f' is at a sign change.  A root beyond the range of a double raises
    ParameterError.
    """
    coefs, expos = _merged_terms(p)
    if not coefs:
        warnings.warn("the coupling function vanishes identically (every merged "
                      "coefficient is zero); no isolated roots exist",
                      RuntimeWarning, stacklevel=2)
        return []
    # beyond these ends the lowest, or the highest, term of f outweighs the
    # sum of the others, so every root lies between them
    k, logc = len(coefs), [math.log(abs(c)) for c in coefs]
    lo = min((logc[0] - logc[j] - math.log(k - 1)) / (expos[j] - expos[0])
             for j in range(1, k))
    hi = max((logc[j] - logc[-1] + math.log(k - 1)) / (expos[-1] - expos[j])
             for j in range(k - 1))
    roots = []
    for x, tangential in _sum_roots(coefs, expos, lo - 1.0, hi + 1.0):
        s = _root_at(x, p) if tangential else _polish(_root_at(x, p), p)
        roots.append(CouplingRoot(c_tilde=s, f_prime=coupling_f_prime(s, p),
                                  is_degenerate=tangential))
    return roots


def verify_constants_system(c1: float, c2: float, p: ProblemParams) -> tuple[float, float]:
    """Residuals of the two algebraic equations for the constants (c1, c2).

    ParameterError if c1 or c2 is not positive, or if a power or a term of
    either equation leaves the range of a double, so that a residual is not
    finite.  Each coupling term, nu alpha c1^(alpha-2) c2^beta and
    nu beta c1^alpha c2^(beta-2), is one exp of a sum of logs: formed factor
    by factor, a partial product such as c1^alpha can be subnormal, and lose
    digits, or overflow while the term is a double.
    """
    if c1 <= 0 or c2 <= 0:
        raise ParameterError(f"constants must be positive, got ({c1}, {c2})")
    ts = p.two_star
    log1, log2 = math.log(c1), math.log(c2)

    def coupled(factor: float, e1: float, e2: float) -> float:
        return math.exp(math.log(factor) + e1 * log1 + e2 * log2) if factor else 0.0

    # float powers and exp raise OverflowError where a product would give inf
    try:
        res1 = abs(c1 ** (ts - 2.0) + coupled(p.nu * p.alpha, p.alpha - 2.0, p.beta) - 1.0)
        res2 = abs(c2 ** (ts - 2.0) + coupled(p.nu * p.beta, p.alpha, p.beta - 2.0) - 1.0)
    except OverflowError:
        res1 = res2 = math.inf
    if not math.isfinite(res1 + res2):
        raise ParameterError(f"the constants system at ({c1:.6g}, {c2:.6g}) has a "
                             "term beyond the range of a double")
    return res1, res2


def constants_from_root(root: CouplingRoot, p: ProblemParams) -> tuple[float, float]:
    """Map a root s of f to the constants (c1, c2) = (s c2, (1+nu beta s^alpha)^(-1/(2*-2))).

    The second equation of the constants system holds by construction; the
    first follows from f(s) = 0 and is asserted, not assumed.  ParameterError
    if s is not a root (``_check_root``), if c1 or c2 is below the least
    normal double, if a term of the constants system leaves the doubles
    (``verify_constants_system``), or if a finite residual exceeds 1e-12.
    """
    s = root.c_tilde
    _check_root(s, p)
    ts = p.two_star
    c2 = (1.0 + p.nu * p.beta * s ** p.alpha) ** (-1.0 / (ts - 2.0))
    c1 = s * c2
    # c2 <= 1 and c1 <= s, so neither can overflow; either can underflow
    if not (c1 >= sys.float_info.min and c2 >= sys.float_info.min):
        raise ParameterError(f"the constants of the root s = {s:.6g} are beyond the "
                             "range of a double")
    res1, res2 = verify_constants_system(c1, c2, p)
    if not (res1 <= 1e-12 and res2 <= 1e-12):  # a NaN raises too
        raise ParameterError(
            f"constants system residuals ({res1:.3e}, {res2:.3e}) exceed 1e-12"
        )
    return c1, c2


def _usable_roots(p: ProblemParams) -> list[CouplingRoot]:
    """``find_positive_roots(p)`` less its tangential roots, which a warning names."""
    roots = find_positive_roots(p)
    degenerate = [r for r in roots if r.is_degenerate]
    if degenerate:
        warnings.warn("%d degenerate root(s) excluded: %s"
                      % (len(degenerate),
                         ", ".join("%.12g" % r.c_tilde for r in degenerate)),
                      RuntimeWarning, stacklevel=3)
    return [r for r in roots if not r.is_degenerate]


def classify(p: ProblemParams, mu0: float = 1.0) -> list[SynchronizedFamily]:
    """One synchronized family per simple positive root of f, shared scale mu0.

    Degenerate (tangential) roots are excluded with a warning
    (``_usable_roots``): the constants map is still defined there, but the
    sign-change structure the classification rests on is not.
    """
    profile = ScalarProfile(p, mu0)
    return [SynchronizedFamily(root, *constants_from_root(root, p), profile)
            for root in _usable_roots(p)]
