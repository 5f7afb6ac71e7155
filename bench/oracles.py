"""Reference values for the benchmark, computed apart from hardysys.

Nothing here imports hardysys.  The coupling function

    f(s) = s^(2*-2) + nu alpha s^(alpha-2) - 1 - nu beta s^alpha

becomes, in x = log s, an exponential sum G(x) = sum_i c_i exp(a_i x) of at
most four terms.  Its positive roots are isolated by sign changes of G over a
window taken from dominant-term balance.  The nodes of that scan are the
window ends and the critical points of G, so G is monotone between
consecutive nodes and each sign change is exactly one root.  The critical
points come from the same construction applied to d/dx (exp(-a_0 x) G), an
exponential sum with one term fewer; a two-term sum has its root in closed
form.  This is the classical proof of Descartes' rule of signs for sums of
real powers, turned into an algorithm, and it never calls the program's
grid scan.
"""

from __future__ import annotations

import math

import numpy as np

BISECT_ITERATIONS = 80


def critical_exponent(n: int) -> float:
    return 2.0 * n / (n - 2)


def hardy_constant(n: int) -> float:
    return ((n - 2) / 2.0) ** 2


def amplitude(n: int, gamma: float) -> float:
    """A(n, gamma) = (4 n kappa^2 / (n-2))^((n-2)/4), kappa^2 = ((n-2)/2)^2 - gamma."""
    kappa2 = hardy_constant(n) - gamma
    return (4.0 * n * kappa2 / (n - 2.0)) ** ((n - 2) / 4.0)


def shooting_target(n: int, gamma: float, c1: float) -> float:
    """Symmetric-maximum amplitude c1 A 2^(-delta) of the homoclinic orbit."""
    return c1 * amplitude(n, gamma) * 2.0 ** (-(n - 2) / 2.0)


def constants_from_ratio(n: int, nu: float, alpha: float, s: float) -> tuple[float, float]:
    """(c1, c2) = (s c2, (1 + nu beta s^alpha)^(-1/(2*-2))) for a root s of f."""
    two_star = critical_exponent(n)
    beta = two_star - alpha
    c2 = (1.0 + nu * beta * s ** alpha) ** (-1.0 / (two_star - 2.0))
    return s * c2, c2


def constants_residual(n: int, nu: float, alpha: float, c1: float, c2: float) -> float:
    """Largest residual of the two algebraic equations the constants solve."""
    two_star = critical_exponent(n)
    beta = two_star - alpha
    res1 = c1 ** (two_star - 2.0) + nu * alpha * c1 ** (alpha - 2.0) * c2 ** beta - 1.0
    res2 = c2 ** (two_star - 2.0) + nu * beta * c1 ** alpha * c2 ** (beta - 2.0) - 1.0
    return max(abs(res1), abs(res2))


def matrix_ratios(n: int, nu: float) -> tuple[float, ...]:
    """Closed-form roots of f on the acceptance matrix, where alpha = beta = 2*/2.

    nu = 0 leaves s^(2*-2) = 1.  At nu = 1, n = 3, f = (s-1)(s+1)(s^2-3s+1);
    for n = 4 and 5 the symmetric root s = 1 is the only one.
    """
    if nu == 0.0:
        return (1.0,)
    if nu == 1.0 and n == 3:
        return ((3.0 - math.sqrt(5.0)) / 2.0, 1.0, (3.0 + math.sqrt(5.0)) / 2.0)
    if nu == 1.0 and n in (4, 5):
        return (1.0,)
    raise ValueError(f"no closed form for n={n}, nu={nu}")


def matrix_constants(n: int, nu: float) -> list[tuple[float, float]]:
    """Closed-form (c1, c2) per family of the acceptance matrix.

    nu = 0 gives c1 = c2 = 1; at s = 1 both equal (1 + beta)^(-1/(2*-2)).
    """
    alpha = critical_exponent(n) / 2.0
    out = []
    for s in matrix_ratios(n, nu):
        if nu == 0.0:
            out.append((1.0, 1.0))
        elif s == 1.0:
            c = (1.0 + alpha) ** (-1.0 / (critical_exponent(n) - 2.0))
            out.append((c, c))
        else:
            out.append(constants_from_ratio(n, nu, alpha, s))
    return out


# --- the coupling function as an exponential sum in x = log s ----------------


def coupling_terms(n: int, nu: float, alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(coefficients, exponents) of f, exponents ascending.

    Terms with equal exponents are merged and vanishing coefficients dropped,
    so the sign sequence is the one Descartes' rule reads.
    """
    two_star = critical_exponent(n)
    beta = two_star - alpha
    merged: dict[float, float] = {}
    for c, a in ((1.0, two_star - 2.0), (nu * alpha, alpha - 2.0),
                 (-1.0, 0.0), (-nu * beta, alpha)):
        merged[a] = merged.get(a, 0.0) + c
    terms = sorted((a, c) for a, c in merged.items() if c != 0.0)
    return tuple(c for _, c in terms), tuple(a for a, _ in terms)


def descartes_bound(coefs) -> int:
    """Sign changes of the coefficients ordered by exponent: a root-count bound."""
    return sum(1 for a, b in zip(coefs, coefs[1:]) if (a > 0) != (b > 0))


def endpoint_parity(coefs) -> int:
    """Parity of the number of simple roots that the signs of f near 0 and
    near infinity force: the lowest and highest powers decide those signs."""
    return 0 if (coefs[0] > 0) == (coefs[-1] > 0) else 1


def balance_window(coefs, expos, margin: float = 1.0) -> tuple[float, float]:
    """An x-interval that holds every root of G.

    Beyond the upper end the highest power exceeds (k-1) times each other
    term, so it outweighs their sum and G keeps its sign; likewise the lowest
    power below the lower end.
    """
    k = len(coefs)
    mags = [abs(c) for c in coefs]
    hi = max(math.log((k - 1) * mags[j] / mags[-1]) / (expos[-1] - expos[j])
             for j in range(k - 1))
    lo = min(math.log(mags[0] / ((k - 1) * mags[j])) / (expos[j] - expos[0])
             for j in range(1, k))
    return lo - margin, hi + margin


def _scaled(x, logc, sign, expo, weight=None):
    """G(x) / max_i |c_i exp(a_i x)|, row-wise; keeps the sign without overflow.

    With ``weight`` = expo it gives the scaled derivative G'(x) instead.
    """
    e = logc + expo * x[:, None]
    terms = sign * np.exp(e - e.max(axis=1, keepdims=True))
    if weight is not None:
        terms = terms * weight
    return terms.sum(axis=1)


def _bisect(lo, hi, logc, sign, expo):
    """Row-wise bisection of G on [lo, hi]; G changes sign or vanishes at hi."""
    s_lo = np.sign(_scaled(lo, logc, sign, expo))
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        move_lo = np.sign(_scaled(mid, logc, sign, expo)) == s_lo
        lo = np.where(move_lo, mid, lo)
        hi = np.where(move_lo, hi, mid)
    return 0.5 * (lo + hi)


def _sum_roots(coefs, expos, lo, hi):
    """Roots in (lo, hi] of each row's exponential sum, NaN-padded to k-1 columns.

    Returns (roots, nodes): ``nodes`` are the scan nodes of each row, the
    window ends and the critical points, ascending.
    """
    m, k = coefs.shape
    if k == 1:
        return np.full((m, 0), np.nan), np.stack([lo, hi], axis=1)
    if k == 2:
        ratio = -coefs[:, 1] / coefs[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.log(ratio) / (expos[:, 0] - expos[:, 1])
        x = np.where((ratio > 0) & (x > lo) & (x <= hi), x, np.nan)
        return x[:, None], np.stack([lo, hi], axis=1)
    # critical points of exp(-a_0 x) G: roots of a (k-1)-term sum
    d_expos = expos[:, 1:] - expos[:, :1]
    crit, _ = _sum_roots(coefs[:, 1:] * d_expos, d_expos, lo, hi)
    nodes = np.sort(np.concatenate([lo[:, None], np.where(np.isnan(crit), hi[:, None], crit),
                                    hi[:, None]], axis=1), axis=1)
    logc, sign = np.log(np.abs(coefs)), np.sign(coefs)
    a, b = nodes[:, :-1], nodes[:, 1:]
    ga = np.stack([_scaled(a[:, j], logc, sign, expos) for j in range(k - 1)], axis=1)
    gb = np.stack([_scaled(b[:, j], logc, sign, expos) for j in range(k - 1)], axis=1)
    bracket = (b > a) & (ga != 0.0) & (((ga > 0) != (gb > 0)) | (gb == 0.0))
    roots = np.full((m, k - 1), np.nan)
    rows, cols = np.nonzero(bracket)
    if rows.size:
        roots[rows, cols] = _bisect(a[rows, cols], b[rows, cols],
                                    logc[rows], sign[rows], expos[rows])
    return roots, nodes


class CouplingOracle:
    """Positive roots of f for many parameter points at once.

    ``points`` is a sequence of (n, nu, alpha).  After construction,
    ``roots[i]`` holds the ascending roots s of point i, ``bound[i]`` its
    Descartes bound, ``parity[i]`` the forced parity, ``min_slope[i]`` the
    smallest scaled |G'| at a root and ``min_crit[i]`` the smallest scaled
    |G| at an interior critical point (both measure how far the point is from
    a tangential root).
    """

    def __init__(self, points):
        count = len(points)
        self.roots: list[np.ndarray] = [np.empty(0)] * count
        self.bound = [0] * count
        self.parity = [0] * count
        self.min_slope = [math.inf] * count
        self.min_crit = [math.inf] * count
        groups: dict[int, list[int]] = {}
        terms = []
        for i, (n, nu, alpha) in enumerate(points):
            coefs, expos = coupling_terms(n, nu, alpha)
            terms.append((coefs, expos))
            if len(coefs) >= 2:
                self.bound[i] = descartes_bound(coefs)
                self.parity[i] = endpoint_parity(coefs)
                groups.setdefault(len(coefs), []).append(i)
        for idx in groups.values():
            coefs = np.array([terms[i][0] for i in idx])
            expos = np.array([terms[i][1] for i in idx])
            windows = np.array([balance_window(*terms[i]) for i in idx])
            xs, nodes = _sum_roots(coefs, expos, windows[:, 0], windows[:, 1])
            logc, sign = np.log(np.abs(coefs)), np.sign(coefs)

            def smallest(columns, weight=None):
                # row-wise min of |scaled G| (or G') over the non-NaN columns
                out = np.full(len(idx), np.inf)
                for x in columns.T:
                    value = np.abs(_scaled(np.nan_to_num(x), logc, sign, expos, weight))
                    out = np.minimum(out, np.where(np.isnan(x), np.inf, value))
                return out

            crit = nodes[:, 1:-1]
            crit = np.where(crit < windows[:, 1:], crit, np.nan)
            slopes, crit_values = smallest(xs, weight=expos), smallest(crit)
            for row, i in enumerate(idx):
                self.roots[i] = np.exp(xs[row][~np.isnan(xs[row])])
                self.min_slope[i] = float(slopes[row])
                self.min_crit[i] = float(crit_values[row])
