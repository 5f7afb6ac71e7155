"""Tests of the benchmark's oracles, which the benchmark trusts over hardysys."""

import math

import numpy as np
import pytest

import oracles

N3_ROOTS = ((3.0 - math.sqrt(5.0)) / 2.0, 1.0, (3.0 + math.sqrt(5.0)) / 2.0)


def f(n, nu, alpha, s):
    beta = oracles.critical_exponent(n) - alpha
    return s ** (oracles.critical_exponent(n) - 2.0) + nu * alpha * s ** (alpha - 2.0) \
        - 1.0 - nu * beta * s ** alpha


def test_three_closed_form_roots_n3():
    oracle = oracles.CouplingOracle([(3, 1.0, 3.0)])
    assert len(oracle.roots[0]) == 3
    for found, expected in zip(oracle.roots[0], N3_ROOTS):
        assert abs(found - expected) <= 1e-12 * expected
    assert oracle.bound[0] == 3
    assert oracle.parity[0] == 1


def test_both_roots_at_tiny_coupling():
    # the small root sits near (nu alpha)^(1/(2-alpha)), far below 1e-8
    n, nu, alpha = 3, 1e-8, 1.05
    roots = oracles.CouplingOracle([(n, nu, alpha)]).roots[0]
    assert len(roots) == 2
    small, large = roots
    assert abs(small / (nu * alpha) ** (1.0 / (2.0 - alpha)) - 1.0) < 0.05
    assert small < 1e-8 and abs(large - 1.0) < 1e-6
    for s in roots:
        # residual relative to the largest term of f at s
        scale = max(s ** 4, nu * alpha * s ** (alpha - 2.0), 1.0)
        assert abs(f(n, nu, alpha, s)) <= 1e-13 * scale


def test_matrix_constants_solve_the_constants_system():
    for n in (3, 4, 5):
        alpha = oracles.critical_exponent(n) / 2.0
        for nu in (0.0, 1.0):
            constants = oracles.matrix_constants(n, nu)
            assert len(constants) == len(oracles.CouplingOracle([(n, nu, alpha)]).roots[0])
            for c1, c2 in constants:
                assert oracles.constants_residual(n, nu, alpha, c1, c2) <= 1e-14


def test_merged_terms_and_bound():
    # n = 4, alpha = 2: f = (1 - 2 nu)(s^2 - 1), two monomials after merging
    coefs, expos = oracles.coupling_terms(4, 1.0, 2.0)
    assert coefs == (1.0, -1.0) and expos == (0.0, 2.0)
    assert oracles.descartes_bound(coefs) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_counts_respect_bound_and_parity(seed):
    rng = np.random.default_rng(seed)
    points = [(3, 10.0 ** rng.uniform(-8, 3), rng.uniform(1.05, 1.9)) for _ in range(200)]
    oracle = oracles.CouplingOracle(points)
    for i, (n, nu, alpha) in enumerate(points):
        roots = oracle.roots[i]
        assert len(roots) <= oracle.bound[i] <= 3
        assert len(roots) % 2 == oracle.parity[i]
        assert np.all(np.diff(roots) > 0)


def test_shooting_target_n4():
    # n = 4, nu = 1, alpha = 2: c1 = 3^(-1/2), A = sqrt(8), delta = 1
    c1 = oracles.matrix_constants(4, 1.0)[0][0]
    assert abs(oracles.shooting_target(4, 0.0, c1) - math.sqrt(8.0 / 3.0) / 2.0) <= 1e-15
