"""Shared fixtures: benchmark families and cached matrix integrations."""

import math

import pytest

import hardysys as hs
from hardysys.emdenfowler import _manifold_coordinates
from reference import mirrored


@pytest.fixture(scope="session")
def benchmark4():
    p = hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0)
    fam = hs.classify(p, 1.0)[0]
    return p, fam


@pytest.fixture(scope="session")
def benchmark3():
    p = hs.ProblemParams.symmetric(3, 0.0, 1.0, 3.0)
    fams = hs.classify(p, 1.0)
    return p, fams


def matrix_params():
    """(n, gamma, nu, alpha) over {3,4,5} x {0, lambda_n/2} x {0,1} x {2*/2}."""
    out = []
    for n in (3, 4, 5):
        lam = hs.hardy_constant(n)
        for gamma in (0.0, lam / 2.0):
            for nu in (0.0, 1.0):
                out.append(hs.ProblemParams.symmetric(
                    n, gamma, nu, hs.critical_exponent(n) / 2.0))
    return out


@pytest.fixture(scope="session")
def matrix_families():
    """Every synchronized family of the acceptance matrix, all three scales."""
    cases = []
    for p in matrix_params():
        for mu0 in (0.5, 1.0, 2.0):
            for fam in hs.classify(p, mu0):
                cases.append((p, mu0, fam))
    return cases


@pytest.fixture(scope="session")
def matrix_trajectories(matrix_families):
    """Each family's whole orbit: the tol 1e-10 shooting trace that
    full_verification checks, mirrored about its turn at log mu0 by the
    reference mirror, with the manifold coordinates (x_u, x_v) of its start."""
    return [{"params": p, "mu0": mu0, "family": fam,
             "orbit": mirrored(hs.shoot_synchronized(p, fam.root, 1e-10), math.log(mu0)),
             "coordinates": _manifold_coordinates(p, fam.c_tilde)}
            for p, mu0, fam in matrix_families]
