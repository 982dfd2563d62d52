"""Shared test configuration: hypothesis profile and small fixtures."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def lap64():
    from sincint import laplacian_1d

    return laplacian_1d(64)


def random_spd(n: int, seed: int, lam_max: float | None = None) -> sp.csr_matrix:
    """Dense-backed random SPD matrix, optionally rescaled to a target
    largest eigenvalue."""
    g = np.random.default_rng(seed)
    R = g.standard_normal((n, n))
    A = R @ R.T / n + 0.1 * np.eye(n)
    if lam_max is not None:
        top = np.linalg.eigvalsh(A)[-1]
        A = A * (lam_max / top)
    return sp.csr_matrix(A)


def laguerre_fractions(n: int, alpha: int) -> list[Fraction]:
    """Exact coefficients of L_n^(alpha) in ascending order: the k-th is
    (-1)^k binom(n+alpha, n-k) / k!, with the generalized binomial formed
    as a rational product."""
    coeffs = []
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(1, n - k + 1):
            binom *= Fraction(alpha + k + j, j)
        coeffs.append((-1) ** k * binom / math.factorial(k))
    return coeffs
