"""Benchmark matrices and the forced synthetic oscillator problem.

The matrices are the standard undivided finite-difference Laplacians,
plus a pentadiagonal Toeplitz matrix with purely imaginary symbol
eigenvalue curve whose Gram matrix T T^T serves as a tunably stiff
symmetric PSD operator.  The synthetic problem pairs that operator with
a rank-one sinusoidal forcing and carries its own per-mode closed-form
reference solution, including the resonant and zero-frequency limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .densefun import sym_eigendecomposition
from .integrators import SecondOrderIVP

__all__ = [
    "laplacian_1d",
    "laplacian_2d",
    "rutishauser",
    "GRAM_SCALE",
    "SyntheticProblem",
    "synthetic_problem",
    "synthetic_reference",
    "spectral_interval",
]


def laplacian_1d(n: int) -> sp.csr_matrix:
    """Undivided 1D Dirichlet Laplacian tridiag(-1, 2, -1) of order n."""
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    return sp.diags_array(
        [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1]
    ).tocsr()


def laplacian_2d(n: int) -> sp.csr_matrix:
    """Undivided 2D five-point Laplacian of order n = m*m on an m x m grid."""
    m = int(round(np.sqrt(n)))
    if m < 2 or m * m != n:
        raise ValueError(f"order must be a perfect square m^2 with m >= 2, got {n}")
    T = laplacian_1d(m)
    eye = sp.identity(m, format="csr")
    return (sp.kron(eye, T) + sp.kron(T, eye)).tocsr()


def rutishauser(N: int) -> sp.csr_matrix:
    """Pentadiagonal Toeplitz matrix with diagonals (1, -10, 0, 10, 1).

    Nonsymmetric and nonnormal; its eigenvalues track the symbol curve
    2 cos(2 theta) + 20 i sin(theta), a classical spectral test case.
    Used here only through the symmetric PSD Gram matrix T T^T.
    """
    if N < 5:
        raise ValueError(f"order must be >= 5, got {N}")
    return sp.diags_array(
        [np.ones(N - 2), -10 * np.ones(N - 1), 10 * np.ones(N - 1),
         np.ones(N - 2)],
        offsets=[-2, -1, 1, 2],
    ).tocsr()


# Scale applied to the Gram matrix T T^T of the pentadiagonal Toeplitz
# operator.  It pins the largest eigenvalue of the order-20 problem at
# 1.2138e3, so runs across orders share one stiffness scale and step
# sizes are comparable between experiments.
GRAM_SCALE = 3.074486


@dataclass
class SyntheticProblem:
    """Forced oscillator benchmark: A = GRAM_SCALE * T T^T, f = c sin(t) 1.

    Initial position is the all-ones vector, initial velocity zero; the
    forcing is the all-ones vector scaled by forcing_scale * sin(t).
    """

    N: int
    A: sp.csr_matrix
    forcing_scale: float = 0.5
    y0: np.ndarray = field(init=False)
    y1: np.ndarray = field(init=False)

    def __post_init__(self):
        self.y0 = np.ones(self.N)
        self.y1 = np.zeros(self.N)

    def forcing(self, t: float) -> np.ndarray:
        return np.full(self.N, self.forcing_scale * np.sin(t))

    def as_ivp(self, tf: float = 1.0, t0: float = 0.0) -> SecondOrderIVP:
        return SecondOrderIVP(A=self.A, y0=self.y0, y1=self.y1,
                              forcing=self.forcing, t0=t0, tf=tf)


def synthetic_problem(N: int = 20, forcing_scale: float = 0.5) -> SyntheticProblem:
    """Construct the scaled Gram-matrix oscillator of order N."""
    T = rutishauser(N)
    A = (GRAM_SCALE * (T @ T.T)).tocsr()
    return SyntheticProblem(N=N, A=A, forcing_scale=forcing_scale)


_RESONANCE_TOL = 1e-7
_ZERO_TOL = 1e-12
_REFERENCE_MAX_ORDER = 2000


def synthetic_reference(problem: SyntheticProblem, t: float) -> np.ndarray:
    """Closed-form solution of the synthetic problem at time t.

    Diagonalizing A decouples the system into scalar oscillators
    y'' + lam y = c sin(t) with y(0) = a, y'(0) = b, solved per mode:

    * lam not in {0, 1}: a cos(w t) + (b/w) sin(w t)
      + c/(lam-1) (sin t - sin(w t)/w), w = sqrt(lam);
    * |lam - 1| <= 1e-7 (resonance): the forced response is replaced by
      its expansion in eps = lam - 1,
      c [ (sin t - t cos t)/2 - eps/8 (3 sin t - 3 t cos t - t^2 sin t) ];
    * lam <= 1e-12: a + b t + c (t - sin t).

    The thresholds keep catastrophic cancellation out of the generic
    branch while the expansion error stays below 1e-9 absolute.
    """
    if problem.N > _REFERENCE_MAX_ORDER:
        raise ValueError(
            f"closed-form reference is a dense oracle; order "
            f"{problem.N} > {_REFERENCE_MAX_ORDER}"
        )
    lam, Q = sym_eigendecomposition(problem.A)
    a = Q.T @ problem.y0
    b = Q.T @ problem.y1
    c = Q.T @ (problem.forcing_scale * np.ones(problem.N))
    t = float(t)
    st, ct = np.sin(t), np.cos(t)
    zero = lam <= _ZERO_TOL
    eps = lam - 1.0
    resonant = np.abs(eps) <= _RESONANCE_TOL
    w = np.sqrt(np.where(zero, 1.0, lam))
    hom = a * np.cos(w * t) + (b / w) * np.sin(w * t)
    res_forced = c * (0.5 * (st - t * ct)
                      - (eps / 8.0) * (3 * st - 3 * t * ct - t * t * st))
    forced = (c / np.where(resonant | zero, 1.0, eps)
              * (st - np.sin(w * t) / w))
    out = np.where(zero, a + b * t + c * (t - st),
                   hom + np.where(resonant, res_forced, forced))
    return Q @ out


_INTERVAL_DENSE_ORDER = 1500


def spectral_interval(A) -> tuple[float, float]:
    """Extreme eigenvalues (lam_min, lam_max) of a symmetric PSD matrix.

    Orders up to 1500 go through the dense solver; larger ones use a
    Lanczos run for the top of the spectrum and a shift-invert Lanczos
    run at zero for the bottom (the matrix must then be nonsingular).
    """
    n = A.shape[0]
    if n <= _INTERVAL_DENSE_ORDER:
        lam, _ = sym_eigendecomposition(A)
        return float(lam[0]), float(lam[-1])
    A = sp.csc_matrix(A, dtype=np.float64)
    top = spla.eigsh(A, k=1, which="LA", return_eigenvectors=False)
    bot = spla.eigsh(A, k=1, sigma=0.0, which="LM", return_eigenvectors=False)
    return float(bot[0]), float(top[0])
