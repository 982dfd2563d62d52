"""Dense spectral route for f(A)v on symmetric matrices.

This is the reference oracle for everything else in the package: an
explicit eigendecomposition, a diagonal function application, and the
transform back.  The eigendecomposition is O(n^3) and its eigenvector
matrix O(n^2) memory; a guard refuses orders above 5000 so the oracle is
never silently used at scales it was not meant for.

A sparse matrix with no stored entry beyond its first off-diagonals (a
1D semi-discretization) is decomposed from its diagonal and subdiagonal
by LAPACK ``dstevd`` without being densified; every other input goes to
``np.linalg.eigh``.  Both run the divide-and-conquer kernel ``dstedc``:
``eigh`` (``syevd``) first reduces A to tridiagonal form, and on a
matrix that is already tridiagonal that reduction and its
back-transformation are the identity, so the two routes return the same
eigenpairs, at about a fifth of the time at order 1500.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .special import psi, sigma, sinc

try:
    from scipy.linalg.lapack import dstevd
except ImportError:  # older scipy; tridiagonal input then takes eigh
    dstevd = None

__all__ = [
    "sym_eigendecomposition",
    "funm_sym",
    "sinc_apply_dense",
    "psi_apply_dense",
    "sigma_apply_dense",
    "expm_i_dense",
]

_MAX_DENSE_ORDER = 5000
_SYM_TOL = 1e-12


def _check_order(n: int) -> None:
    if n > _MAX_DENSE_ORDER:
        raise ValueError(
            f"dense route refuses order {n} > {_MAX_DENSE_ORDER}; "
            "use the Krylov or exponential-sum route instead"
        )


def _check_entries(max_abs: float, lower: np.ndarray, upper: np.ndarray) -> None:
    """Finite entries, and the lower triangle (or subdiagonal) equal to
    the upper one to 1e-12 of max(max|A|, 1)."""
    if not np.isfinite(max_abs):
        raise ValueError("matrix has non-finite entries")
    if np.abs(lower - upper).max() > _SYM_TOL * max(max_abs, 1.0):
        raise ValueError("matrix is not symmetric to 1e-12 (max-norm, relative)")


def _check_real(x, what: str) -> None:
    # before any float64 cast, which would drop the imaginary part
    if np.iscomplexobj(x):
        raise ValueError(f"{what} must be real, got complex entries")


def _tridiagonal_bands(A) -> tuple[np.ndarray, np.ndarray] | None:
    """Diagonal and subdiagonal of a square sparse A of order >= 2 with
    no stored entry beyond its first off-diagonals, checked like
    _as_dense_sym; None for any other input."""
    if (dstevd is None or not sp.issparse(A) or A.ndim != 2
            or A.shape[0] != A.shape[1] or A.shape[0] < 2):
        return None
    _check_order(A.shape[0])
    coo = A.tocoo()
    if coo.nnz and np.abs(coo.row - coo.col).max() > 1:
        return None
    d, e, f = (np.asarray(A.diagonal(k), dtype=np.float64) for k in (0, -1, 1))
    _check_entries(max(np.abs(d).max(), np.abs(e).max(), np.abs(f).max()), e, f)
    return d, e


def _as_dense_sym(A) -> np.ndarray:
    if sp.issparse(A):
        if A.ndim == 2 and A.shape[0] == A.shape[1]:
            _check_order(A.shape[0])
        A = A.toarray()
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    _check_order(A.shape[0])
    _check_entries(np.abs(A).max(), A, A.T)
    return A


def sym_eigendecomposition(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric A.

    A sparse A with no stored entry beyond its first off-diagonals, of
    order >= 2, is decomposed by LAPACK ``dstevd`` from its diagonal and
    subdiagonal (the lower triangle, which ``eigh`` reads too); anything
    else by ``np.linalg.eigh``.  Both run ``dstedc``, and ``eigh``'s
    reduction of a tridiagonal matrix to tridiagonal form is the
    identity, so the routes agree to rounding (bit for bit in runs with
    single-threaded OpenBLAS).  Q is returned in C order, as ``eigh``
    returns it, so later products with it round the same way.

    Raises ValueError for a complex, non-square, non-finite or
    nonsymmetric A or an order above 5000, and np.linalg.LinAlgError
    when the eigensolver does not converge.
    """
    _check_real(A, "matrix")
    bands = _tridiagonal_bands(A)
    if bands is None:
        lam, Q = np.linalg.eigh(_as_dense_sym(A))
        return lam, Q
    lam, Q, info = dstevd(*bands)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed, info = {info}")
    return lam, np.ascontiguousarray(Q)


def funm_sym(A, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Full matrix f(A) = Q f(Lambda) Q^T for symmetric A."""
    lam, Q = sym_eigendecomposition(A)
    fl = np.asarray(f(lam))
    return (Q * fl) @ Q.T


def _apply(A, v: np.ndarray, f: Callable) -> np.ndarray:
    _check_real(v, "vector")
    lam, Q = sym_eigendecomposition(A)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (Q.shape[0],):
        raise ValueError(f"vector shape {v.shape} does not match order {Q.shape[0]}")
    return Q @ (np.asarray(f(lam)) * (Q.T @ v))


def sinc_apply_dense(A, v: np.ndarray) -> np.ndarray:
    """sinc(A) v through the eigendecomposition."""
    return _apply(A, v, sinc)


def psi_apply_dense(A, v: np.ndarray, h: float = 1.0) -> np.ndarray:
    """psi(h^2 A) v, the inner filter of the one-step scheme."""
    return _apply(A, v, lambda lam: psi(h * h * lam))


def sigma_apply_dense(A, v: np.ndarray, h: float = 1.0) -> np.ndarray:
    """sigma(h^2 A) v, the velocity filter of the one-step scheme."""
    return _apply(A, v, lambda lam: sigma(h * h * lam))


def expm_i_dense(A, t: float) -> np.ndarray:
    """Unitary propagator exp(-i t A) for symmetric A, as a dense matrix."""
    lam, Q = sym_eigendecomposition(A)
    return (Q * np.exp(-1j * t * lam)) @ Q.T
