"""Rational Krylov spaces for f(A)v with shift-and-invert Arnoldi.

The space is grown one column at a time: each new direction is either a
shifted solve (zeta_j I - A)^{-1} v_j for a finite pole or a plain
matrix-vector product for the infinity sentinel.  Classical
Gram-Schmidt, run twice per column, keeps the basis orthonormal to
machine precision, and the function is then applied to the small
projected matrix A_k = V^H A V.

A is certified real symmetric when its ShiftedSolveCache is built, so
the projection is Hermitian regardless of where the poles sit and the
small problem is solved by a Hermitian eigendecomposition; when the
pole multiset is closed under conjugation and the data are real, the
assembled result is real up to roundoff and is returned as such.

Because A is real, (conj(zeta) I - A) is the conjugate of (zeta I - A):
the cache factors one complex LU per conjugate pair of poles and a real
LU for a real pole (Ruhe, "The rational Krylov algorithm for
nonsymmetric eigenvalue problems III: complex shifts for real
matrices", BIT 34, 1994).  The built-in pole sets are exactly closed
under conjugation, so every pair shares its factorization.

The cache factors A in the storage it is given.  A sparse A goes to
SuperLU.  Every shifted matrix has the symmetric pattern of A, so
SuperLU orders it by minimum degree on A^T + A instead of its default
COLAMD, a column order for unsymmetric patterns: on the 2D Laplacian of
order 4096 this halves the LU fill, and with it the factorization and
solve times (George and Liu, "The evolution of the minimum degree
ordering algorithm", SIAM Review 31, 1989).  An ndarray goes to LAPACK's
LU with partial pivoting, looked up at call time as sla.lu_factor, with
the same pair sharing.  The filter engine keeps h^2 A dense when more
than half of its entries are nonzero (integrators._DENSE_FILL), as for
the full FEM operator Atil of order 961: there SuperLU fills the LU
completely anyway and took 0.18 s per complex shift against 0.06 s for
LAPACK, and a product of h^2 A with 20 columns took 9.5 ms in CSC
against 1.6 ms dense (one BLAS thread).  It is LU rather than the
complex-symmetric LDL^T (zsytrf/zsytrs), which is cheaper but less
accurate there: over ten FEM wave runs its error against the dense
reference had median 2.24e-15, against 1.60e-15 with LU.  The basis
itself stays complex: a real basis built
from Re/Im of one solve per pair lost an order of magnitude of accuracy
on the mapped poles, which lie far beyond the spectrum of h^2 A.

A rational Krylov approximation is near-optimal over its space
(Guttel, "Rational Krylov approximation of matrix functions: numerical
methods and optimal pole selection", GAMM-Mitt. 36, 2013), so once the
projected coefficients f(A_m) e_1 stop changing with m, further columns
only cost time, and their poles need no factorization.  Given f,
build_space grows the space until its last column moved those
coefficients by at most _SETTLED_RTOL; a filter engine starts checking
each product at the dimension where its previous product stopped, and
the cache factors only the shifts some product reaches.  On the 2D
Laplacian of order 4096 at h = 0.01 (E, degree 8) a psi product stops
at 9 of 18 columns and a sigma product at 10, so 5 of the 9 LUs of the
two pole sets are ever built.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .poles import PoleSet
from .special import sinc

__all__ = [
    "PoleCollisionError",
    "ShiftedSolveCache",
    "RationalKrylovSpace",
    "build_space",
    "apply_function",
    "sinc_apply",
]

_BREAKDOWN_RTOL = 1e-10
# the projected coefficients f(A_m) e_1 have settled at m when those of
# A_{m-1}, zero-padded, agree with them to this relative tolerance
_SETTLED_RTOL = 1e-13
_SEED_RTOL = 1e-10
_REAL_GUARD_RTOL = 1e-6


class PoleCollisionError(RuntimeError):
    """A shift zeta coincides with an eigenvalue: (zeta I - A) is singular."""


def _check_symmetric(A, rtol: float = 1e-12) -> None:
    if sp.issparse(A):
        diff = abs(A - A.T)
        dmax = diff.max() if diff.nnz else 0.0
        scale = abs(A).max() if A.nnz else 1.0
    else:
        dmax = np.max(np.abs(A - A.T), initial=0.0)
        scale = np.max(np.abs(A), initial=0.0)
    if dmax > rtol * max(scale, 1.0):
        raise ValueError("matrix must be real symmetric "
                         "(max |A - A^T| too large)")


def _real_apply(op, X: np.ndarray) -> np.ndarray:
    """op(X) for a real linear operator op (a real sparse product or a
    real LU solve) and a complex X: the real and imaginary parts go
    through one real multi-column call, and the operator is never
    converted to complex."""
    W = op(np.column_stack((X.real, X.imag)))
    half = W.shape[1] // 2
    return (W[:, :half] + 1j * W[:, half:]).reshape(X.shape)


class ShiftedSolveCache:
    """LU factorizations of (zeta I - A), one per conjugate pair.

    Building a factorization is the dominant cost of a rational Krylov
    step; inside a time integrator the same pole set is reused at every
    step, so the cache is shared across calls.  A pair zeta, conj(zeta)
    shares the complex LU of its member with Im > 0, since the solve at
    conj(zeta) is conj((zeta I - A)^{-1} conj(b)); a real shift is
    factored in float64 and takes a complex right-hand side as one
    two-column real solve.  Pairs share only when they are exact
    conjugates, as in the built-in pole sets.  The matrix is checked for
    symmetry here, once, rather than on every space built with it.

    A is factored in the storage it is given.  A sparse matrix goes to
    SuperLU: the shifted matrices keep the symmetric pattern of A, so
    each is factored in a minimum-degree order on A^T + A, with
    SuperLU's default partial pivoting.  An ndarray goes to LAPACK's LU
    with partial pivoting (getrf), called as sla.lu_factor; an exactly
    singular shift (a zero pivot, getrf's info > 0) raises
    PoleCollisionError instead of lu_factor's LinAlgWarning.  It is LU
    and not the complex-symmetric LDL^T, which lost accuracy on the FEM
    operator (see the module docstring).
    """

    def __init__(self, A):
        # checked before the float64 cast, which would drop the imaginary part
        if np.iscomplexobj(A):
            raise ValueError("matrix must be real symmetric, got complex "
                             "entries")
        if sp.issparse(A):
            self._A = A.tocsc()
        else:
            self._A = np.asarray(A, dtype=np.float64)
        _check_symmetric(self._A)
        # zeta -> solver of (zeta I - A), for Im zeta >= 0
        self._solvers: dict[complex, Callable] = {}

    @property
    def matrix(self):
        return self._A

    def _factor(self, zeta: complex) -> Callable:
        """A solver of (zeta I - A) for Im zeta >= 0, real when zeta is."""
        solve = self._solvers.get(zeta)
        if solve is None:
            shift = zeta if zeta.imag else zeta.real
            if sp.issparse(self._A):
                solve = self._factor_sparse(shift)
            else:
                solve = self._factor_dense(shift)
            self._solvers[zeta] = solve
        return solve

    def _factor_sparse(self, shift) -> Callable:
        eye = sp.identity(self._A.shape[0], format="csc")
        try:
            lu = spla.splu((shift * eye - self._A).tocsc(),
                           permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise PoleCollisionError(
                f"shift {shift} makes (zeta I - A) singular: {exc}"
            ) from exc
        return lu.solve

    def _factor_dense(self, shift) -> Callable:
        # Fortran order, so that getrf factors M in place without a copy
        M = np.negative(self._A, dtype=np.result_type(shift, self._A),
                        order="F")
        M[np.diag_indices_from(M)] += shift
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                lu = sla.lu_factor(M, overwrite_a=True, check_finite=False)
            except sla.LinAlgWarning as exc:
                raise PoleCollisionError(
                    f"shift {shift} makes (zeta I - A) singular: {exc}"
                ) from exc
        return lambda b: sla.lu_solve(lu, b, check_finite=False)

    def solve(self, zeta: complex, b: np.ndarray) -> np.ndarray:
        zeta = complex(zeta)
        b = np.asarray(b, dtype=np.complex128)
        if zeta.imag < 0:
            x = self._factor(zeta.conjugate())(b.conj()).conj()
        elif zeta.imag > 0:
            x = self._factor(zeta)(b)
        else:
            x = _real_apply(self._factor(zeta), b)
        if not np.all(np.isfinite(x)):
            raise PoleCollisionError(
                f"shifted solve at zeta={zeta} returned non-finite values; "
                "the pole sits on (or numerically on) the spectrum"
            )
        return x


@dataclass
class RationalKrylovSpace:
    """Orthonormal basis V, projection A_k = V^H A V and bookkeeping."""

    V: np.ndarray
    A_k: np.ndarray
    poles: PoleSet
    seed_norm: float
    breakdown: bool = False
    # f -> (f at the eigenvalues of A_k's Hermitian part, its eigenvectors)
    _f_eigh: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    def project(self, f, c: np.ndarray) -> np.ndarray:
        """f(A_k) c, through an eigendecomposition of the Hermitian part
        of A_k that, with f's values on it, is computed once per space
        and f."""
        f_eigh = self._f_eigh.get(f)
        if f_eigh is None:
            f_eigh = self._f_eigh[f] = _f_eigh(self.A_k, f)
        f_lam, U = f_eigh
        return U @ (f_lam * (U.conj().T @ c))


def _f_eigh(A_m: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    lam, U = np.linalg.eigh(0.5 * (A_m + A_m.conj().T))
    return np.asarray(f(lam)), U


def _coefficients(f_eigh) -> np.ndarray:
    """f(A_m) e_1 from f's eigendecomposition of A_m."""
    f_lam, U = f_eigh
    return U @ (f_lam * U[0].conj())


def build_space(A, v: np.ndarray, poles: PoleSet, k: int | None = None,
                cache: ShiftedSolveCache | None = None,
                f=None) -> RationalKrylovSpace:
    """Grow a rational Krylov space from the real seed v.

    The first basis vector is v normalized; the further columns consume
    the poles cyclically (an infinite pole contributes a plain product
    A v_j).  Near-linear dependence (new direction below 1e-10 of its
    pre-orthogonalization norm) stops growth early and marks the space
    as exact from that dimension on.  The threshold sits in the gap
    measured on the synthetic, 2D Laplacian and FEM problems: a
    direction taken after the space became invariant keeps at most about
    2e-13 of its norm (roundoff), a genuine one at least 1e-6.  So a
    change in the order of the arithmetic, such as another LU ordering,
    does not move a breakdown.

    Without f the space has dimension k, by default len(poles) + 1,
    capped at the matrix order.  With f, growth stops at the first
    dimension m >= k (k defaults to 2) whose last column moved the
    projected coefficients by at most _SETTLED_RTOL relative,
    ||u_m - [u_{m-1}; 0]|| <= _SETTLED_RTOL ||u_m|| with u_m = f(A_m) e_1,
    and otherwise at min(len(poles) + 1, n) or a breakdown.  A_m is
    formed with one multi-column product with A at dimension k and then
    extended by one row and column per column, and f's eigendecomposition
    of the last A_m is kept for apply_function.

    When a cache is supplied it already owns the matrix, and its matrix
    is the one used; pass the same operator as A (it is only consulted
    when cache is None).
    """
    if cache is None:
        cache = ShiftedSolveCache(A)
    A = cache.matrix
    n = A.shape[0]
    if np.iscomplexobj(v):
        raise ValueError("seed vector must be real, got complex entries")
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"seed length {v.shape[0]} does not match order {n}")
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("seed vector must be nonzero")
    if k is not None and k < 1:
        raise ValueError(f"space dimension must be >= 1, got {k}")
    if f is None:
        stop = min(len(poles) + 1 if k is None else k, n)
        check = stop + 1
    else:
        stop = min(len(poles) + 1, n)
        check = max(k or 2, 2)

    # Fortran order keeps every leading block V[:, :m] contiguous
    V = np.zeros((n, stop), dtype=np.complex128, order="F")
    V[:, 0] = v / nrm
    f_eigh = None
    pole_list = list(poles.values)
    breakdown = False
    m = 1
    while m < stop:
        zeta = pole_list[(m - 1) % len(pole_list)] if pole_list else complex("inf")
        if cmath.isinf(zeta):
            w = _real_apply(A.dot, V[:, m - 1])
        else:
            w = cache.solve(zeta, V[:, m - 1])
        w0 = float(np.linalg.norm(w))
        Vm = V[:, :m]
        for _ in range(2):
            # V^H w without materializing V^H
            w = w - Vm @ (w.conj() @ Vm).conj()
        wn = float(np.linalg.norm(w))
        if wn <= _BREAKDOWN_RTOL * max(w0, 1e-300):
            breakdown = True
            break
        V[:, m] = w / wn
        m += 1
        if m < check:
            continue
        if f_eigh is None:
            # the projection of A onto V[:, :m], grown with the basis
            A_k = np.empty((stop, stop), dtype=np.complex128)
            A_k[:m, :m] = V[:, :m].conj().T @ _real_apply(A.dot, V[:, :m])
            f_eigh = _f_eigh(A_k[:m - 1, :m - 1], f)
        else:
            col = V[:, :m].conj().T @ _real_apply(A.dot, V[:, m - 1])
            A_k[:m, m - 1] = col
            A_k[m - 1, :m - 1] = col[:m - 1].conj()
        u_prev = _coefficients(f_eigh)
        f_eigh = _f_eigh(A_k[:m, :m], f)
        u = _coefficients(f_eigh)
        d = u.copy()
        d[:m - 1] -= u_prev
        if np.linalg.norm(d) <= _SETTLED_RTOL * np.linalg.norm(u):
            break
    V = V[:, :m]
    if f_eigh is None:
        A_k = V.conj().T @ _real_apply(A.dot, V)
    else:
        A_k = A_k[:m, :m].copy()
    space = RationalKrylovSpace(V=V, A_k=A_k, poles=poles, seed_norm=nrm,
                                breakdown=breakdown)
    if f_eigh is not None:
        space._f_eigh[f] = f_eigh
    return space


def apply_function(space: RationalKrylovSpace, f, v: np.ndarray) -> np.ndarray:
    """Evaluate f(A) v through the projected problem of the given space.

    v must be the seed the space was built from (checked: its
    coefficient vector in the basis must be norm(v) e_1 to 1e-10).  f
    maps an eigenvalue array to function values, and acts through an
    eigendecomposition of the Hermitian part of A_k (space.project):
    A_k must be Hermitian up to roundoff, as build_space guarantees by
    projecting the certified symmetric matrix of a ShiftedSolveCache.

    When v is real and the pole set is closed under conjugation the
    result is real up to roundoff and is returned as float64; an
    imaginary residue above 1e-6 of its norm raises FloatingPointError.
    """
    v = np.asarray(v).reshape(-1)
    c = (v.conj() @ space.V).conj()
    nrm = float(np.linalg.norm(v))
    e1 = np.zeros_like(c)
    e1[0] = nrm
    if np.linalg.norm(c - e1) > _SEED_RTOL * max(nrm, 1e-300):
        raise ValueError(
            "vector is not the seed of this space (projection deviates "
            "from norm(v) e_1); rebuild the space for this right-hand side"
        )
    y = space.V @ space.project(f, c)
    if np.isrealobj(v) and space.poles.is_conjugate_closed():
        scale = max(float(np.linalg.norm(y)), 1e-300)
        if float(np.linalg.norm(y.imag)) > _REAL_GUARD_RTOL * scale:
            raise FloatingPointError(
                "imaginary residue exceeds guard although the pole set is "
                "conjugate closed; the space is numerically degenerate"
            )
        return np.ascontiguousarray(y.real)
    return y


def sinc_apply(A, v: np.ndarray, poles: PoleSet, k: int | None = None,
               cache: ShiftedSolveCache | None = None) -> np.ndarray:
    """sinc(A) v via a rational Krylov space on A with the given poles."""
    space = build_space(A, v, poles, k=k, cache=cache)
    return apply_function(space, sinc, v)
