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
under conjugation, so every pair shares its factorization.  Every
shifted matrix has the symmetric pattern of A, so SuperLU orders it by
minimum degree on A^T + A instead of its default COLAMD, a column order
for unsymmetric patterns: on the 2D Laplacian of order 4096 this halves
the LU fill, and with it the factorization and solve times (George and
Liu, "The evolution of the minimum degree ordering algorithm", SIAM
Review 31, 1989).  The basis itself stays complex: a real basis built
from Re/Im of one solve per pair lost an order of magnitude of accuracy
on the mapped poles, which lie far beyond the spectrum of h^2 A.

A rational Krylov approximation is near-optimal over its space
(Guttel, "Rational Krylov approximation of matrix functions: numerical
methods and optimal pole selection", GAMM-Mitt. 36, 2013), so once the
projected coefficients f(A_m) e_1 stop changing with m, further columns
only cost time.  The leading block A_k[:m, :m] is the projection onto
the first m columns, so settled_dimension finds, without further
products with A, the smallest m at which a full space's coefficients
have settled to _SETTLED_RTOL; a filter engine then builds one column
more than that for its later products, and last_column_settled
certifies each of them: the last column must move the coefficients by
at most _SETTLED_RTOL.  On the 2D Laplacian of order 4096 at h = 0.01
(E, degree 8) that is 9 of 18 columns for psi and 10 for sigma.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
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
    "settled_dimension",
    "last_column_settled",
]

_BREAKDOWN_RTOL = 1e-10
# the projected coefficients f(A_m) e_1 have settled at m when the whole
# space's agree with them, zero-padded, to this relative tolerance
_SETTLED_RTOL = 1e-13
_SEED_RTOL = 1e-10
_REAL_GUARD_RTOL = 1e-6


class PoleCollisionError(RuntimeError):
    """A shift zeta coincides with an eigenvalue: (zeta I - A) is singular."""


def _check_symmetric(A, rtol: float = 1e-12) -> None:
    diff = abs(A - A.T)
    dmax = diff.max() if diff.nnz else 0.0
    scale = abs(A).max() if A.nnz else 1.0
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
    """Sparse LU factorizations of (zeta I - A), one per conjugate pair.

    Building a factorization is the dominant cost of a rational Krylov
    step; inside a time integrator the same pole set is reused at every
    step, so the cache is shared across calls.  A pair zeta, conj(zeta)
    shares the complex LU of its member with Im > 0, since the solve at
    conj(zeta) is conj((zeta I - A)^{-1} conj(b)); a real shift is
    factored in float64 and takes a complex right-hand side as two real
    solves.  Pairs share only when they are exact conjugates, as in the
    built-in pole sets.  The shifted matrices keep the symmetric pattern
    of A, so each is factored in a minimum-degree order on A^T + A, with
    SuperLU's default partial pivoting.  The matrix is checked for
    symmetry here, once, rather than on every space built with it.
    """

    def __init__(self, A):
        # checked before the float64 cast, which would drop the imaginary part
        if np.iscomplexobj(A):
            raise ValueError("matrix must be real symmetric, got complex "
                             "entries")
        if not sp.issparse(A):
            A = sp.csc_matrix(np.asarray(A, dtype=np.float64))
        self._A = A.tocsc()
        _check_symmetric(self._A)
        n = self._A.shape[0]
        self._eye = sp.identity(n, format="csc")
        self._lu: dict[complex, spla.SuperLU] = {}

    @property
    def matrix(self):
        return self._A

    def _factor(self, zeta: complex) -> spla.SuperLU:
        """The LU of (zeta I - A) for Im zeta >= 0, real when zeta is."""
        lu = self._lu.get(zeta)
        if lu is None:
            shift = zeta if zeta.imag else zeta.real
            try:
                lu = spla.splu((shift * self._eye - self._A).tocsc(),
                               permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise PoleCollisionError(
                    f"shift {zeta} makes (zeta I - A) singular: {exc}"
                ) from exc
            self._lu[zeta] = lu
        return lu

    def solve(self, zeta: complex, b: np.ndarray) -> np.ndarray:
        zeta = complex(zeta)
        b = np.asarray(b, dtype=np.complex128)
        if zeta.imag < 0:
            x = self._factor(zeta.conjugate()).solve(b.conj()).conj()
        elif zeta.imag > 0:
            x = self._factor(zeta).solve(b)
        else:
            x = _real_apply(self._factor(zeta).solve, b)
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

    def project(self, f, c: np.ndarray, m: int | None = None) -> np.ndarray:
        """f(A_m) c for the leading m x m block A_m of A_k, all of it by
        default: the projection of A onto the first m basis vectors.

        f acts through an eigendecomposition of the Hermitian part of
        A_m; for A_k itself it and f's values on it are computed once
        per space and f.
        """
        if m is None or m == self.dim:
            f_eigh = self._f_eigh.get(f)
            if f_eigh is None:
                f_eigh = self._f_eigh[f] = _f_eigh(self.A_k, f)
        else:
            f_eigh = _f_eigh(self.A_k[:m, :m], f)
        f_lam, U = f_eigh
        return U @ (f_lam * (U.conj().T @ c))


def _f_eigh(A_m: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    lam, U = np.linalg.eigh(0.5 * (A_m + A_m.conj().T))
    return np.asarray(f(lam)), U


def build_space(A, v: np.ndarray, poles: PoleSet, k: int | None = None,
                cache: ShiftedSolveCache | None = None) -> RationalKrylovSpace:
    """Grow a rational Krylov space of dimension k from the real seed v.

    The first basis vector is v normalized; the remaining k-1 columns
    consume the poles cyclically (an infinite pole contributes a plain
    product A v_j).  k defaults to len(poles) + 1 and is capped at the
    matrix order.  Near-linear dependence (new direction below 1e-10 of
    its pre-orthogonalization norm) stops growth early and marks the
    space as exact from that dimension on.  The threshold sits in the
    gap measured on the synthetic, 2D Laplacian and FEM problems: a
    direction taken after the space became invariant keeps at most about
    2e-13 of its norm (roundoff), a genuine one at least 1e-6.  So a
    change in the order of the arithmetic, such as another LU ordering,
    does not move a breakdown.

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
    if k is None:
        k = len(poles) + 1
    if k < 1:
        raise ValueError(f"space dimension must be >= 1, got {k}")
    k = min(k, n)

    # Fortran order keeps every leading block V[:, :m] contiguous
    V = np.zeros((n, k), dtype=np.complex128, order="F")
    V[:, 0] = v / nrm
    pole_list = list(poles.values)
    breakdown = False
    m = 1
    for j in range(1, k):
        zeta = pole_list[(j - 1) % len(pole_list)] if pole_list else complex("inf")
        if cmath.isinf(zeta):
            w = _real_apply(A.dot, V[:, j - 1])
        else:
            w = cache.solve(zeta, V[:, j - 1])
        w0 = float(np.linalg.norm(w))
        Vm = V[:, :m]
        for _ in range(2):
            # V^H w without materializing V^H
            w = w - Vm @ (w.conj() @ Vm).conj()
        wn = float(np.linalg.norm(w))
        if wn <= _BREAKDOWN_RTOL * max(w0, 1e-300):
            breakdown = True
            break
        V[:, j] = w / wn
        m += 1
    V = V[:, :m]
    A_k = V.conj().T @ _real_apply(A.dot, V)
    return RationalKrylovSpace(V=V, A_k=A_k, poles=poles, seed_norm=nrm,
                               breakdown=breakdown)


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


def _agrees(space: RationalKrylovSpace, f, u: np.ndarray, m: int) -> bool:
    """Whether f(A_m) e_1, zero-padded, agrees with u = f(A_k) e_1 to
    _SETTLED_RTOL relative."""
    d = u.copy()
    d[:m] -= space.project(f, np.eye(1, m)[0], m)
    return np.linalg.norm(d) <= _SETTLED_RTOL * np.linalg.norm(u)


def settled_dimension(space: RationalKrylovSpace, f) -> int:
    """Smallest m whose projected coefficients f(A_m) e_1 agree with the
    whole space's f(A_k) e_1 to _SETTLED_RTOL relative, by bisection.
    A_m is the leading block of A_k, so no product with A is needed."""
    u = space.project(f, np.eye(1, space.dim)[0])
    lo, hi = 1, space.dim
    while lo < hi:
        mid = (lo + hi) // 2
        if _agrees(space, f, u, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def last_column_settled(space: RationalKrylovSpace, f) -> bool:
    """Whether the last column moved the projected coefficients by at most
    _SETTLED_RTOL: ||u_k - [u_{k-1}; 0]|| <= _SETTLED_RTOL ||u_k|| with
    u_m = f(A_m) e_1.  Costs one (k-1) x (k-1) eigendecomposition beyond
    the one of A_k, which apply_function shares."""
    k = space.dim
    u = space.project(f, np.eye(1, k)[0])
    return k > 1 and _agrees(space, f, u, k - 1)
