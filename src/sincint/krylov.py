"""Rational Krylov spaces for f(A)v with shift-and-invert Arnoldi.

The space is grown one column at a time: each new direction is either a
shifted solve (zeta_j I - A)^{-1} v_j for a finite pole or a plain
matrix-vector product for the infinity sentinel.  Classical
Gram-Schmidt, run twice per column, keeps the basis orthonormal to
machine precision, and the function is then applied to the small
projected matrix A_k = V^H A V.

A is certified real, finite and symmetric when its ShiftedSolveCache is
built (densefun's one operator check), so the projection is Hermitian
regardless of where the poles sit and the small problem is solved by a
Hermitian eigendecomposition; when the pole multiset is closed under
conjugation and the data are real, the assembled result is real up to
roundoff and is returned as such.

Because A is real, (conj(zeta) I - A) is the conjugate of (zeta I - A):
the cache factors one complex LU per conjugate pair of poles and a real
LU for a real pole (Ruhe, "The rational Krylov algorithm for
nonsymmetric eigenvalue problems III: complex shifts for real
matrices", BIT 34, 1994).  A pole set counts as closed under
conjugation only when its poles pair exactly, as the built-in sets do,
so every pair of a closed set shares its factorization.

The cache stores A dense or as CSR by its order and fill
(ShiftedSolveCache has the rule and the times behind it) and factors
it in that storage.  A sparse A goes to SuperLU.  Every shifted matrix has the symmetric pattern of A, so
SuperLU orders it by minimum degree on A^T + A instead of its default
COLAMD, a column order for unsymmetric patterns: on the 2D Laplacian of
order 4096 this halves the LU fill, and with it the factorization and
solve times (George and Liu, "The evolution of the minimum degree
ordering algorithm", SIAM Review 31, 1989).  An ndarray goes to LAPACK's
LU with partial pivoting (getrf), looked up at call time as
sla.lu_factor, with the same pair sharing.  Its solves do not go through
LAPACK's getrs: getrf's row interchanges become one permutation per
factorization, and each solve is two BLAS triangular solves (trsv) on
the Fortran-ordered factor.  With one right-hand side and one BLAS
thread, OpenBLAS's complex getrs took 1.97 ms at order 961 against
0.83 ms for the two ztrsv calls (0.131 against 0.037 ms at order 225,
14.1 against 7.4 ms at 2209; medians), most likely because its ztrsm
packs the whole factor for one column.  The real getrs is not slow
(0.45 against 0.40 ms at order 961, and 1.05 ms for two columns
against 0.89 ms for four dtrsv calls), so both dtypes take the trsv
path, a real shift's two real columns one at a time.  It is LU rather
than the complex-symmetric LDL^T (zsytrf/zsytrs), which is cheaper but
less accurate on the dense FEM operator: over ten FEM wave runs its
error against the dense reference had median 2.24e-15, against
1.60e-15 with LU.  The basis itself stays complex: a real basis built
from Re/Im of one solve per pair lost an order of magnitude of accuracy
on the mapped poles, which lie far beyond the spectrum of h^2 A.

An infinite pole's direction is the product A v_j, orthogonalized like a
solve, and A_m comes from block products V^H A V at the settling checks.

A rational Krylov approximation is near-optimal over its space
(Guttel, "Rational Krylov approximation of matrix functions: numerical
methods and optimal pole selection", GAMM-Mitt. 36, 2013), so once the
projected coefficients f(A_m) e_1 stop changing with m, further columns
only cost time, and their poles need no factorization.  Given f,
build_space grows the space until its last column moved those
coefficients by at most _SETTLED_RTOL; a filter engine starts checking
each product at the dimension where its previous product stopped, and
the cache solves only the shifts some product reaches.

One helper, _projected, computes the projected function f(A_m) c by an
eigendecomposition of the Hermitian part of A_m, for the settling check
and for apply_function alike.  A space is a plain record and keeps no
function values, so apply_function repeats the m x m eigensolve of the
last check, which is small beside the shifted solve of each column.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dnrm2, dznrm2

from .densefun import _check_real, _check_symmetric
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
# A is stored dense when more than this share of its entries is
# nonzero.  Above half fill CSR already takes more than 6 n^2 bytes (8
# for a value and 4 for its index) against 8 n^2 dense, and the LU of a
# shifted matrix fills in completely either way.  The FEM operator Atil
# is full; the 2D Laplacian of order 4096 is 0.12% full and the
# synthetic problem 23%.
_DENSE_FILL = 0.5
# A is stored dense, whatever its fill, up to this order: there a dense
# product and a LAPACK LU cost less than CSR and SuperLU even on a
# tridiagonal matrix (ShiftedSolveCache has the measured table)
_DENSE_ORDER = 64


def _stores_dense(A) -> bool:
    """Whether A, an ndarray or a sparse matrix, is stored as an ndarray
    (ShiftedSolveCache has the rule): an array that is not 2-D, an order
    of at most _DENSE_ORDER or more than _DENSE_FILL of the entries
    nonzero (stored entries of a sparse A)."""
    nnz = A.nnz if sp.issparse(A) else np.count_nonzero(A)
    return (A.ndim != 2 or A.shape[0] <= _DENSE_ORDER
            or nnz > _DENSE_FILL * np.prod(A.shape))


def _stored(A):
    """A in the storage ShiftedSolveCache keeps, the one place of the
    storage rule: a complex A is refused before any float64 cast, and
    by _stores_dense A becomes a C-ordered float64 ndarray or a float64
    CSR matrix.  A stored ndarray comes back as the same object."""
    _check_real(A, "matrix")
    if not sp.issparse(A):
        A = np.asarray(A)
    if _stores_dense(A):
        return np.asarray(A.toarray() if sp.issparse(A) else A,
                          dtype=np.float64, order="C")
    return sp.csr_matrix(A, dtype=np.float64)


class PoleCollisionError(RuntimeError):
    """A shift zeta coincides with an eigenvalue: (zeta I - A) is singular."""


def _real_apply(op, X: np.ndarray) -> np.ndarray:
    """op(X) for a real linear operator op (a real sparse product or a
    real LU solve) and a complex X: the real and imaginary parts go
    through one real multi-column call, and the operator is never
    converted to complex."""
    W = op(np.column_stack((X.real, X.imag)))
    half = W.shape[1] // 2
    return (W[:, :half] + 1j * W[:, half:]).reshape(X.shape)


def _norm(x: np.ndarray) -> float:
    """||x||_2 by BLAS nrm2, which scales its sum of squares: a finite x
    past 1.3e154 has a finite norm, where np.linalg.norm's squared sum
    overflows with a RuntimeWarning.  NaN and inf give NaN and inf."""
    return float((dznrm2 if np.iscomplexobj(x) else dnrm2)(x))


def _gershgorin(B) -> tuple[float, float]:
    """Centre c and half-width a of an interval [c - a, c + a] that
    holds the spectrum of the symmetric B, sparse or dense, with
    ||B - cI||_2 <= a.

    Each disc's radius is the larger of its row's and its column's
    off-diagonal absolute sum, so that a bounds B - cI in the 1- and the
    inf-norm, and so in the 2-norm, also under the 1e-12 asymmetry that
    _check_symmetric admits.  a is widened by n units of roundoff, which
    covers the rounding of sums of at most n terms."""
    n = B.shape[0]
    if n == 0:
        return 0.0, 0.0
    d = B.diagonal()
    absB = abs(B)
    off = np.maximum(np.asarray(absB.sum(axis=0)).ravel(),
                     np.asarray(absB.sum(axis=1)).ravel()) - np.abs(d)
    lo = float(np.min(d - off))
    hi = float(np.max(d + off))
    c = 0.5 * (lo + hi)
    return c, max(hi - c, c - lo) * (1.0 + n * np.finfo(np.float64).eps)


class ShiftedSolveCache:
    """Solvers of (zeta I - A), one LU factorization per conjugate pair.

    Building a factorization is the dominant cost of a rational Krylov
    step; inside a time integrator the same pole set is reused at every
    step, so the cache is shared across calls.  A pair zeta, conj(zeta)
    shares the complex LU of its member with Im > 0, since the solve at
    conj(zeta) is conj((zeta I - A)^{-1} conj(b)); a real shift is
    factored in float64 and takes the complex right-hand side as two real
    columns.  Pairs share only when they are exact conjugates, which is
    what PoleSet counts as closed.

    The cache owns the operator: this is the one place that decides how A is
    stored, for the filter engines, sinc_apply, build_space and every other
    caller alike.  A complex A is refused before any float64 cast.  A is
    then stored in float64, as an ndarray when its order is at most
    _DENSE_ORDER or more than _DENSE_FILL of its entries are nonzero
    (stored entries of a sparse A, nonzero ones of an ndarray, counted
    against all of them) and as CSR otherwise, whichever storage it came
    in; an array that is not 2-D stays one, so that the check names its
    shape.  SecondOrderIVP stores its A by the same rule.  The stored
    matrix is checked (real, square, finite, symmetric: densefun's
    _check_symmetric), once, rather than on every space built with it.
    So the full FEM operator Atil of order 961, handed on as CSR, is
    stored dense: there SuperLU fills the LU completely anyway
    and took 0.18 s per complex shift against 0.06 s for LAPACK, and
    a product with 20 columns took 9.5 ms in CSC against 1.6 ms dense (one
    BLAS thread).  The synthetic problem of order 20 is stored dense by
    its order, and the 2D Laplacian of order 4096 as CSR.

    The order cutoff comes from these times, in microseconds, on
    n^2 laplacian_1d(n): a product with a vector, dense against CSR, and
    the LU of one complex shift and a solve with it, LAPACK against
    SuperLU (one BLAS thread, best of 5-7 repeats, a 2-vCPU Xeon
    guest):

        order   product       LU factor      solve
           16   1.9 / 6.7      68 / 337    11.2 / 15.7
           32   2.1 / 6.7     101 / 350    12.7 / 17.0
           64   2.7 / 7.0     258 / 386    16.7 / 18.3
           96   3.9 / 7.2     543 / 419    22.4 / 20.7
          128   4.9 / 7.7     756 / 441    28.3 / 21.9
          192   9.5 / 8.0    1673 / 477    44.0 / 25.0
          256  13.0 / 8.2    3441 / 506    68.8 / 27.5

    A random matrix 10% full and the 2D Laplacian gave the same products.
    The dense product wins up to order 128, but the dense LU and solve
    lose from order 96 on, so the cutoff is 64, where dense wins all
    three.  The filter engine's Chebyshev route makes only products (up
    to the cutoff, only while it builds the stored matrix of its
    polynomial at its first product), its near-pole route both.  Above
    the cutoff its products with a dense matrix are BLAS dsymv on the
    lower triangle, which reads half the matrix: 170 us against 292 us
    for B @ x at order 961, 40 against 76 us at 512, and within 10% of
    it at orders 64 and 225 (integrators._chebyshev_product has the
    table).  So a dense matrix is stored C-ordered, whose transpose
    dsymv takes without a copy; an F-ordered ndarray is copied once.  A
    sparse matrix is CSR rather than CSC: on 63^2 laplacian_2d(4096) a
    product took 37 us in CSR against 44 us in CSC, and storing a CSR
    input took 12 us as CSR against 169 us as CSC.

    A matrix stored sparse goes to SuperLU: the shifted matrices keep the
    symmetric pattern of A, so each is factored in a minimum-degree order on
    A^T + A, with SuperLU's default partial pivoting.  One stored dense goes
    to LAPACK's LU with partial pivoting (getrf), called as sla.lu_factor;
    an exactly singular shift (a zero pivot, getrf's info > 0) raises
    PoleCollisionError instead of lu_factor's LinAlgWarning.  It is LU and
    not the complex-symmetric LDL^T, which lost accuracy on the FEM operator
    (see the module docstring).  A dense solve permutes b by getrf's row
    interchanges and runs two BLAS trsv calls, unit lower then upper,
    instead of getrs, whose complex version took twice as long with one
    right-hand side (module docstring); the factor stays Fortran-contiguous,
    so the f2py wrapper passes it without a copy.
    """

    def __init__(self, A):
        self._A = _stored(A)
        skew = _check_symmetric(self._A)
        c, a = _gershgorin(self._A)
        self._interval = (c, a + self._A.shape[0] * skew)
        # zeta -> solver of (zeta I - A), for Im zeta >= 0
        self._solvers: dict[complex, Callable] = {}

    @property
    def matrix(self):
        return self._A

    @property
    def interval(self) -> tuple[float, float]:
        """(c, a): the spectrum of the matrix lies in [c - a, c + a].

        So does the spectrum of the matrix the filter engine's products
        apply, which for an ndarray is the symmetric completion L of its
        lower triangle (BLAS dsymv, see integrators._chebyshev_product).
        L differs from the stored B only above the diagonal, by at most
        skew = max|B - B^T| per entry, the asymmetry _check_symmetric
        admits (1e-12 of max|B|), so ||L - B||_2 <= n skew, and a is the
        Gershgorin half-width of B widened by n skew.  For an exactly
        symmetric B, as every benchmark operator is, skew = 0 and the
        interval is _gershgorin's, bit for bit."""
        return self._interval

    def _solver(self, zeta: complex) -> Callable:
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
        # Fortran order, so that getrf factors M in place and every trsv
        # call takes the factor without a copy
        M = np.negative(self._A, dtype=np.result_type(shift, self._A),
                        order="F")
        M[np.diag_indices_from(M)] += shift
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                lu, piv = sla.lu_factor(M, overwrite_a=True,
                                        check_finite=False)
            except sla.LinAlgWarning as exc:
                raise PoleCollisionError(
                    f"shift {shift} makes (zeta I - A) singular: {exc}"
                ) from exc
        # getrf's row interchanges, applied in order, as one permutation
        perm = np.arange(lu.shape[0])
        for i, p in enumerate(piv):
            perm[i], perm[p] = perm[p], perm[i]
        trsv = sla.get_blas_funcs("trsv", (lu,))

        def solve(b: np.ndarray) -> np.ndarray:
            if b.ndim == 2:
                return np.column_stack([solve(col) for col in b.T])
            y = trsv(lu, b[perm], lower=1, diag=1, overwrite_x=1)
            return trsv(lu, y, overwrite_x=1)

        return solve

    def solve(self, zeta: complex, b: np.ndarray) -> np.ndarray:
        """(zeta I - A)^{-1} b, complex."""
        zeta = complex(zeta)
        b = np.asarray(b, dtype=np.complex128)
        if zeta.imag < 0:
            x = self._solver(zeta.conjugate())(b.conj()).conj()
        elif zeta.imag > 0:
            x = self._solver(zeta)(b)
        else:
            x = _real_apply(self._solver(zeta), b)
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
    breakdown: bool = False

    @property
    def dim(self) -> int:
        return self.V.shape[1]


def _projected(A_m: np.ndarray, f, c: np.ndarray | None = None) -> np.ndarray:
    """f(A_m) c, c = e_1 by default, through an eigendecomposition of the
    Hermitian part of A_m."""
    lam, U = np.linalg.eigh(0.5 * (A_m + A_m.conj().T))
    Uc = U[0].conj() if c is None else U.conj().T @ c
    return U @ (np.asarray(f(lam)) * Uc)


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
    and otherwise at min(len(poles) + 1, n) or a breakdown.  Each check
    keeps u_m for the next, so only the first makes two m x m eigensolves.

    The basis and A_m are complex.  A_m is filled from one block
    product V[:, :m]^H A V[:, j:m] for the columns j.. added since the
    last fill, at each check and once at the end.

    When a cache is supplied it already owns the matrix, and its matrix
    (A in the cache's storage, see ShiftedSolveCache) is the one used;
    pass the same operator as A (it is only consulted when cache is
    None).
    """
    if cache is None:
        cache = ShiftedSolveCache(A)
    A = cache.matrix
    n = A.shape[0]
    _check_real(v, "seed vector")
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != n:
        raise ValueError(f"seed length {v.shape[0]} does not match order {n}")
    nrm = _norm(v)
    if not 0.0 < nrm < np.inf:
        raise ValueError(f"seed vector must be finite and nonzero, got norm {nrm}")
    if k is not None and k < 1:
        raise ValueError(f"space dimension must be >= 1, got {k}")
    if f is None:
        stop = min(len(poles) + 1 if k is None else k, n)
        check = stop + 1
    else:
        stop = min(len(poles) + 1, n)
        check = max(k or 2, 2)
    pole_list = list(poles.values) or [complex("inf")]

    def project(upto):
        """Columns done..upto-1 of A_k[:upto, :upto], from one product."""
        nonlocal done
        P = V[:, :upto].conj().T @ _real_apply(A.dot, V[:, done:upto])
        A_k[:upto, done:upto] = P
        A_k[done:upto, :upto] = P.conj().T
        done = upto

    # Fortran order keeps every leading block V[:, :m] contiguous
    V = np.zeros((n, stop), dtype=np.complex128, order="F")
    V[:, 0] = v / nrm
    A_k = np.empty((stop, stop), dtype=np.complex128)
    done = 0  # the columns of A_k filled so far
    u = None  # f(A_m) e_1 at the last check
    breakdown = False
    m = 1
    while True:
        if m >= check:
            project(m)
            u_prev = _projected(A_k[:m - 1, :m - 1], f) if u is None else u
            u = _projected(A_k[:m, :m], f)
            d = u.copy()
            d[:m - 1] -= u_prev
            if np.linalg.norm(d) <= _SETTLED_RTOL * np.linalg.norm(u):
                break
        if m == stop:
            break
        zeta = pole_list[(m - 1) % len(pole_list)]
        x = V[:, m - 1]
        w, w0 = _orthogonalize(_real_apply(A.dot, x) if cmath.isinf(zeta)
                               else cache.solve(zeta, x), V[:, :m])
        wn = float(np.linalg.norm(w))
        if wn <= _BREAKDOWN_RTOL * max(w0, 1e-300):
            breakdown = True
            break
        V[:, m] = w / wn
        m += 1
    project(m)
    return RationalKrylovSpace(V=V[:, :m], A_k=A_k[:m, :m].copy(),
                               poles=poles, breakdown=breakdown)


def _orthogonalize(w: np.ndarray, V: np.ndarray):
    """Classical Gram-Schmidt of w against the orthonormal columns of V,
    run twice: (w - V V^H w, ||w||)."""
    w0 = float(np.linalg.norm(w))
    for _ in range(2):
        # V^H w without materializing V^H
        w = w - V @ (w.conj() @ V).conj()
    return w, w0


def apply_function(space: RationalKrylovSpace, f, v: np.ndarray) -> np.ndarray:
    """Evaluate f(A) v through the projected problem of the given space.

    v must be the seed the space was built from (checked: its
    coefficient vector in the basis must be norm(v) e_1 to 1e-10).  f
    maps an eigenvalue array to function values, and acts through an
    eigendecomposition of the Hermitian part of A_k (_projected):
    A_k must be Hermitian up to roundoff, as build_space guarantees by
    projecting the certified symmetric matrix of a ShiftedSolveCache.

    When v is real and the pole set is closed under conjugation, the
    result is returned as float64 if its imaginary residue is at most
    1e-6 of its norm, as it is up to roundoff when the poles the space
    used (the first dim - 1 of the cyclic pole list) are closed too.
    Above that guard, a space cut inside a conjugate pair (by k or by
    settling) returns the complex result, and one whose used poles are
    closed raises FloatingPointError.
    """
    v = np.asarray(v).reshape(-1)
    c = (v.conj() @ space.V).conj()
    nrm = _norm(v)
    e1 = np.zeros_like(c)
    e1[0] = nrm
    if _norm(c - e1) > _SEED_RTOL * max(nrm, 1e-300):
        raise ValueError(
            "vector is not the seed of this space (projection deviates "
            "from norm(v) e_1); rebuild the space for this right-hand side"
        )
    y = space.V @ _projected(space.A_k, f, c)
    if np.isrealobj(v) and space.poles.is_conjugate_closed():
        scale = max(_norm(y), 1e-300)
        if _norm(y.imag) <= _REAL_GUARD_RTOL * scale:
            return np.ascontiguousarray(y.real)
        # the poles build_space consumed: the first dim - 1 of the cycle
        used = PoleSet(tuple(islice(cycle(space.poles), space.dim - 1)))
        if used.is_conjugate_closed():
            raise FloatingPointError(
                "imaginary residue exceeds guard although the poles of "
                "the space are conjugate closed; the space is "
                "numerically degenerate"
            )
    return y


def sinc_apply(A, v: np.ndarray, poles: PoleSet, k: int | None = None,
               cache: ShiftedSolveCache | None = None) -> np.ndarray:
    """sinc(A) v via a rational Krylov space on A with the given poles."""
    space = build_space(A, v, poles, k=k, cache=cache)
    return apply_function(space, sinc, v)
