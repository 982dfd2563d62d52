"""Gautschi-type one-step scheme for y'' + A y = f(t), staggered form.

A single step advances the pair (y_n, v_{n+1/2}) with two filters that
are functions of h^2 A:

    v_{1/2}   = sigma(h^2 A) y'(0) + (h/2) psi(h^2 A) (-A y_0 + f_0)
    y_{n+1}   = y_n + h v_{n+1/2}
    v_{n+3/2} = v_{n+1/2} + h psi(h^2 A) (-A y_{n+1} + f_{n+1})

with psi(z) = sinc(sqrt(z)/2)^2 and sigma(z) = sinc(sqrt(z)).  One psi
product and one matrix-vector product per step.  With psi = sigma = 1
the scheme degenerates to the classical leapfrog update, which is also
provided for comparison.

Filters are evaluated by interchangeable backends: a dense spectral
oracle, rational Krylov spaces with mapped pole families (optionally
sized automatically from the a-priori bounds and a power-iteration
spectral estimate; a filter whose poles all lie far from the spectrum
is a certified Chebyshev expansion instead), or exponential sums, the
Gauss-Legendre quadratures of psi and sigma applied on the dense
eigendecomposition.  make_filters builds the engine and picks its
products once per (A, h); the steps only call its psi and sigma.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, dnrm2, dsymv

from . import krylov
from .bounds import select_pole_count
from .densefun import _check_real, _check_symmetric, sym_eigendecomposition
from .expsum import (estimate_spectral_radius, scalar_sum_sinc,
                     scalar_sum_sinc2)
# perfbench/spans.py wraps these two by name in this module
from .expsum import expsum_sinc, expsum_sinc2  # noqa: F401
from .krylov import ShiftedSolveCache, apply_function, build_space
from .poles import _MAX_DEGREE, PoleSet, filter_poles, sinc_family
from .special import _check_count
from .special import psi as psi_scalar
from .special import sigma as sigma_scalar

__all__ = [
    "BlowUpError",
    "SecondOrderIVP",
    "IntegratorState",
    "Trajectory",
    "DenseBackend",
    "RationalKrylovBackend",
    "ExpSumBackend",
    "make_filters",
    "gautschi_init",
    "gautschi_step",
    "gautschi_integrate",
    "stormer_verlet_integrate",
    "discrete_energy",
]

_NORM_CAP = 1e150
# a pole zeta of a filter is far from the spectrum of h^2 A, inside
# [c - a, c + a], when a <= _FAR_POLE_RATIO |zeta - c|: at least 59.5
# half-widths away (RationalKrylovBackend)
_FAR_POLE_RATIO = 0.0168
_INF = complex(cmath.inf, 0.0)
# rho of the Bernstein ellipses _chebyshev_degree bounds a filter on.
# Each gives a valid bound; the grid runs from the rho near 1 that wide
# intervals want to the 4e16 that certifies degree 0 on a tiny one, and
# consecutive values of rho - 1 differ by 13%
_RHO = 1.0 + np.geomspace(1e-3, 1e18, 400)
# filter -> (s, p) with filter(z) = sinc(s sqrt z)^p
_SINC_FORM = {psi_scalar: (0.5, 2), sigma_scalar: (1.0, 1)}


class BlowUpError(RuntimeError):
    """The discrete solution left the representable range (instability)."""


@dataclass
class SecondOrderIVP:
    """Second-order initial value problem y'' + A y = f(t).

    A is symmetric positive semidefinite (sparse or dense), y0 the
    initial position, y1 the initial velocity, forcing an optional map
    t -> vector.  The time window [t0, tf] is finite.  A, y0, y1 and
    every forcing value must be real: complex ones are refused before
    the float64 cast, which would drop their imaginary parts.

    A is stored by the rule of ShiftedSolveCache: as a C-ordered
    float64 ndarray when its order is at most krylov._DENSE_ORDER (64)
    or more than half of its entries are nonzero, otherwise as CSR; a
    sparse A that the rule leaves sparse is kept in the format it was
    given, in float64 (the same object when it is float64 already), so
    that every product rhs makes is float64.  rhs applies an ndarray by
    BLAS dsymv on its lower triangle, as the filter engine does
    (integrators._chebyshev_product), so an A stored dense is checked
    once, by densefun's _check_symmetric (real, finite, symmetric to
    1e-12): on a nonsymmetric A dsymv would silently apply another
    operator.  rhs took 1.6 us at order 20 against 4.2 us for the CSR
    product, and 0.18 ms at order 961, the full FEM operator, against
    0.74 ms (one BLAS thread).  wave_demo_problem hands that operator in
    as an ndarray view of its CSR values, which is stored without a
    copy.

    rhs guards its input at the cost of its arithmetic.  With A stored
    dense, a state that is a float64 ndarray of shape (n,) passes with
    one type, dtype and shape test (_is_vector); any other state is
    refused when complex, cast to float64 and refused when not of shape
    (n,).  A forcing value that is a float64 ndarray skips the realness
    check and the cast that any other value takes; every value must
    have n entries, and is finite exactly when its BLAS nrm2 is, since
    nrm2 scales its sum of squares.  It is added in place into the
    product rhs has just made, which rounds as w + g does.
    Microseconds per piece of rhs on synthetic_problem(20), float64
    state and forcing, against the full guard that other inputs take
    (one BLAS thread, best of 9 x 20000 calls, a 2-vCPU Xeon guest):

        piece                     float64 vector   full guard
        state guard                    0.24           0.5
        dsymv                          0.45
        forcing call (np.full)         1.05
        forcing guard                  0.53           2.0
        adding the forcing             0.42
        rhs in all                     3.3
    """

    A: object
    y0: np.ndarray
    y1: np.ndarray
    forcing: Callable[[float], np.ndarray] | None = None
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        for x, what in ((self.A, "matrix"), (self.y0, "y0"), (self.y1, "y1")):
            _check_real(x, what)
        self.y0 = np.asarray(self.y0, dtype=np.float64).reshape(-1)
        self.y1 = np.asarray(self.y1, dtype=np.float64).reshape(-1)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if sp.issparse(self.A) and not krylov._stores_dense(self.A):
            self.A = self.A.astype(np.float64, copy=False)
        else:
            self.A = krylov._stored(self.A)
            if isinstance(self.A, np.ndarray):
                _check_symmetric(self.A)
        if self.y0.shape != (n,) or self.y1.shape != (n,):
            raise ValueError("initial data do not match the matrix order")
        if not (np.all(np.isfinite(self.y0)) and np.all(np.isfinite(self.y1))):
            raise ValueError("initial data y0 and y1 must be finite")
        if not (np.isfinite(self.t0) and np.isfinite(self.tf)):
            raise ValueError(
                f"time window must be finite, got [{self.t0}, {self.tf}]")
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")

    @property
    def dim(self) -> int:
        return self.y0.shape[0]

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        if isinstance(self.A, np.ndarray):
            if not _is_vector(y, self.dim):
                _check_real(y, "state")
                y = np.asarray(y, dtype=np.float64)
                if y.shape != (self.dim,):
                    raise ValueError(
                        f"state has shape {y.shape}, not {(self.dim,)}")
            w = dsymv(-1.0, self.A.T, y)
        else:
            w = -(self.A @ y)
        if self.forcing is not None:
            g = self.forcing(t)
            if type(g) is not np.ndarray or g.dtype != np.float64:
                _check_real(g, "forcing")
                g = np.asarray(g, dtype=np.float64)
            if g.size != w.size:
                raise ValueError(
                    f"forcing at t={t:g} has shape {g.shape}, not {w.shape}")
            g = g.reshape(-1)
            # nrm2 scales its sum, so it is finite exactly when g is
            if not math.isfinite(dnrm2(g)):
                raise ValueError(f"forcing is not finite at t={t:g}")
            w += g
        return w


@dataclass
class IntegratorState:
    """Staggered state after n steps: y at t, velocity at t + h/2."""

    n: int
    t: float
    h: float
    y: np.ndarray
    v_half: np.ndarray


@dataclass
class Trajectory:
    """Recorded run: times (N+1,), states (N+1, d), v_half (N+1, d).

    v_half[n] holds the staggered velocity v_{n+1/2}; the last row is
    the velocity half a step beyond the final time, which the centered
    energy diagnostic needs.
    """

    times: np.ndarray
    states: np.ndarray
    v_half: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


# --------------------------------------------------------------------------
# filter backends


@dataclass(frozen=True)
class DenseBackend:
    """Spectral filters through a dense eigendecomposition of A."""


@dataclass(frozen=True)
class RationalKrylovBackend:
    """Filters via rational Krylov spaces on h^2 A with mapped poles.

    Either fix the family degree n, or give tol to let the a-priori
    bound pick the smallest degree whose bound on [0, h^2 lambda_max]
    is below tol (lambda_max from the power-iteration estimate
    estimate_spectral_radius); a selected degree above 20, the largest
    the families are built to, raises ValueError.  The sinc-plane poles
    zeta of the family are transported by filter_poles to zeta^2 for
    sigma and (2 zeta)^2 for psi.  An unknown family or a degree that
    is not a positive integer is refused when the descriptor is made.

    In tol mode the bound is evaluated at the wrong argument: it bounds
    the sinc approximant on the sinc plane, |x| <= zmax, but receives
    the matrix-plane zmax = h^2 lambda_max (see select_pole_count).  The
    degree is too small below zmax = 1, so tol is then not guaranteed,
    and larger than needed above it.

    The engine hands h^2 A to a ShiftedSolveCache, which decides how it
    is stored, checks it and solves its shifted matrices (see
    ShiftedSolveCache for the storage rule, and the krylov module
    docstring for why LU and not LDL^T, and why trsv and not getrs);
    tol mode estimates the spectral radius of that stored matrix.  Of
    the benchmark operators the full FEM Atil is stored dense by its
    fill and the synthetic operator of order 20 by its order; the 2D
    Laplacian of order 4096 is stored CSR.

    Each filter's route is chosen once, when the engine is made, from
    its poles and the Gershgorin interval [c - a, c + a] of h^2 A
    (ShiftedSolveCache.interval):

    - A pole zeta far from the spectrum, a <= 0.0168 |zeta - c|, at
      least 59.5 half-widths out, becomes the infinity sentinel.  There
      the Neumann series of the solve about c reaches unit roundoff in
      8 terms, so the solve adds nothing a product with h^2 A would
      not: a pole at infinity is the polynomial step of the same
      rational Krylov method (Guttel, GAMM-Mitt. 36, 2013).  E's origin
      is the sentinel at every step, since E_n's numerator vanishes at
      0 (_filter_pole_sets).  So the engine never factors h^2 A, and a
      singular PSD operator such as a Neumann Laplacian works at every
      step.
    - A filter whose poles are then all infinite is a polynomial in
      h^2 A: its Chebyshev expansion on [c - a, c + a], at the least
      degree the Bernstein-ellipse bound certifies to 2^-53
      (_chebyshev_degree), run as the three-term recurrence on the
      stored h^2 A, one real product with it (BLAS dsymv on the lower
      triangle of an ndarray) and three in-place vector updates per
      degree and no Krylov space (Hochbruck and Lubich,
      Numer. Math. 83, 1999).  When h^2 A is stored as an ndarray of
      order at most krylov._DENSE_ORDER, the filter's first product
      instead computes the coefficients, runs the recurrence once on
      n x n blocks and keeps the matrix P = p(h^2 A), and every product
      is one P @ w: at order 20 a product took about 2 us against 10-18
      us for the recurrence, and P took 50-100 us to build (175-425 us
      at order 64).  A filter that is never called computes nothing,
      as sigma on a run with zero initial velocity.
    - A filter with a near pole grows a space one column at a time and
      stops at the first dimension where the last column moved the
      projected coefficients f(A_m) e_1 by at most 1e-13 relative
      (build_space with f), at a breakdown, or at the full len(poles) +
      1 columns.  The check starts at 2 for the filter's first product
      and, for each later one, at the dimension where its previous
      product stopped.  Shifts are solved when a product first reaches
      them, so set-up factors nothing.

    Both routes compute a real input of any dtype or layout in float64
    and leave it as it was, and refuse a complex one, or one whose
    length is not the order, as build_space does.
    """

    family: str = "E"
    n: int | None = None
    tol: float | None = None

    def __post_init__(self):
        if (self.n is None) == (self.tol is None):
            raise ValueError("give exactly one of n (fixed degree) or tol")
        sinc_family(self.family)
        if self.n is not None:
            _check_count(self.n, "degree")


@dataclass(frozen=True)
class ExpSumBackend:
    """Filters via nu-node exponential sums on one eigendecomposition of
    A: psi(h^2 lam) is the sinc^2 sum at (h/2) sqrt(lam), sigma(h^2 lam)
    the sinc sum at h sqrt(lam)."""

    nu: int = 10

    def __post_init__(self):
        _check_count(self.nu, "nu")


@dataclass
class _Filters:
    """The filter engine of one (A, h): its psi and sigma products, each
    picked once by make_filters, and the family degree of the poles
    (0 for the dense, exp-sum and leapfrog engines).  The products are
    called through methods, so that a wrapper set on an engine's psi or
    sigma can be deleted again to restore it."""

    _psi: Callable[[np.ndarray], np.ndarray]
    _sigma: Callable[[np.ndarray], np.ndarray]
    pole_degree: int = 0

    def psi(self, w: np.ndarray) -> np.ndarray:
        return self._psi(w)

    def sigma(self, w: np.ndarray) -> np.ndarray:
        return self._sigma(w)


def _eigen_maps(A, f_psi: Callable, f_sigma: Callable) -> _Filters:
    """Filters as eigenvalue maps on one eigendecomposition of A."""
    lam, Q = sym_eigendecomposition(A)

    def product(g):
        return lambda w: Q @ (g * (Q.T @ w))

    return _Filters(product(np.asarray(f_psi(lam))),
                    product(np.asarray(f_sigma(lam))))


@functools.lru_cache(maxsize=None, typed=True)
def _filter_pole_sets(family: str, n: int) -> tuple[PoleSet, PoleSet]:
    """filter_poles of a sinc family at degree n, with E's origin, a
    removable singularity of E_n, as the infinity sentinel.  Built once
    per process: PoleSet is frozen, so engines share them."""
    return tuple(replace(poles, values=tuple(zeta or _INF for zeta in poles))
                 for poles in filter_poles(sinc_family(family)(n)))


def _far_poles_to_infinity(poles: PoleSet, c: float, a: float) -> PoleSet:
    """poles with every pole zeta far from [c - a, c + a], a <=
    _FAR_POLE_RATIO |zeta - c|, replaced by the infinity sentinel (E's
    removable origin is one already); the same object if none is far."""
    far = replace(poles, values=tuple(
        _INF if a <= _FAR_POLE_RATIO * abs(zeta - c) else zeta
        for zeta in poles))
    return poles if far.values == poles.values else far


def _chebyshev_degree(f, c: float, a: float) -> int:
    """The least degree n for which the Chebyshev interpolant of the
    filter f on [c - a, c + a], a > 0, is certified to 2^-53: 4 M rho^-n
    / (rho - 1) <= 2^-53 at some rho of _RHO, with M >= |f| on the
    Bernstein ellipse E_rho (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2).  E_rho lies in |z| <= R = |c| +
    a (rho + 1/rho) / 2, and |sinc w| <= sinh|w| / |w|, so f = sinc(s
    sqrt z)^p has M = (sinh x / x)^p at x = s sqrt R, taken in log form
    so that sinh never overflows."""
    s, p = _SINC_FORM[f]
    x = s * np.sqrt(abs(c) + 0.5 * a * (_RHO + 1.0 / _RHO))
    log_m = p * (x + np.log(-np.expm1(-2.0 * x) / (2.0 * x)))
    log_bound = np.log(4.0) + log_m - np.log(_RHO - 1.0) + 53 * np.log(2.0)
    return max(0, int(np.ceil(np.min(log_bound / np.log(_RHO)))))


def _chebyshev_coefficients(f, c: float, a: float) -> np.ndarray:
    """Coefficients of the Chebyshev expansion of f on [c - a, c + a],
    at _chebyshev_degree: the DCT-II of f at 2(n + 1) first-kind
    Chebyshev points, truncated to degree n.  The truncated tail and the
    aliasing each add at most 2 M rho^-n / (rho - 1), so the 4 M bound
    holds.  [f(c)] when a = 0."""
    if a == 0.0:
        return np.array([f(np.float64(c))])
    n_pts = 2 * (_chebyshev_degree(f, c, a) + 1)
    x = np.cos(np.pi * (np.arange(n_pts) + 0.5) / n_pts)
    coef = scipy.fft.dct(f(c + a * x), type=2)[:n_pts // 2] / n_pts
    coef[0] *= 0.5
    return coef


def _is_vector(x, n: int) -> bool:
    """Whether x is a float64 ndarray of shape (n,): such a vector passes
    the input guards of rhs and of a stored filter matrix with this one
    test, and any other input takes the full guard."""
    return type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)


def _seed(w, n: int) -> np.ndarray:
    """w as a new float64 vector, which a product may overwrite.  Every
    route of the rational engine takes its input through it, so each
    computes in float64 and refuses, as build_space does, a complex w
    and one whose length is not the order n (BLAS dsymv would read only
    the first n entries of a longer one).  A stored filter matrix,
    which never writes its input, passes a float64 vector of the order
    on as it is."""
    _check_real(w, "seed vector")
    w = np.array(w, dtype=np.float64).reshape(-1)
    if w.shape != (n,):
        raise ValueError(f"seed length {w.shape[0]} does not match order {n}")
    return w


def _chebyshev_product(B, c: float, a: float, coef: np.ndarray) -> Callable:
    """w -> sum_k coef[k] T_k(X) w with X = (B - cI) / a: the three-term
    recurrence, one product with B per degree, run on B itself.

    Its two buffers hold s_k = (-1)^floor(k/2) T_k(X) w, whose recurrence
    s_{k+1} = s_{k-1} + (-1)^k 2 X s_k overwrites s_{k-1} by two BLAS
    axpy calls, with B s_k and with s_k; a third adds coef[k + 1] T_{k+1}
    to the result, the sign of s_{k+1} folded into the coefficient.  The
    signs spare the pass that negating T_{k-1} would take, so a degree
    costs B s_k and three vector passes, and allocates only the
    product; the first buffer is _seed's copy of w.  axpy's return value
    is always used: it is a new array when its y is not contiguous
    float64.

    B s_k is B @ s_k for a sparse B, and for an ndarray BLAS dsymv on its
    lower triangle, the triangle np.linalg.eigh reads too: dsymv reads
    the upper triangle of its default argument, here B^T, which is
    F-contiguous, so f2py passes it without a copy, for the C-contiguous
    B that ShiftedSolveCache stores (a copy took 1.6 ms per call at
    order 961).  It reads half of the matrix where B @ s reads all of
    it; ShiftedSolveCache.interval holds the spectrum of the matrix it
    applies.  Microseconds per product with a vector, dsymv against
    numpy's B @ x (gemv), one BLAS thread, best of 7 repeats on a
    2-vCPU Xeon guest, whose load moved single timings by up to 30%:

        order   dsymv   B @ x
           20     0.6     1.1
           64     1.5     1.6
          225     8.4     8.8
          512      40      76
          961     170     292

    Up to order 64 the engine keeps the matrix of the polynomial
    instead (_materialized_product)."""
    if isinstance(B, np.ndarray):
        matvec = functools.partial(dsymv, 1.0, B.T)
    else:
        matvec = B.__matmul__
    steps = []  # per degree: the factors of B s_k and of s_k, the coefficient
    for k in range(1, len(coef) - 1):
        alpha = (-1) ** k * 2.0 / a
        steps.append((alpha, -alpha * c, (-1) ** ((k + 1) // 2) * coef[k + 1]))

    def product(w):
        s_prev = _seed(w, B.shape[0])
        y = coef[0] * s_prev
        if len(coef) > 1:
            s = daxpy(s_prev, matvec(s_prev), None, -c)
            s *= 1.0 / a
            y = daxpy(s, y, None, coef[1])
            for alpha, beta, gamma in steps:
                s_prev = daxpy(matvec(s), s_prev, None, alpha)
                s_prev = daxpy(s, s_prev, None, beta)
                y = daxpy(s_prev, y, None, gamma)
                s_prev, s = s, s_prev
        return y

    return product


def _chebyshev_matrix(B: np.ndarray, c: float, a: float,
                      coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(X) with X = (B - cI) / a, for an ndarray B: the
    recurrence of _chebyshev_product run on n x n blocks.  X is formed
    only when len(coef) > 1, so a = 0 gives coef[0] I without a
    division."""
    eye = np.eye(B.shape[0])
    P = coef[0] * eye
    if len(coef) > 1:
        X = (B - c * eye) / a
        T_prev, T = eye, X
        P += coef[1] * X
        for ck in coef[2:]:
            T_prev, T = T, 2.0 * (X @ T) - T_prev
            P += ck * T
    return P


def _materialized_product(B: np.ndarray, c: float, a: float,
                          f: Callable) -> Callable:
    """w -> P w with P = _chebyshev_matrix(B, c, a, coef) on the
    _chebyshev_coefficients of f, both computed at the first product.
    A float64 vector of the order goes straight to P @ w, which never
    writes w; any other input goes through _seed (0.98 us of copy
    and checks at order 20, against 1.35 us for the whole product)."""
    P = None

    def product(w):
        nonlocal P
        if not _is_vector(w, B.shape[0]):
            w = _seed(w, B.shape[0])
        if P is None:
            P = _chebyshev_matrix(B, c, a, _chebyshev_coefficients(f, c, a))
        return P @ w

    return product


def _settling_product(cache: ShiftedSolveCache, poles: PoleSet,
                      f: Callable) -> Callable:
    """w -> f(B) w on a rational Krylov space of cache.matrix that grows
    until it has settled, checked from the dimension where the previous
    product stopped (2 for the first; see RationalKrylovBackend)."""
    dim = 2

    def product(w):
        nonlocal dim
        w = _seed(w, cache.matrix.shape[0])
        if not np.any(w):
            return np.zeros_like(w)
        space = build_space(cache.matrix, w, poles, k=dim, cache=cache, f=f)
        dim = space.dim
        return apply_function(space, f, w)

    return product


def _rational_filters(A, h: float, backend: RationalKrylovBackend) -> _Filters:
    """The engine of a RationalKrylovBackend; its docstring gives the
    route of each filter."""
    # stored first, so that h^2 scales the stored values: a full CSR A
    # is densified once, not scaled and copied as CSR before that
    cache = ShiftedSolveCache(h * h * krylov._stored(A))
    n = backend.n
    if n is None:
        zmax = estimate_spectral_radius(cache.matrix)
        n = select_pole_count(backend.family, zmax, backend.tol)
        if n > _MAX_DEGREE:
            raise ValueError(
                f"tol={backend.tol:g} at zmax={zmax:g} selects degree {n}, "
                "but the pole families are built only up to degree "
                f"{_MAX_DEGREE}; use a smaller h or a fixed degree")
    B = cache.matrix
    c, a = cache.interval
    small = isinstance(B, np.ndarray) and B.shape[0] <= krylov._DENSE_ORDER

    def route(poles, f):
        poles = _far_poles_to_infinity(poles, c, a)
        if not all(cmath.isinf(zeta) for zeta in poles):
            return _settling_product(cache, poles, f)
        if small:
            return _materialized_product(B, c, a, f)
        return _chebyshev_product(B, c, a, _chebyshev_coefficients(f, c, a))

    return _Filters(*map(route, _filter_pole_sets(backend.family, n),
                         (psi_scalar, sigma_scalar)), pole_degree=n)


def _identity(w: np.ndarray) -> np.ndarray:
    return w


def _check_step(h: float) -> None:
    if not 0 < h < np.inf:
        raise ValueError(f"step size h must be finite and positive, got {h}")


def make_filters(A, h: float, backend):
    """Instantiate the filter engine for a backend descriptor.

    The engine owns whatever factorizations or eigendecompositions the
    backend needs, so it is built once per (A, h) and shared across all
    steps of a run.  A step h that is not finite and positive is
    refused before any engine is built.
    """
    _check_step(h)
    if hasattr(backend, "psi") and hasattr(backend, "sigma"):
        return backend
    if isinstance(backend, DenseBackend):
        return _eigen_maps(A, lambda lam: psi_scalar(h * h * lam),
                           lambda lam: sigma_scalar(h * h * lam))
    if isinstance(backend, RationalKrylovBackend):
        return _rational_filters(A, h, backend)
    if isinstance(backend, ExpSumBackend):
        nu = backend.nu

        def root(lam):
            return np.sqrt(np.clip(lam, 0.0, None))

        return _eigen_maps(A,
                           lambda lam: scalar_sum_sinc2(0.5 * h * root(lam), nu),
                           lambda lam: scalar_sum_sinc(h * root(lam), nu))
    raise TypeError(f"unknown backend {backend!r}")


# --------------------------------------------------------------------------
# stepping


def _check_finite(y: np.ndarray, n: int, t: float) -> None:
    """BlowUpError unless ||y|| <= _NORM_CAP: one BLAS nrm2
    (krylov._norm), which scales its sum of squares, so a finite y past
    about 1.3e154 has a finite norm above the cap, and NaN and inf fail
    the same comparison.  It never warns, so it needs no np.errstate.
    Microseconds at order 20 (one BLAS thread, best of 9 x 20000
    calls, a 2-vCPU Xeon guest):

        krylov._norm and the comparison               0.5
          of which BLAS dnrm2                         0.13
        np.linalg.norm inside np.errstate             2.4
    """
    if not krylov._norm(y) <= _NORM_CAP:
        raise BlowUpError(
            f"solution norm left the representable range at step {n}, t={t:g}"
        )


def gautschi_init(ivp: SecondOrderIVP, h: float, engine) -> IntegratorState:
    """Form the staggered initial state (y_0, v_{1/2}); engine comes
    from make_filters(ivp.A, h, backend)."""
    _check_step(h)
    w = ivp.rhs(ivp.t0, ivp.y0)
    v_half = 0.5 * h * engine.psi(w)
    if np.any(ivp.y1):
        v_half = v_half + engine.sigma(ivp.y1)
    return IntegratorState(n=0, t=ivp.t0, h=h, y=ivp.y0.copy(), v_half=v_half)


def gautschi_step(state: IntegratorState, ivp: SecondOrderIVP,
                  engine) -> IntegratorState:
    """Advance one step with the engine of (ivp.A, state.h): exactly one
    psi product and one product with A.

    Every guard of a step runs on every step, on one code path, at the
    cost of its arithmetic: the vectors the step makes are float64 of
    the order, which pass the guards of rhs and of a stored filter
    matrix with one test each.  Microseconds per piece on
    synthetic_problem(20) at h = 0.01, ratkrylov:E:1e-12, where psi is
    one stored matrix (one BLAS thread, best of 9 x 20000 calls, a
    2-vCPU Xeon guest):

        y + h v                          0.9
        _check_finite                    0.5
        rhs (forcing call 1.05)          3.3
        psi: P @ w                       1.35
        v + h psi                        0.95
        IntegratorState                  0.5
        gautschi_step in all             8.3

    With the full guards on every vector (np.errstate around the norm,
    _check_real and a float64 cast of state and forcing, np.isfinite on
    every forcing entry, _seed's copy of w) the step took 14.0.
    """
    h = state.h
    y_next = state.y + h * state.v_half
    t_next = state.t + h
    _check_finite(y_next, state.n + 1, t_next)
    w = ivp.rhs(t_next, y_next)
    v_next = state.v_half + h * engine.psi(w)
    return IntegratorState(n=state.n + 1, t=t_next, h=h, y=y_next,
                           v_half=v_next)


def _step_count(ivp: SecondOrderIVP, h: float) -> int:
    _check_step(h)
    # Python floats, which overflow to inf without numpy's RuntimeWarning
    span = float(ivp.tf) - float(ivp.t0)
    steps = span / float(h)
    if not np.isfinite(steps):
        raise ValueError(f"step {h} over the window [{ivp.t0}, {ivp.tf}] "
                         "gives a step count that is not finite")
    n = int(round(steps))
    if n < 1 or abs(n * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(
            f"step {h} does not divide the window [{ivp.t0}, {ivp.tf}]"
        )
    return n


def gautschi_integrate(ivp: SecondOrderIVP, h: float, backend) -> Trajectory:
    """Run the scheme over [t0, tf] and record the full trajectory;
    backend is a backend descriptor or an engine from make_filters."""
    n_steps = _step_count(ivp, h)
    engine = make_filters(ivp.A, h, backend)
    d = ivp.dim
    times = ivp.t0 + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, d))
    v_half = np.empty((n_steps + 1, d))
    state = gautschi_init(ivp, h, engine)
    states[0] = state.y
    v_half[0] = state.v_half
    for i in range(n_steps):
        state = gautschi_step(state, ivp, engine)
        states[i + 1] = state.y
        v_half[i + 1] = state.v_half
    return Trajectory(times=times, states=states, v_half=v_half)


def stormer_verlet_integrate(ivp: SecondOrderIVP, h: float) -> Trajectory:
    """Classical leapfrog run (the psi = sigma = 1 limit of the scheme)."""
    return gautschi_integrate(ivp, h, _Filters(_identity, _identity))


def discrete_energy(traj: Trajectory, A, v0: np.ndarray | None = None
                    ) -> np.ndarray:
    """Centered discrete energy 1/2 |v_n|^2 + 1/2 y_n^T A y_n along a run.

    The staggered velocities are averaged to the integer grid,
    v_n = (v_{n-1/2} + v_{n+1/2}) / 2; at n = 0 the exact initial
    velocity can be supplied, otherwise v_{1/2} stands in for it.
    """
    v = np.empty_like(traj.v_half)
    v[0] = traj.v_half[0] if v0 is None else v0
    v[1:] = 0.5 * (traj.v_half[:-1] + traj.v_half[1:])
    y = traj.states
    return 0.5 * np.sum(v * v, axis=1) + 0.5 * np.sum(y * (A @ y.T).T, axis=1)
