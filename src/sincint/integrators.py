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
spectral estimate), or exponential sums on the dense eigendecomposition
or on one projected matrix per product.  make_filters builds the engine
once per (A, h); the steps only call its psi and sigma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .bounds import select_pole_count
from .densefun import sym_eigendecomposition
from .expsum import (ExpSumPlan, estimate_spectral_radius, expsum_sinc,
                     expsum_sinc2, scalar_sum_sinc, scalar_sum_sinc2)
from .krylov import ShiftedSolveCache, apply_function, build_space
from .poles import PoleSet, filter_poles, sinc_family
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


class BlowUpError(RuntimeError):
    """The discrete solution left the representable range (instability)."""


@dataclass
class SecondOrderIVP:
    """Second-order initial value problem y'' + A y = f(t).

    A is symmetric positive semidefinite (sparse or dense), y0 the
    initial position, y1 the initial velocity, forcing an optional map
    t -> vector.  The time window is [t0, tf].
    """

    A: object
    y0: np.ndarray
    y1: np.ndarray
    forcing: Callable[[float], np.ndarray] | None = None
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=np.float64).reshape(-1)
        self.y1 = np.asarray(self.y1, dtype=np.float64).reshape(-1)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.y0.shape != (n,) or self.y1.shape != (n,):
            raise ValueError("initial data do not match the matrix order")
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")

    @property
    def dim(self) -> int:
        return self.y0.shape[0]

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        w = -(self.A @ y)
        if self.forcing is not None:
            w = w + np.asarray(self.forcing(t), dtype=np.float64).reshape(-1)
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
    estimate_spectral_radius).  The sinc-plane poles zeta of the family
    are transported by filter_poles to zeta^2 for sigma and (2 zeta)^2
    for psi.

    In tol mode the bound is evaluated at the wrong argument: it bounds
    the sinc approximant on the sinc plane, |x| <= zmax, but receives
    the matrix-plane zmax = h^2 lambda_max (see select_pole_count).  The
    degree is too small below zmax = 1, so tol is then not guaranteed,
    and larger than needed above it.

    Each product grows its space one column at a time and stops at the
    first dimension where the last column moved the projected
    coefficients f(A_m) e_1 by at most 1e-13 relative (build_space with
    f), at a breakdown, or at the full len(poles) + 1 columns.  The check
    starts at 2 for a filter's first product and, for each later one, at
    the dimension where the filter's previous product stopped.  Shifts
    are factored when a product first reaches them, so set-up factors
    only the poles the first products use.  On lap2d (order 4096,
    h = 0.01, degree 8) a psi product takes 8 shifted solves instead of
    17, and the run factors 5 of the 9 LUs of the two pole sets.

    The engine stores h^2 A dense when more than half of its entries
    are nonzero (_DENSE_FILL), and as float64 CSC otherwise, and its
    ShiftedSolveCache factors the shifted matrices in that storage:
    LAPACK LU for the dense one, SuperLU for the sparse one (see the
    krylov module docstring, also for why LU and not LDL^T).  Of the
    benchmark operators only the full FEM Atil is kept dense; the 2D
    Laplacian (0.12% full) and the synthetic problem (23%) stay sparse.
    """

    family: str = "E"
    n: int | None = None
    tol: float | None = None

    def __post_init__(self):
        if (self.n is None) == (self.tol is None):
            raise ValueError("give exactly one of n (fixed degree) or tol")


@dataclass(frozen=True)
class ExpSumBackend:
    """Filters via exponential sums with nu nodes and k inner poles."""

    nu: int = 10
    k: int = 10
    inner: str = "krylov"


class _DenseFilters:
    """Filters as eigenvalue maps on one eigendecomposition of A."""

    pole_degree = 0

    def __init__(self, A, f_psi: Callable, f_sigma: Callable):
        lam, Q = sym_eigendecomposition(A)
        self._Q = Q
        self._psi = np.asarray(f_psi(lam))
        self._sigma = np.asarray(f_sigma(lam))

    def psi(self, w: np.ndarray) -> np.ndarray:
        return self._Q @ (self._psi * (self._Q.T @ w))

    def sigma(self, w: np.ndarray) -> np.ndarray:
        return self._Q @ (self._sigma * (self._Q.T @ w))


@functools.lru_cache(maxsize=None, typed=True)
def _filter_pole_sets(family: str, n: int) -> tuple[PoleSet, PoleSet]:
    """Matrix-plane (psi, sigma) poles of a sinc family at degree n,
    built once per process: PoleSet is frozen, so engines share them."""
    return filter_poles(sinc_family(family)(n))


# h^2 A is kept dense when more than this share of its entries is
# nonzero.  Above half fill CSR already takes more than 6 n^2 bytes (8
# for a value and 4 for its index) against 8 n^2 dense, and the LU of a
# shifted matrix fills in completely either way.  The FEM operator Atil
# is full; the 2D Laplacian of order 4096 is 0.12% full and the
# synthetic problem 23%.
_DENSE_FILL = 0.5


def _scaled_operator(A, c: float):
    """c A in float64: an ndarray when more than _DENSE_FILL of A is
    nonzero, CSC otherwise."""
    n = A.shape[0]
    nnz = A.nnz if sp.issparse(A) else np.count_nonzero(A)
    if nnz > _DENSE_FILL * n * n:
        dense = A.toarray() if sp.issparse(A) else A
        return np.asarray(dense, dtype=np.float64) * c
    return sp.csc_matrix(A, dtype=np.float64) * c


class _KrylovFilters:
    """Rational Krylov products that grow until they have settled (see
    RationalKrylovBackend); _dims holds the dimension where each
    filter's last product stopped."""

    def __init__(self, A, h: float, backend: RationalKrylovBackend):
        family = backend.family
        sinc_family(family)  # an unknown family fails before any estimate
        if backend.tol is not None:
            lam_max = estimate_spectral_radius(A)
            zmax = h * h * lam_max
            n = select_pole_count(family, zmax, backend.tol)
        else:
            n = backend.n
        self.pole_degree = n
        self._psi_poles, self._sigma_poles = _filter_pole_sets(family, n)
        self._cache = ShiftedSolveCache(_scaled_operator(A, h * h))
        self._B = self._cache.matrix
        self._dims: dict[Callable, int] = {}

    def _filter(self, w, poles, f):
        if np.linalg.norm(w) == 0.0:
            return np.zeros_like(w)
        space = build_space(self._B, w, poles, k=self._dims.get(f, 2),
                            cache=self._cache, f=f)
        self._dims[f] = space.dim
        return apply_function(space, f, w)

    def psi(self, w: np.ndarray) -> np.ndarray:
        return self._filter(w, self._psi_poles, psi_scalar)

    def sigma(self, w: np.ndarray) -> np.ndarray:
        return self._filter(w, self._sigma_poles, sigma_scalar)


def _sqrt_map(c: float) -> Callable:
    """lam -> c sqrt(lam): psi(h^2 lam) is sinc^2 of it at c = h/2,
    sigma(h^2 lam) sinc of it at c = h."""
    return lambda lam: c * np.sqrt(np.clip(lam, 0.0, None))


class _ExpSumFilters:
    """Exponential sums on one projected rational Krylov space per product."""

    def __init__(self, A, h: float, plan: ExpSumPlan):
        self._cache = ShiftedSolveCache(sp.csc_matrix(A, dtype=np.float64))
        self._A = self._cache.matrix
        self._plan = plan
        self._mu_psi, self._mu_sigma = _sqrt_map(0.5 * h), _sqrt_map(h)
        self.pole_degree = plan.k

    def _filter(self, w, expsum_fn, eig_map):
        if np.linalg.norm(w) == 0.0:
            return np.zeros_like(w)
        return expsum_fn(self._A, w, self._plan, eig_map=eig_map,
                         cache=self._cache)

    def psi(self, w: np.ndarray) -> np.ndarray:
        return self._filter(w, expsum_sinc2, self._mu_psi)

    def sigma(self, w: np.ndarray) -> np.ndarray:
        return self._filter(w, expsum_sinc, self._mu_sigma)


class _IdentityFilters:
    """psi = sigma = identity: the classical leapfrog limit."""

    pole_degree = 0

    def psi(self, w: np.ndarray) -> np.ndarray:
        return w

    def sigma(self, w: np.ndarray) -> np.ndarray:
        return w


def make_filters(A, h: float, backend):
    """Instantiate the filter engine for a backend descriptor.

    The engine owns whatever factorizations or eigendecompositions the
    backend needs, so it is built once per (A, h) and shared across all
    steps of a run.
    """
    if hasattr(backend, "psi") and hasattr(backend, "sigma"):
        return backend
    if isinstance(backend, DenseBackend):
        return _DenseFilters(A, lambda lam: psi_scalar(h * h * lam),
                             lambda lam: sigma_scalar(h * h * lam))
    if isinstance(backend, RationalKrylovBackend):
        return _KrylovFilters(A, h, backend)
    if isinstance(backend, ExpSumBackend):
        plan = ExpSumPlan(nu=backend.nu, inner=backend.inner, k=backend.k)
        if plan.inner == "krylov":
            return _ExpSumFilters(A, h, plan)
        mu_psi, mu_sigma = _sqrt_map(0.5 * h), _sqrt_map(h)
        return _DenseFilters(A,
                             lambda lam: scalar_sum_sinc2(mu_psi(lam), plan.nu),
                             lambda lam: scalar_sum_sinc(mu_sigma(lam), plan.nu))
    raise TypeError(f"unknown backend {backend!r}")


# --------------------------------------------------------------------------
# stepping


def _check_finite(y: np.ndarray, n: int, t: float) -> None:
    if not np.all(np.isfinite(y)) or np.linalg.norm(y) > _NORM_CAP:
        raise BlowUpError(
            f"solution norm left the representable range at step {n}, t={t:g}"
        )


def gautschi_init(ivp: SecondOrderIVP, h: float, engine) -> IntegratorState:
    """Form the staggered initial state (y_0, v_{1/2}); engine comes
    from make_filters(ivp.A, h, backend)."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    w = ivp.rhs(ivp.t0, ivp.y0)
    v_half = 0.5 * h * engine.psi(w)
    if np.linalg.norm(ivp.y1) > 0.0:
        v_half = v_half + engine.sigma(ivp.y1)
    return IntegratorState(n=0, t=ivp.t0, h=h, y=ivp.y0.copy(), v_half=v_half)


def gautschi_step(state: IntegratorState, ivp: SecondOrderIVP,
                  engine) -> IntegratorState:
    """Advance one step with the engine of (ivp.A, state.h): exactly one
    psi product and one product with A."""
    h = state.h
    y_next = state.y + h * state.v_half
    t_next = state.t + h
    _check_finite(y_next, state.n + 1, t_next)
    w = ivp.rhs(t_next, y_next)
    v_next = state.v_half + h * engine.psi(w)
    return IntegratorState(n=state.n + 1, t=t_next, h=h, y=y_next,
                           v_half=v_next)


def _step_count(ivp: SecondOrderIVP, h: float) -> int:
    span = ivp.tf - ivp.t0
    n = int(round(span / h))
    if n < 1 or abs(n * h - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(
            f"step {h} does not divide the window [{ivp.t0}, {ivp.tf}]"
        )
    return n


def gautschi_integrate(ivp: SecondOrderIVP, h: float, backend) -> Trajectory:
    """Run the scheme over [t0, tf] and record the full trajectory;
    backend is a backend descriptor or an engine from make_filters."""
    engine = make_filters(ivp.A, h, backend)
    n_steps = _step_count(ivp, h)
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
    return gautschi_integrate(ivp, h, _IdentityFilters())


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
