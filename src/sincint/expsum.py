"""Exponential-sum route: sinc and sinc^2 as quadratures of exp(-i l A).

sinc(a) is the average of exp(-i l a) over l in [-1, 1], and sinc^2(a)
the triangle-weighted average over [-2, 2].  Discretizing with nu-node
Gauss-Legendre rules turns sinc(A)v into a short sum of unitary
propagators exp(-i l_p A)v.  The rules are symmetric, so on the
eigendecomposition of a symmetric A the sum is a scalar cosine sum per
eigenvalue (scalar_sum_sinc, scalar_sum_sinc2): the integrator's
ExpSumBackend and expsum_sinc/expsum_sinc2 apply it that way.  The
quadrature error obeys the a-priori bound pi/(2 nu)! (rho(A)/2)^(2 nu),
super-exponential in nu.  These are the Gautschi-type filters of
Hochbruck and Lubich (Numer. Math. 83, 1999) with their integrals
replaced by quadratures.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .bounds import expsum_bound
from .densefun import _apply, sym_eigendecomposition
# perfbench/spans.py wraps build_space by name in this module
from .krylov import build_space  # noqa: F401
from .special import _check_count, sinc

__all__ = [
    "expsum_sinc",
    "expsum_sinc2",
    "expsum_error_check",
    "estimate_spectral_radius",
    "scalar_sum_sinc",
    "scalar_sum_sinc2",
]


@functools.lru_cache(maxsize=None, typed=True)
def _coeffs(nu: int) -> tuple[np.ndarray, ...]:
    """Nodes and outer weights of the sinc sum, then of the sinc^2 sum,
    from one nu-node Gauss-Legendre rule (l_p, w_p) on [-1, 1].

    sinc(mu) = 1/2 sum w_p exp(-i l_p mu).  sinc^2(mu) = 1/4
    int_{-2}^{2} (1 - |l|/2) exp(-i l mu) dl; folding the positive half
    onto [-2, 0] pairs exp(-i l mu) with its conjugate, so with the
    rule shifted to [-2, 0] the discrete sum
        1/8 sum w_p (2 l_p + 4) (exp(-i l_p mu) + exp(+i l_p mu))
    is real by construction.
    """
    _check_count(nu, "node count")
    nodes, weights = np.polynomial.legendre.leggauss(nu)
    shifted = nodes - 1.0
    out = (nodes, 0.5 * weights,
           shifted, 0.125 * weights * (2.0 * shifted + 4.0))
    for arr in out:
        arr.flags.writeable = False
    return out


def scalar_sum_sinc(mu: np.ndarray, nu: int) -> np.ndarray:
    """The nu-node quadrature of sinc(mu), elementwise."""
    nodes, w = _coeffs(nu)[:2]
    # the rule is symmetric about 0, so the exponential sum collapses
    # to a cosine sum with the same (already halved) weights
    return np.cos(np.outer(mu, nodes)) @ w


def scalar_sum_sinc2(mu: np.ndarray, nu: int) -> np.ndarray:
    """The nu-node folded-triangle quadrature of sinc(mu)^2, elementwise."""
    nodes, w = _coeffs(nu)[2:]
    return np.cos(np.outer(mu, nodes)) @ (2.0 * w)


def _scalar(scalar_sum: Callable, nu: int, eig_map: Callable | None):
    """lam -> scalar_sum(eig_map(lam), nu), with nu checked now, before
    any eigendecomposition."""
    _coeffs(nu)
    return lambda lam: scalar_sum(lam if eig_map is None else eig_map(lam), nu)


def expsum_sinc(A, v: np.ndarray, nu: int,
                eig_map: Callable | None = None) -> np.ndarray:
    """sinc(A) v as a nu-node exponential sum.

    eig_map, when given, replaces each eigenvalue lambda by
    mu = eig_map(lambda) before the scalar sum is applied; sigma(h^2 A)
    corresponds to mu = h sqrt(lambda).
    """
    return _apply(A, np.reshape(v, -1), _scalar(scalar_sum_sinc, nu, eig_map))


def expsum_sinc2(A, v: np.ndarray, nu: int,
                 eig_map: Callable | None = None) -> np.ndarray:
    """sinc(A)^2 v as a nu-node exponential sum on the folded triangle.

    With mu = (h/2) sqrt(lambda) as eig_map this evaluates the inner
    filter psi(h^2 A) v of the one-step scheme.
    """
    return _apply(A, np.reshape(v, -1), _scalar(scalar_sum_sinc2, nu, eig_map))


def expsum_error_check(A, nu: int) -> tuple[float, float]:
    """Measured spectral error of the nu-node sinc sum, with its bound.

    Returns (measured, bound) where measured is the exact operator norm
    of sinc(A) minus the quadrature sum (both are functions of the same
    symmetric A, so the norm is a maximum over eigenvalues) and bound is
    pi/(2 nu)! (rho/2)^(2 nu) at the exact spectral radius
    rho = max |lambda| of that eigendecomposition, so an upper bound.
    """
    lam, _ = sym_eigendecomposition(A)
    g = scalar_sum_sinc(lam, nu)
    measured = float(np.max(np.abs(sinc(lam) - g)))
    rho = float(np.max(np.abs(lam)))
    return measured, expsum_bound(nu, rho)


_POWER_ITERS = 30
_POWER_RTOL = 1e-3


def estimate_spectral_radius(A) -> float:
    """Power-iteration estimate of rho(A), inflated by 1%.

    At most 30 iterations from a fixed random start (seed 0), stopping
    early once the Rayleigh quotient changes by at most 1e-3 relative;
    k iterations take k + 1 products with A.

    The Rayleigh quotient of a symmetric PSD A converges to lambda_max
    from below, and the inflation does not make it an upper bound: it
    read 0.9886 lambda_max on 63^2 * laplacian_2d(4096) and 0.9963
    lambda_max on 1e4 * laplacian_1d(1500)."""
    rng = np.random.default_rng(0)
    n = A.shape[0]
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    y = A @ x
    prev = 0.0
    for _ in range(_POWER_ITERS):
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        x = y / ny
        # the Rayleigh quotient's product is the next iteration's y
        y = A @ x
        ray = float(x @ y)
        if prev > 0 and abs(ray - prev) <= _POWER_RTOL * abs(ray):
            prev = ray
            break
        prev = ray
    return 1.01 * prev
