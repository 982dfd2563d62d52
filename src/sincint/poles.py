"""Pole families for rational approximation of sinc.

Each family is derived from zeros of generalized Laguerre polynomials
with negative integer parameter, computed as the eigenvalues of the
real tridiagonal matrix of their three-term recurrence (degrees 1..20):

* ``E``: the [n/n] Pade poles of exp (zeros of L_n^(-2n-1)) rotated to
  the imaginary axis in conjugate pairs, plus the origin (2n+1 poles).
* ``L``: zeros of L_n^(-2n-2) divided by 2i (n poles, one-sided).
* ``Lbar``: the conjugate-symmetrized variant of ``L`` (2n poles).
* ``pade-sinc``: zeros of the tabulated diagonal Pade denominators of
  sinc (n poles, even n <= 10).

POLE_FAMILIES maps each name to its constructor; sinc_family looks a
name up and refuses any other.  A PoleSet counts as closed under
conjugation only when its poles pair exactly, the condition under
which a ShiftedSolveCache shares one LU per pair.  The closed families
pair exactly because every generator is a real matrix (the recurrence
matrix, or the companion matrix of the pade-sinc table), whose real
LAPACK eigensolver returns each complex eigenvalue with its exact
conjugate and each real one with a zero imaginary part.

Pole sets live on the "sinc plane": they target sinc(A)v directly.  The
integrator filters act on h^2 A, and :func:`filter_poles` transports a
sinc-plane set to that matrix plane (zeta -> zeta^2 for sigma,
zeta -> (2 zeta)^2 for psi).
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .special import _check_count, pade_sinc_denominator

__all__ = [
    "PoleSet",
    "poles_E",
    "poles_L",
    "poles_Lbar",
    "poles_pade_sinc",
    "poles_pade_exp",
    "filter_poles",
    "POLE_FAMILIES",
    "sinc_family",
]


def _canonical_order(values) -> tuple[complex, ...]:
    arr = np.asarray(list(values), dtype=np.complex128)
    order = np.lexsort((np.angle(arr), np.abs(arr)))
    return tuple(complex(v) for v in arr[order])


@dataclass(frozen=True)
class PoleSet:
    """Ordered collection of poles with a provenance label.

    values are sorted by (|zeta|, arg zeta); math.inf is a permitted
    sentinel meaning a plain Krylov (multiplication) step.  The
    conjugate-closed sets (E, Lbar, pade-sinc, pade-exp) and their
    filter_poles transports hold exact conjugate pairs, with exactly
    real real poles: their zeros are eigenvalues of real matrices, which
    LAPACK's real eigensolver returns as exact pairs, and rotating by
    +-i or squaring keeps a pair exact.  So a ShiftedSolveCache factors
    one LU per pair.
    """

    values: tuple
    family: str = ""
    degree: int = 0

    def __post_init__(self):
        finite = [v for v in self.values if not cmath.isinf(v)]
        inf_count = len(self.values) - len(finite)
        ordered = _canonical_order(finite) + (complex(cmath.inf, 0.0),) * inf_count
        object.__setattr__(self, "values", ordered)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def is_conjugate_closed(self) -> bool:
        """True when the multiset of poles equals its complex conjugate
        exactly (computed once: the set is frozen)."""
        return self._conjugate_closed

    @cached_property
    def _conjugate_closed(self) -> bool:
        return _conjugate_closed(self.values)


def _conjugate_closed(values) -> bool:
    """Exact multiset test: every finite pole's conjugate is in the set
    as often as the pole itself.  A ShiftedSolveCache shares an LU only
    between exact conjugates, and a set closed only up to roundoff
    gives complex products."""
    finite = [complex(v) for v in values if not cmath.isinf(v)]
    return Counter(finite) == Counter(v.conjugate() for v in finite)


# Degree cap of the Laguerre families.  Their recurrence-matrix zeros
# are good to 5.2e-10 relative at degree 20 and drift above it (2.1e-8
# at 24, 1.9e-6 at 32), so a higher cap needs tabulated poles.
_MAX_DEGREE = 20


def _laguerre_zeros(n: int, c: int) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(alpha), alpha =
    -2n-c (c = 1 for pade-exp and E, 2 for L and Lbar).

    The recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
    says that (L_0, ..., L_{n-1})(x) is an eigenvector of the tridiagonal
    J built below, with eigenvalue x, exactly where L_n(x) = 0 (Golub and
    Welsch, 1969).  J is real, so LAPACK returns its complex eigenvalues
    as exact conjugate pairs and its real ones with a zero imaginary
    part.
    """
    _check_count(n, "degree")
    if n > _MAX_DEGREE:
        raise ValueError(
            f"degree {n} exceeds the supported maximum {_MAX_DEGREE}")
    alpha = -2 * n - c
    k = np.arange(n, dtype=np.float64)
    J = (np.diag(2 * k + 1 + alpha) - np.diag(k[1:], 1)
         - np.diag(k[1:] + alpha, -1))
    return np.linalg.eigvals(J)


def poles_pade_exp(k: int) -> PoleSet:
    """[k/k] Pade poles of exp (Re < 0), zeros of L_k^(-2k-1); E rotates them."""
    return PoleSet(tuple(_laguerre_zeros(k, 1)), family="pade-exp",
                   degree=k)


def poles_E(n: int) -> PoleSet:
    """Exponential-Pade sinc poles: {+-i x : x a pade-exp pole} plus 0."""
    vals = [0.0 + 0.0j]
    for r in poles_pade_exp(n):
        vals.append(1j * r)
        vals.append(-1j * r)
    return PoleSet(tuple(vals), family="E", degree=n)


def poles_L(n: int) -> PoleSet:
    """One-sided hypergeometric sinc poles: zeros of L_n^(-2n-2) over 2i."""
    x = _laguerre_zeros(n, 2)
    return PoleSet(tuple(r / 2j for r in x), family="L", degree=n)


def poles_Lbar(n: int) -> PoleSet:
    """Conjugate-symmetrized hypergeometric poles: {+-i x} for the same zeros."""
    vals = []
    for r in _laguerre_zeros(n, 2):
        vals.append(1j * r)
        vals.append(-1j * r)
    return PoleSet(tuple(vals), family="Lbar", degree=n)


def poles_pade_sinc(n: int) -> PoleSet:
    """Zeros of the tabulated diagonal Pade denominator of sinc, from the
    companion matrix of its real coefficients."""
    roots = np.roots(pade_sinc_denominator(n)[::-1])
    return PoleSet(tuple(roots), family="pade-sinc", degree=n)


def filter_poles(ps: PoleSet) -> tuple[PoleSet, PoleSet]:
    """Matrix-plane poles (psi, sigma) of h^2 A for a sinc-plane set.

    A sinc approximant with poles zeta induces one for sigma(z) =
    sinc(sqrt(z)) with poles zeta^2, and for psi = sinc(sqrt(z)/2)^2
    with poles (2 zeta)^2.  The infinity sentinel stays infinite.
    """
    return tuple(
        PoleSet(tuple(v if cmath.isinf(v) else (s * v) ** 2 for v in ps),
                family=ps.family, degree=ps.degree)
        for s in (2.0, 1.0))


POLE_FAMILIES = {
    "E": poles_E,
    "L": poles_L,
    "Lbar": poles_Lbar,
    "pade-sinc": poles_pade_sinc,
}


def sinc_family(family: str):
    """Constructor (degree -> PoleSet) of a sinc pole family."""
    if family not in POLE_FAMILIES:
        raise ValueError(
            f"unknown pole family {family!r}; expected one of "
            f"{tuple(POLE_FAMILIES)}"
        )
    return POLE_FAMILIES[family]
