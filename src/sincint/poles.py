"""Pole families for rational approximation of sinc.

Each family is derived from zeros of generalized Laguerre polynomials
with negative integer parameter:

* ``E``: the [n/n] Pade poles of exp (zeros of L_n^(-2n-1)) rotated to
  the imaginary axis in conjugate pairs, plus the origin (2n+1 poles).
* ``L``: zeros of L_n^(-2n-2) divided by 2i (n poles, one-sided).
* ``Lbar``: the conjugate-symmetrized variant of ``L`` (2n poles).
* ``pade-sinc``: zeros of the tabulated diagonal Pade denominators of
  sinc (n poles, even n <= 10).

POLE_FAMILIES maps each name to its constructor; sinc_family looks a
name up and refuses any other.  A PoleSet counts as closed under
conjugation only when its poles pair exactly, the condition under
which a ShiftedSolveCache shares one LU per pair.

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

from .special import (_check_count, laguerre_coeffs, pade_sinc_denominator,
                      poly_roots)

__all__ = [
    "PoleSet",
    "poles_E",
    "poles_L",
    "poles_Lbar",
    "poles_pade_sinc",
    "poles_pade_exp",
    "scale_poles",
    "square_poles",
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
    real real poles: their generators are real polynomials, whose roots
    poly_roots computes in real arithmetic.  So a ShiftedSolveCache
    factors one LU per pair.
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


def poles_pade_exp(k: int) -> PoleSet:
    """[k/k] Pade poles of exp (Re < 0), zeros of L_k^(-2k-1); E rotates them."""
    _check_count(k, "degree")
    p = laguerre_coeffs(k, -2 * k - 1)
    return PoleSet(tuple(poly_roots(p)), family="pade-exp", degree=k)


def poles_E(n: int) -> PoleSet:
    """Exponential-Pade sinc poles: {+-i x : x a pade-exp pole} plus 0."""
    vals = [0.0 + 0.0j]
    for r in poles_pade_exp(n):
        vals.append(1j * r)
        vals.append(-1j * r)
    return PoleSet(tuple(vals), family="E", degree=n)


def poles_L(n: int) -> PoleSet:
    """One-sided hypergeometric sinc poles: zeros of L_n^(-2n-2) over 2i."""
    _check_count(n, "degree")
    x = poly_roots(laguerre_coeffs(n, -2 * n - 2))
    return PoleSet(tuple(r / 2j for r in x), family="L", degree=n)


def poles_Lbar(n: int) -> PoleSet:
    """Conjugate-symmetrized hypergeometric poles: {+-i x} for the same zeros."""
    _check_count(n, "degree")
    x = poly_roots(laguerre_coeffs(n, -2 * n - 2))
    vals = []
    for r in x:
        vals.append(1j * r)
        vals.append(-1j * r)
    return PoleSet(tuple(vals), family="Lbar", degree=n)


def poles_pade_sinc(n: int) -> PoleSet:
    """Zeros of the tabulated diagonal Pade denominator of sinc."""
    p = pade_sinc_denominator(n)
    return PoleSet(tuple(poly_roots(p)), family="pade-sinc", degree=n)


def scale_poles(ps: PoleSet, c: complex) -> PoleSet:
    """Multiply every finite pole by c, keeping label and degree."""
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    vals = tuple(v if cmath.isinf(v) else complex(v) * c for v in ps.values)
    return PoleSet(vals, family=ps.family, degree=ps.degree)


def square_poles(ps: PoleSet) -> PoleSet:
    """Map each finite pole zeta to zeta**2 (sinc plane to matrix plane).

    sigma(h^2 A) = sinc(sqrt(h^2 A)) turns a pole zeta of the sinc
    approximant into a pole zeta^2 of the induced rational function of
    h^2 A; for psi = sinc(sqrt(z)/2)^2 the composition with the halved
    argument gives (2 zeta)^2, obtained by scaling first.
    """
    vals = tuple(v if cmath.isinf(v) else complex(v) ** 2 for v in ps.values)
    return PoleSet(vals, family=ps.family, degree=ps.degree)


def filter_poles(ps: PoleSet) -> tuple[PoleSet, PoleSet]:
    """Matrix-plane poles (psi, sigma) of h^2 A for a sinc-plane set.

    A sinc approximant with poles zeta induces one for sigma(z) =
    sinc(sqrt(z)) with poles zeta^2, and for psi = sinc(sqrt(z)/2)^2
    with poles (2 zeta)^2.
    """
    return square_poles(scale_poles(ps, 2.0)), square_poles(ps)


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
