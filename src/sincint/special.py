"""Scalar special functions: sinc, sigma and psi, the Pade table of sinc
and the two scalar approximants.

Everything in this module is plain numpy on scalars or small arrays; the
matrix-level machinery lives in :mod:`sincint.densefun`,
:mod:`sincint.krylov` and :mod:`sincint.expsum`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "sinc",
    "psi",
    "sigma",
    "pade_sinc_denominator",
    "sinc_approx_exp_pade",
    "sinc_approx_hyp_sym",
]

# Threshold below which sin(z)/z is replaced by its Taylor expansion, and
# the number of series terms used there.  Eight terms leave a remainder
# of order |z|^16 / 17! ~ 1e-47 at the switch point, far below unit
# roundoff, while sin(z)/z itself loses at most one ulp above it.
_SERIES_THRESHOLD = 1e-2
_SERIES_TERMS = 8
# _laguerre_at rescales the values of its recurrence that reach this
_LAGUERRE_RESCALE = 2.0**512


# (-1)^k / (2k+1)! for the series branch, highest k first for Horner.
_SERIES_COEFFS = tuple(
    (-1.0) ** k / float(np.prod(np.arange(1, 2 * k + 2, dtype=np.float64)))
    for k in reversed(range(_SERIES_TERMS))
)


def _sinc_series(z2):
    """sinc(z) by its Taylor series in z2 = z**2, for |z| < _SERIES_THRESHOLD."""
    acc = np.zeros_like(z2)
    for c in _SERIES_COEFFS:
        acc = acc * z2 + c
    return acc


def sinc(z):
    """Unnormalized sinc, sin(z)/z, entire in z with sinc(0) = 1.

    Accepts real or complex scalars and arrays.  For |z| below 1e-2 the
    eight-term Taylor series in z**2 is used so the removable
    singularity never touches floating point division.
    """
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=np.complex128 if np.iscomplexobj(z) else np.float64)
    small = np.abs(z) < _SERIES_THRESHOLD
    if np.any(small):
        out[small] = _sinc_series(z[small] ** 2)
    big = ~small
    if np.any(big):
        zb = z[big]
        out[big] = np.sin(zb) / zb
    return out[()] if not scalar else out[0]


def _sinc_sqrt(x: np.ndarray) -> np.ndarray:
    """sinc(sqrt(x)) for real x, in float64: sin(sqrt x)/sqrt x for
    x > 0 and sinh(sqrt(-x))/sqrt(-x) for x < 0, where the projected
    eigenvalues of a PSD matrix can land a roundoff below 0, and the
    series where sqrt|x| < _SERIES_THRESHOLD.

    It rounds as sinc(sqrt(x + 0j)) does, whose quotient is
    sin(s) * (1/s) and whose series argument is s*s, so for x >= 0 the
    two agree to the bit.
    """
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    s = np.sqrt(np.abs(x))
    out = np.sin(s)
    neg = x < 0
    if np.count_nonzero(neg):
        np.sinh(s, out=out, where=neg)
    # entries below the threshold are overwritten by the series
    out *= 1.0 / np.maximum(s, _SERIES_THRESHOLD)
    small = s < _SERIES_THRESHOLD
    if np.count_nonzero(small):
        s_small = s[small]
        out[small] = _sinc_series(np.copysign(s_small * s_small, x[small]))
    return out[0] if scalar else out


def sigma(z):
    """Filter sigma(z) = sinc(sqrt(z)); even entire function of sqrt(z).

    Real input yields real output, computed in real arithmetic (for
    negative z the value is sinh(sqrt(-z))/sqrt(-z)).
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return sinc(np.sqrt(z.astype(np.complex128)))
    return _sinc_sqrt(z.astype(np.float64, copy=False))


def psi(z):
    """Filter psi(z) = sinc(sqrt(z)/2)**2 used by the one-step scheme.

    Real input yields real output, computed in real arithmetic as
    sigma(z/4)**2.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return sinc(np.sqrt(z.astype(np.complex128)) / 2.0) ** 2
    return _sinc_sqrt(0.25 * z.astype(np.float64, copy=False)) ** 2


def _check_count(n, what: str) -> None:
    """Refuse an n that is not a positive Python or numpy integer; a
    bool is not a count."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")


# Denominators of the diagonal [n/n] Pade approximants of sinc, exact
# rational coefficients in ascending monomial order.  Degrees 12 and up
# have no published closed form and are deliberately unsupported.
_PADE_SINC_DENOMINATORS: dict[int, tuple[Fraction, ...]] = {
    2: (
        Fraction(1),
        Fraction(0),
        Fraction(1, 20),
    ),
    4: (
        Fraction(1),
        Fraction(0),
        Fraction(13, 396),
        Fraction(0),
        Fraction(5, 11088),
    ),
    6: (
        Fraction(1),
        Fraction(0),
        Fraction(1671, 69212),
        Fraction(0),
        Fraction(97, 351384),
        Fraction(0),
        Fraction(2623, 1644477120),
    ),
    8: (
        Fraction(1),
        Fraction(0),
        Fraction(2290747, 120289892),
        Fraction(0),
        Fraction(1281433, 7217393520),
        Fraction(0),
        Fraction(560401, 562956694560),
        Fraction(0),
        Fraction(1029037, 346781323848960),
    ),
    10: (
        Fraction(1),
        Fraction(0),
        Fraction(34046903537, 2167379498676),
        Fraction(0),
        Fraction(1679739379, 13726736824948),
        Fraction(0),
        Fraction(101555058991, 168015258737363520),
        Fraction(0),
        Fraction(3924840709, 2016183104848362240),
        Fraction(0),
        Fraction(37291724011, 11008359752472057830400),
    ),
}


def pade_sinc_denominator(n: int, exact: bool = False):
    """Denominator of the diagonal [n/n] Pade approximant of sinc.

    Parameters
    ----------
    n:
        Even degree in {2, 4, 6, 8, 10}.
    exact:
        When True, return the tuple of exact Fractions instead of the
        float coefficients (ascending order).
    """
    if n not in _PADE_SINC_DENOMINATORS:
        raise ValueError(
            "tabulated denominators exist only for even degrees 2..10, "
            f"got {n!r}"
        )
    fracs = _PADE_SINC_DENOMINATORS[n]
    if exact:
        return fracs
    return np.array([float(f) for f in fracs])


def _laguerre_at(n: int, alpha: float, z: np.ndarray) -> np.ndarray:
    """Evaluate L_n^(alpha)(z) for complex z, of at least one axis, via
    the recurrence.

    L_n grows past the float64 range from about n = 400 at |z| = 6.  So
    wherever the values along z's first axis pass _LAGUERRE_RESCALE, the
    pair of the recurrence there is scaled by the power of two that
    brings the largest into [1/2, 1).  Values there carry that unknown
    factor, but their ratios along the first axis, all that
    sinc_approx_exp_pade takes, are unchanged and gain no rounding."""
    z = np.asarray(z, dtype=np.complex128)
    prev = np.ones_like(z)
    if n == 0:
        return prev
    cur = 1.0 + alpha - z
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
        top = np.max(np.abs(cur), axis=0)
        if np.any(top >= _LAGUERRE_RESCALE):
            scale = np.where(top >= _LAGUERRE_RESCALE,
                             np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
            prev *= scale
            cur *= scale
    return cur


def sinc_approx_exp_pade(n: int, z):
    """Degree-2n rational approximant of sinc built from the exponential.

    With L = L_n^(-2n-1), the [n/n] Pade approximant of exp is
    L(-x)/L(x) up to sign normalization, and averaging it at +-iz gives

        E_n(z) = -(L(-iz)^2 - L(iz)^2) / (2iz L(iz) L(-iz)),

    evaluated as -(r - 1/r) / (2iz) from the ratio r = L(-iz)/L(iz),
    which stays finite where L itself would overflow (_laguerre_at).
    Real z yields real values.  Near z = 0 the limit 1 is substituted.
    """
    _check_count(n, "degree")
    z = np.asarray(z)
    scalar = z.ndim == 0
    zc = np.atleast_1d(z).astype(np.complex128)
    L = _laguerre_at(n, -2 * n - 1, np.stack([-1j * zc, 1j * zc]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = L[0] / L[1]
        val = -(r - 1.0 / r) / (2j * zc)
    val = np.where(np.abs(zc) < 1e-8, 1.0 + 0j, val)
    if not np.iscomplexobj(z):
        val = np.real(val)
    return val[0] if scalar else val


def _hyp_sym_polys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays (A, B) of the symmetrized hypergeometric approximant.

    B is 1F1(-n; -2n-1; x) normalized to B(0) = 1; A collects the first
    n+1 coefficients of the series product of 1F1(1; 2; -x) with B, which
    is exactly the Pade numerator matching through order 2n+1.
    """
    B = np.zeros(n + 1)
    B[0] = 1.0
    for k in range(1, n + 1):
        # ratio of consecutive 1F1(-n; -2n-1; x) series terms
        B[k] = B[k - 1] * (-n + k - 1) / ((-2 * n - 1 + k - 1) * k)
    # (-1)^k / (k+1)!, the series of 1F1(1; 2; -x), by the same ratio
    S = np.ones(2 * n + 2)
    for k in range(1, 2 * n + 2):
        S[k] = -S[k - 1] / (k + 1)
    A = np.convolve(S, B)[: n + 1]
    return A, B


def sinc_approx_hyp_sym(n: int, z):
    """Symmetrized rational sinc approximant from the confluent series.

    Averages the Pade approximant of x -> 1F1(1; 2; -x) (whose value at
    ix relates to (exp(ix) - 1)/(ix)) over +-iz, giving a real, even
    rational function of z with numerator and denominator of degree 2n.
    """
    _check_count(n, "degree")
    A, B = _hyp_sym_polys(n)
    z = np.asarray(z)
    scalar = z.ndim == 0
    zc = np.atleast_1d(z).astype(np.complex128)

    def _horner(c, x):
        acc = np.zeros_like(x)
        for ck in c[::-1]:
            acc = acc * x + ck
        return acc

    val = 0.5 * (
        _horner(A, -1j * zc) / _horner(B, -1j * zc)
        + _horner(A, 1j * zc) / _horner(B, 1j * zc)
    )
    if not np.iscomplexobj(z):
        val = np.real(val)
    return val[0] if scalar else val
