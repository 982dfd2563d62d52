"""Pole family generators: cardinalities, frozen values, closure, residuals."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import sincint.poles as poles_module
from sincint.poles import (
    POLE_FAMILIES,
    PoleSet,
    filter_poles,
    poles_E,
    poles_L,
    poles_Lbar,
    poles_pade_exp,
    poles_pade_sinc,
    sinc_family,
)
from sincint.special import pade_sinc_denominator

from conftest import laguerre_fractions


class TestCardinalities:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts(self, n):
        assert len(poles_E(n)) == 2 * n + 1
        assert len(poles_L(n)) == n
        assert len(poles_Lbar(n)) == 2 * n
        assert len(poles_pade_exp(n)) == n

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pade_sinc_counts(self, n):
        assert len(poles_pade_sinc(n)) == n


class TestFrozenLowDegrees:
    def test_E1(self):
        vals = np.asarray(poles_E(1).values)
        assert sorted(vals, key=lambda z: z.imag) == pytest.approx(
            [-2j, 0j, 2j], abs=1e-12)

    def test_L1(self):
        assert poles_L(1).values == pytest.approx((1.5j,), abs=1e-12)

    def test_Lbar1(self):
        vals = sorted(poles_Lbar(1).values, key=lambda z: z.imag)
        assert vals == pytest.approx([-3j, 3j], abs=1e-12)

    def test_pade_exp_low(self):
        assert poles_pade_exp(1).values == pytest.approx((-2.0 + 0j,), abs=1e-12)
        vals = sorted(poles_pade_exp(2).values, key=lambda z: z.imag)
        assert vals == pytest.approx(
            [-3 - 1j * math.sqrt(3), -3 + 1j * math.sqrt(3)], abs=1e-12)


class TestStructure:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_E_contains_exactly_one_origin_pole(self, n):
        zeros = [z for z in poles_E(n) if abs(z) < 1e-14]
        assert len(zeros) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugate_closure_flags(self, n):
        assert poles_E(n).is_conjugate_closed()
        assert poles_Lbar(n).is_conjugate_closed()
        assert not poles_L(n).is_conjugate_closed()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pade_sinc_closed(self, n):
        assert poles_pade_sinc(n).is_conjugate_closed()

    @pytest.mark.parametrize("k", range(1, 16))
    def test_pade_exp_strictly_left_half_plane(self, k):
        assert all(z.real < 0 for z in poles_pade_exp(k))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sorted_by_modulus(self, n):
        for ps in (poles_E(n), poles_L(n), poles_Lbar(n), poles_pade_exp(n)):
            mags = np.array([abs(z) for z in ps])
            slack = 1e-12 * max(mags.max(), 1.0)
            assert np.all(np.diff(mags) >= -slack)

    def test_mapped_sets_stay_closed(self):
        for n in (1, 3, 5, 9):
            assert all(ps.is_conjugate_closed()
                       for ps in filter_poles(poles_E(n)))


def _newton_step_within(coeffs, z, tol: Fraction) -> bool:
    """Whether |p(z) / p'(z)| <= tol |z|, decided exactly: z is read as
    a pair of Fractions and p, p' come from one complex Horner pass over
    the exact coefficients."""
    x, y = Fraction(z.real), Fraction(z.imag)
    pr = pi = dr = di = Fraction(0)
    for c in reversed(coeffs):
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        pr, pi = pr * x - pi * y + c, pr * y + pi * x
    return pr * pr + pi * pi <= tol * tol * (x * x + y * y) * (dr * dr + di * di)


def _newton_tol(n: int) -> Fraction:
    # the largest steps are 2.2e-13 up to degree 12 and 5.2e-10 at
    # degree 20, both at alpha = -2n-1
    return Fraction(1, 10**12) if n <= 12 else Fraction(2, 10**9)


class TestResiduals:
    """Each family consists of (transformed) zeros of its generator.

    The Laguerre families rest on the zeros of L_n^(alpha), alpha =
    -2n-1 (pade-exp, rotated into E) and -2n-2 (L and Lbar).  The exact
    Newton step |p(z) / p'(z)| at a computed zero z is, to first order,
    its distance from the true one."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_E_preimages(self, n):
        # each nonzero pole is +-i times a pade-exp pole
        roots = poles_pade_exp(n).values
        rotated = [s * r for r in roots for s in (1j, -1j)]
        assert Counter(poles_E(n).values) == Counter([0j] + rotated)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_L_preimages(self, n):
        coeffs = laguerre_fractions(n, -2 * n - 2)
        zeros = poles_module._laguerre_zeros(n, 2)
        assert len(zeros) == n
        for z in zeros:
            assert _newton_step_within(coeffs, complex(z), _newton_tol(n))
        assert poles_L(n) == PoleSet(tuple(r / 2j for r in zeros),
                                     family="L", degree=n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_Lbar_preimages(self, n):
        zeros = poles_module._laguerre_zeros(n, 2)
        rotated = [s * r for r in zeros for s in (1j, -1j)]
        assert Counter(poles_Lbar(n).values) == Counter(rotated)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pade_sinc_residuals(self, n):
        p = pade_sinc_denominator(n)
        scale = np.abs(p).max()
        for z in poles_pade_sinc(n):
            assert abs(polyval(z, p)) <= 1e-8 * scale

    @pytest.mark.parametrize("k", range(1, 21))
    def test_pade_exp_residuals(self, k):
        coeffs = laguerre_fractions(k, -2 * k - 1)
        poles = poles_pade_exp(k)
        assert len(poles) == k
        for z in poles:
            assert _newton_step_within(coeffs, z, _newton_tol(k))


class TestTransforms:
    def test_square_E1(self):
        sq = filter_poles(poles_E(1))[1]
        vals = sorted(sq.values, key=lambda z: z.real)
        assert vals == pytest.approx([-4.0 + 0j, -4.0 + 0j, 0j], abs=1e-12)

    def test_scale_then_square_gives_psi_plane(self):
        sq = filter_poles(poles_E(1))[0]
        vals = sorted(sq.values, key=lambda z: z.real)
        assert vals == pytest.approx([-16.0 + 0j, -16.0 + 0j, 0j], abs=1e-12)

    def test_infinity_sentinel_preserved(self):
        ps = PoleSet((complex(math.inf, 0.0), 1.0 + 0j))
        assert len(ps) == 2
        for mapped in filter_poles(ps):
            assert any(math.isinf(z.real) for z in mapped)
        assert PoleSet((complex(math.inf, 0.0),)).is_conjugate_closed()

    def test_labels_carried(self):
        ps = poles_E(3)
        assert ps.family == "E" and ps.degree == 3
        for mapped in filter_poles(ps):
            assert mapped.family == "E" and mapped.degree == 3

    def test_degree_guard(self):
        for fn in (poles_E, poles_L, poles_Lbar, poles_pade_exp):
            with pytest.raises(ValueError):
                fn(0)
        with pytest.raises(ValueError):
            poles_pade_sinc(3)

    def test_degree_cap(self):
        for fn in (poles_E, poles_L, poles_Lbar, poles_pade_exp):
            assert fn(20).degree == 20
            with pytest.raises(ValueError, match="degree 21 exceeds the "
                               "supported maximum 20"):
                fn(21)
        # refused before the n x n recurrence matrix is allocated
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            poles_E(10**9)


class TestRegistry:
    def test_families(self):
        assert tuple(POLE_FAMILIES) == ("E", "L", "Lbar", "pade-sinc")
        assert all(POLE_FAMILIES[f](2).family == f for f in POLE_FAMILIES)
        assert all(sinc_family(f) is POLE_FAMILIES[f] for f in POLE_FAMILIES)

    @pytest.mark.parametrize("family", ["pade-exp", "Q"])
    def test_sinc_family_rejects_others(self, family):
        with pytest.raises(ValueError, match="unknown pole family"):
            sinc_family(family)

    def test_filter_poles_transport(self):
        ps = poles_E(3)
        psi_poles, sigma_poles = filter_poles(ps)
        assert Counter(psi_poles.values) == Counter((2 * z) ** 2 for z in ps)
        assert Counter(sigma_poles.values) == Counter(z**2 for z in ps)
        assert psi_poles.family == sigma_poles.family == "E"


# the sinc families plus the exp pole set that E rotates
_POLE_SETS = {**POLE_FAMILIES, "pade-exp": poles_pade_exp}


def _closure_cases():
    """Every family and degree, their filter_poles transports, and the
    all-infinity set."""
    cases = [(f"{f}{n}", _POLE_SETS[f](n)) for f in _POLE_SETS
             if f != "pade-sinc" for n in range(1, 9)]
    cases += [(f"pade-sinc{n}", poles_pade_sinc(n)) for n in (2, 4, 6, 8, 10)]
    cases += [(f"{name}-{plane}", ps) for name, base in list(cases)
              for plane, ps in zip(("psi", "sigma"), filter_poles(base))]
    cases.append(("all-inf", PoleSet((complex(math.inf, 0.0),) * 3)))
    return [pytest.param(ps, id=name) for name, ps in cases]


class TestConjugateClosureMemo:
    @pytest.mark.parametrize("ps", _closure_cases())
    def test_memo_equals_fresh_scan(self, ps):
        fresh = poles_module._conjugate_closed(ps.values)
        assert ps.is_conjugate_closed() is fresh
        assert ps.is_conjugate_closed() is fresh


def _exact_pair_cases():
    """Every conjugate-closed family at every degree it supports up to
    20, with both filter_poles transports of the sinc families."""
    cases = [(f"{f}{n}", _POLE_SETS[f](n)) for f in ("E", "Lbar", "pade-exp")
             for n in range(1, 21)]
    cases += [(f"pade-sinc{n}", poles_pade_sinc(n)) for n in (2, 4, 6, 8, 10)]
    cases += [(f"{name}-{plane}", ps) for name, base in list(cases)
              if base.family != "pade-exp"
              for plane, ps in zip(("psi", "sigma"), filter_poles(base))]
    return [pytest.param(ps, id=name) for name, ps in cases]


class TestExactConjugatePairs:
    """The closed families hold exact conjugates, so a shifted-solve
    cache shares one factorization per pair."""

    @pytest.mark.parametrize("ps", _exact_pair_cases())
    def test_multiset_equals_its_conjugate_exactly(self, ps):
        vals = [complex(z) for z in ps.values]
        assert Counter(vals) == Counter(z.conjugate() for z in vals)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_sided_family_not_closed(self, n):
        vals = [complex(z) for z in poles_L(n).values]
        assert Counter(vals) != Counter(z.conjugate() for z in vals)
        assert not poles_L(n).is_conjugate_closed()
