"""Pole family generators: cardinalities, frozen values, closure, residuals."""

import math
from collections import Counter

import numpy as np
import pytest

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
    scale_poles,
    sinc_family,
    square_poles,
)
from sincint.special import laguerre_coeffs, pade_sinc_denominator


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
            ps = poles_E(n)
            assert square_poles(ps).is_conjugate_closed()
            assert square_poles(scale_poles(ps, 2.0)).is_conjugate_closed()


class TestResiduals:
    """Each family must consist of (transformed) zeros of its generator."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_E_preimages(self, n):
        # each nonzero pole is +-i times a zero of the generator, so one
        # of the two rotations back must be a root
        p = laguerre_coeffs(n, -2 * n - 1)
        scale = np.abs(p.as_array()).max()
        for z in poles_E(n):
            if abs(z) < 1e-14:
                continue
            assert min(abs(p(z / 1j)), abs(p(-z / 1j))) <= 1e-8 * scale

    @pytest.mark.parametrize("n", range(1, 11))
    def test_L_preimages(self, n):
        p = laguerre_coeffs(n, -2 * n - 2)
        scale = np.abs(p.as_array()).max()
        for z in poles_L(n):
            assert abs(p(2j * z)) <= 1e-8 * scale

    @pytest.mark.parametrize("n", range(1, 11))
    def test_Lbar_preimages(self, n):
        p = laguerre_coeffs(n, -2 * n - 2)
        scale = np.abs(p.as_array()).max()
        for z in poles_Lbar(n):
            assert min(abs(p(z / 1j)), abs(p(-z / 1j))) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pade_sinc_residuals(self, n):
        p = pade_sinc_denominator(n)
        scale = np.abs(p.as_array()).max()
        for z in poles_pade_sinc(n):
            assert abs(p(z)) <= 1e-8 * scale

    @pytest.mark.parametrize("k", range(1, 11))
    def test_pade_exp_residuals(self, k):
        p = laguerre_coeffs(k, -2 * k - 1)
        scale = np.abs(p.as_array()).max()
        for z in poles_pade_exp(k):
            assert abs(p(z)) <= 1e-8 * scale


class TestTransforms:
    def test_square_E1(self):
        sq = square_poles(poles_E(1))
        vals = sorted(sq.values, key=lambda z: z.real)
        assert vals == pytest.approx([-4.0 + 0j, -4.0 + 0j, 0j], abs=1e-12)

    def test_scale_then_square_gives_psi_plane(self):
        sq = square_poles(scale_poles(poles_E(1), 2.0))
        vals = sorted(sq.values, key=lambda z: z.real)
        assert vals == pytest.approx([-16.0 + 0j, -16.0 + 0j, 0j], abs=1e-12)

    def test_scale_zero_rejected(self):
        with pytest.raises(ValueError):
            scale_poles(poles_E(1), 0.0)

    def test_infinity_sentinel_preserved(self):
        ps = PoleSet((complex(math.inf, 0.0), 1.0 + 0j))
        assert len(ps) == 2
        sq = square_poles(ps)
        assert any(math.isinf(z.real) for z in sq)
        sc = scale_poles(ps, 3.0)
        assert any(math.isinf(z.real) for z in sc)
        assert PoleSet((complex(math.inf, 0.0),)).is_conjugate_closed()

    def test_labels_carried(self):
        ps = poles_E(3)
        assert ps.family == "E" and ps.degree == 3
        assert square_poles(ps).family == "E"
        assert scale_poles(ps, 2.0).degree == 3

    def test_degree_guard(self):
        for fn in (poles_E, poles_L, poles_Lbar, poles_pade_exp):
            with pytest.raises(ValueError):
                fn(0)
        with pytest.raises(ValueError):
            poles_pade_sinc(3)


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
        assert psi_poles == square_poles(scale_poles(ps, 2.0))
        assert sigma_poles == square_poles(ps)


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
