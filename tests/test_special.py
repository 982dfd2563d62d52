"""Scalar functions, polynomials, the rational table, and quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincint.special import (
    Polynomial,
    gauss_legendre,
    laguerre_coeffs,
    pade_sinc_denominator,
    poly_roots,
    psi,
    sigma,
    sinc,
    sinc_approx_exp_pade,
    sinc_approx_hyp_sym,
)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_known_values(self):
        assert abs(sinc(np.pi)) < 1e-15
        assert sinc(2.0) == pytest.approx(np.sin(2.0) / 2.0, rel=1e-15)
        # sinh(1)/1 on the imaginary axis
        assert sinc(1j) == pytest.approx(1.1752011936438014, rel=1e-14)

    def test_series_matches_direct_at_threshold(self):
        # both branches must agree where they hand over
        for z in [0.009999, 0.010001, -0.009999, 0.0099j, 0.011j]:
            direct = np.sin(z) / z
            assert sinc(z) == pytest.approx(direct, rel=5e-15)

    @given(st.floats(min_value=-50, max_value=50).filter(lambda x: x != 0))
    def test_matches_ratio_everywhere(self, x):
        assert sinc(x) == pytest.approx(np.sin(x) / x, rel=1e-12, abs=1e-15)

    def test_vectorized(self):
        z = np.array([0.0, 1e-8, 0.5, np.pi])
        out = sinc(z)
        assert out.shape == z.shape
        assert out.dtype == np.float64
        assert out[0] == 1.0

    def test_tiny_argument_no_cancellation(self):
        assert sinc(1e-3) == pytest.approx(1 - 1e-6 / 6, rel=1e-15)


class TestFilters:
    def test_psi_known_values(self):
        # psi(pi^2) = sinc(pi/2)^2 = (2/pi)^2
        assert psi(np.pi**2) == pytest.approx((2 / np.pi) ** 2, rel=1e-14)
        # negative argument goes through sinh
        expected = (np.sinh(0.5) / 0.5) ** 2
        assert psi(-1.0) == pytest.approx(expected, rel=1e-14)

    def test_sigma_known_values(self):
        assert abs(sigma(np.pi**2)) < 1e-14
        assert sigma(4.0) == pytest.approx(np.sin(2.0) / 2.0, rel=1e-14)

    def test_both_are_one_at_zero(self):
        assert psi(0.0) == 1.0
        assert sigma(0.0) == 1.0

    @given(st.floats(min_value=-30, max_value=400))
    def test_real_in_real_out(self, z):
        for f in (psi, sigma):
            val = f(z)
            assert np.isrealobj(val)
            assert np.isfinite(val)

    @pytest.mark.parametrize("f", [psi, sigma])
    def test_real_path_matches_complex_path(self, f):
        """Real input is evaluated in float64; the series switches at
        z = 1e-4 for sigma and 4e-4 for psi."""
        z = np.concatenate([
            [0.0, 1e-300, 1e-20, 0.99e-4, 1.01e-4, 3.99e-4, 4.01e-4, 1e-3,
             0.5, 1.0, 30.0, 1e3, 1e4],
            -np.logspace(-14, 1, 16),
        ])
        got = f(z)
        want = f(z.astype(np.complex128))
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want.real, rtol=1e-14, atol=0)
        # for z >= 0 it rounds as the complex path does
        np.testing.assert_array_equal(got[z >= 0], want.real[z >= 0])
        assert isinstance(f(2.0), np.float64)

    @given(st.floats(min_value=0, max_value=400))
    def test_psi_is_sigma_of_quarter_squared(self, z):
        # sinc(sqrt(z)/2)^2 = sigma(z/4)^2
        assert psi(z) == pytest.approx(float(sigma(z / 4.0)) ** 2,
                                       rel=1e-12, abs=1e-15)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0 + 0j, 2.0 + 0j)

    def test_zero_polynomial(self):
        assert Polynomial((0.0, 0.0)).degree == 0

    def test_horner_evaluation(self):
        p = Polynomial((6.0, 3.0, 0.5))
        assert p(0.0) == 6.0
        assert p(2.0) == pytest.approx(6 + 6 + 2)
        out = p(np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestLaguerre:
    def test_degree_one(self):
        p = laguerre_coeffs(1, -3.0)
        assert p.coeffs == pytest.approx((-2.0, -1.0))

    def test_degree_two(self):
        p = laguerre_coeffs(2, -5.0)
        assert p.coeffs == pytest.approx((6.0, 3.0, 0.5))

    def test_degree_zero(self):
        assert laguerre_coeffs(0, 7.0).coeffs == (1.0 + 0j,)

    @given(st.integers(min_value=0, max_value=16),
           st.integers(min_value=-40, max_value=10))
    def test_recurrence_matches_binomial_formula(self, n, alpha):
        # L_n^(a)(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!, with the
        # generalized binomial evaluated exactly as a rational product
        p = laguerre_coeffs(n, alpha)
        for k in range(n + 1):
            binom = Fraction(1)
            for j in range(1, n - k + 1):
                binom *= Fraction(alpha + k + j, j)
            exact = (-1) ** k * binom / math.factorial(k)
            assert complex(p.coeffs[k]).real == pytest.approx(
                float(exact), rel=1e-9, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            laguerre_coeffs(65, 0.0)
        with pytest.raises(ValueError):
            laguerre_coeffs(-1, 0.0)


class TestPolyRoots:
    def test_quadratic(self):
        r = poly_roots(Polynomial((6.0, 3.0, 0.5)))
        expected = sorted([-3 - 1j * np.sqrt(3), -3 + 1j * np.sqrt(3)],
                          key=lambda z: z.imag)
        got = sorted(r, key=lambda z: z.imag)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_sorted_by_modulus_then_angle(self):
        r = poly_roots(Polynomial((-4.0, 0.0, 1.0)))  # roots +-2
        assert list(np.abs(r)) == sorted(np.abs(r))

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    @pytest.mark.parametrize("offset", [1, 2])
    def test_laguerre_root_residuals(self, n, offset):
        p = laguerre_coeffs(n, -2 * n - offset)
        scale = np.abs(p.as_array()).max()
        for r in poly_roots(p):
            assert abs(p(r)) <= 1e-8 * scale

    def test_guards(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial((1.0,)))
        with pytest.raises(ValueError):
            poly_roots(Polynomial((0.0,) * 21 + (1.0,)))


# exact Taylor coefficients of sinc: x^(2k) has coefficient
# (-1)^k / (2k+1)!
def _sinc_series_fractions(n_terms: int) -> list[Fraction]:
    out = []
    for j in range(n_terms):
        if j % 2 == 0:
            k = j // 2
            out.append(Fraction((-1) ** k, math.factorial(2 * k + 1)))
        else:
            out.append(Fraction(0))
    return out


class TestPadeSincTable:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exact_pade_conditions(self, n):
        """The tabulated denominator B must satisfy the defining property
        of the diagonal Pade approximant: the series product sinc * B has
        vanishing coefficients for orders n+1..2n, exactly as rationals."""
        B = pade_sinc_denominator(n, exact=True)
        S = _sinc_series_fractions(2 * n + 1)
        for order in range(n + 1, 2 * n + 1):
            coeff = sum(S[j] * B[order - j]
                        for j in range(max(0, order - n), order + 1)
                        if j < len(S) and order - j < len(B))
            assert coeff == 0, f"order-{order} Pade condition violated"

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_float_view_matches_fractions(self, n):
        fr = pade_sinc_denominator(n, exact=True)
        fl = pade_sinc_denominator(n)
        assert fl.coeffs == pytest.approx([float(f) for f in fr], rel=1e-16)

    def test_normalization_and_parity(self):
        for n in (2, 4, 6, 8, 10):
            fr = pade_sinc_denominator(n, exact=True)
            assert fr[0] == 1
            assert len(fr) == n + 1
            assert all(f == 0 for f in fr[1::2])

    def test_unsupported_degrees(self):
        for n in (0, 3, 12, 20):
            with pytest.raises(ValueError):
                pade_sinc_denominator(n)


class TestGaussLegendre:
    def test_weight_sum_is_length(self):
        rule = gauss_legendre(7, -2.0, 0.0)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
        assert rule.nodes.min() > -2.0 and rule.nodes.max() < 0.0

    def test_single_node_is_midpoint(self):
        rule = gauss_legendre(1, 0.0, 4.0)
        assert rule.nodes == pytest.approx([2.0])
        assert rule.weights == pytest.approx([4.0])

    @given(st.integers(min_value=1, max_value=10))
    def test_polynomial_exactness(self, nu):
        rule = gauss_legendre(nu, -1.0, 3.0)
        for d in range(2 * nu):
            exact = (3.0 ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            quad = rule.integrate(lambda x, d=d: x**d)
            assert quad == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(3, 1.0, 1.0)


class TestScalarApproximants:
    def test_exp_pade_degree_one_value(self):
        # E_1(1) = 0.8 in closed form; its distance to sinc(1) is the
        # frozen regression value
        assert sinc_approx_exp_pade(1, 1.0) == pytest.approx(0.8, rel=1e-13)
        err = abs(sinc_approx_exp_pade(1, 1.0) - np.sin(1.0))
        assert err == pytest.approx(0.04147098480789646, abs=1e-13)

    def test_both_approximants_hit_one_at_zero(self):
        for n in (1, 2, 3):
            assert sinc_approx_exp_pade(n, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert sinc_approx_hyp_sym(n, 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_real_on_real_axis(self, n):
        z = np.linspace(0.0, 6.0, 25)
        for f in (sinc_approx_exp_pade, sinc_approx_hyp_sym):
            vals = f(n, z)
            assert np.isrealobj(vals)
            assert np.all(np.isfinite(vals))

    def test_high_order_tracks_sinc_closely(self):
        # the degree-5 a-priori bounds on [0, 2] are about 2e-7 (exp
        # construction) and 2e-8 (symmetrized hypergeometric)
        z = np.linspace(0.0, 2.0, 50)
        assert np.max(np.abs(sinc_approx_exp_pade(5, z) - sinc(z))) < 5e-7
        assert np.max(np.abs(sinc_approx_hyp_sym(5, z) - sinc(z))) < 5e-8
