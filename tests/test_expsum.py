"""Exponential sums: quadrature identities, the dense engine, error bound."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import sincint.expsum as expsum_module
from sincint.bounds import expsum_bound
from sincint.densefun import sigma_apply_dense, sinc_apply_dense, sym_eigendecomposition
from sincint.expsum import (
    estimate_spectral_radius,
    expsum_error_check,
    expsum_sinc,
    expsum_sinc2,
)
from sincint.integrators import DenseBackend, ExpSumBackend, make_filters
from sincint.problems import laplacian_1d, laplacian_2d
from sincint.special import sinc

from conftest import random_spd


def _unit(n, seed=11):
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


class TestScalarLimits:
    def test_zero_matrix_is_identity(self):
        A = sp.csr_matrix((4, 4))
        v = _unit(4)
        assert np.allclose(expsum_sinc(A, v, 3), v, atol=1e-13)
        assert np.allclose(expsum_sinc2(A, v, 3), v, atol=1e-13)

    def test_scalar_diagonal_values(self):
        mu = np.array([0.5, np.pi / 2, 3.0])
        A = sp.csr_matrix(np.diag(mu))
        v = np.ones(3)
        got = expsum_sinc(A, v, 10)
        assert got == pytest.approx(np.sin(mu) / mu, abs=1e-10)
        got2 = expsum_sinc2(A, v, 10)
        assert got2 == pytest.approx((np.sin(mu) / mu) ** 2, abs=1e-10)


class TestConvergence:
    def test_node_count_drives_error_down(self):
        A = laplacian_1d(128)
        v = _unit(128)
        ref = sinc_apply_dense(A, v)
        errs = []
        for nu in (2, 4, 6, 8):
            y = expsum_sinc(A, v, nu)
            errs.append(np.linalg.norm(y - ref))
        # a-priori bound at nu=8 on this spectrum is about 1e-8
        assert errs[-1] < 1e-8
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_sinc2_matches_squared_oracle(self, lap64):
        v = _unit(64)
        lam, Q = sym_eigendecomposition(lap64)
        ref = Q @ (np.asarray(sinc(lam)) ** 2 * (Q.T @ v))
        y = expsum_sinc2(lap64, v, 14)
        assert np.linalg.norm(y - ref) <= 1e-10


class TestEigenvalueMap:
    def test_sigma_filter_through_map(self, lap64):
        v = _unit(64)
        h = 0.5
        y = expsum_sinc(lap64, v, 10,
                        eig_map=lambda lam: h * np.sqrt(np.clip(lam, 0, None)))
        ref = sigma_apply_dense(lap64, v, h=h)
        assert np.linalg.norm(y - ref) <= 1e-9

    def test_psi_filter_through_map(self, lap64):
        from sincint.densefun import psi_apply_dense

        v = _unit(64)
        h = 0.5
        y = expsum_sinc2(lap64, v, 10,
                         eig_map=lambda lam: 0.5 * h * np.sqrt(np.clip(lam, 0, None)))
        ref = psi_apply_dense(lap64, v, h=h)
        assert np.linalg.norm(y - ref) <= 1e-7


class TestErrorBound:
    def test_measured_below_bound_across_nodes(self):
        A = laplacian_2d(256)
        for nu in range(1, 13):
            measured, bound = expsum_error_check(A, nu)
            assert measured <= bound, f"nu={nu}: {measured} > {bound}"

    def test_bound_shrinks_superexponentially(self):
        A = laplacian_1d(64)
        _, b4 = expsum_error_check(A, 4)
        _, b8 = expsum_error_check(A, 8)
        assert b8 < 1e-6 * b4

    def test_bound_taken_at_exact_spectral_radius(self):
        # the power estimate reads 0.987 lambda_max here, under the radius
        A = sp.csr_matrix(np.diag(np.linspace(0.0, 8.0, 257)))
        for nu in (1, 4, 8, 12):
            _, bound = expsum_error_check(A, nu)
            assert bound >= expsum_bound(nu, 8.0)


class TestEngineWithinBound:
    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=1e-2, max_value=1e4),
           st.floats(min_value=1e-3, max_value=0.5),
           st.integers(min_value=1, max_value=12))
    def test_sigma_within_bound_of_dense(self, n, seed, lam_max, h, nu):
        A = random_spd(n, seed, lam_max=lam_max)
        top = float(np.linalg.eigvalsh(A.toarray())[-1])
        w = np.random.default_rng(seed).standard_normal(n)
        got = make_filters(A, h, ExpSumBackend(nu)).sigma(w)
        want = make_filters(A, h, DenseBackend()).sigma(w)
        bound = expsum_bound(nu, h * np.sqrt(top))
        assert np.linalg.norm(got - want) <= (bound + 1e-13) * np.linalg.norm(w)


class TestSpectralRadius:
    def test_close_to_truth_on_laplacian(self):
        A = laplacian_1d(512)
        lam_max = 2 - 2 * np.cos(512 * np.pi / 513)
        est = estimate_spectral_radius(A)
        assert 0.9 * lam_max <= est <= 1.02 * lam_max

    def test_dominant_gap_gives_upper_bound(self):
        A = sp.csr_matrix(np.diag([1.0, 2.0, 10.0]))
        est = estimate_spectral_radius(A)
        assert est >= 10.0
        assert est <= 10.0 * 1.011

    def test_zero_matrix(self):
        assert estimate_spectral_radius(sp.csr_matrix((3, 3))) == 0.0

    @pytest.mark.parametrize("iters", [2, 5, 30])
    def test_one_product_per_iteration(self, monkeypatch, iters):
        """k iterations take k + 1 products: the Rayleigh quotient's
        product is the next iteration's."""
        A = laplacian_1d(400)
        products = []

        class Counting:
            shape = A.shape

            def __matmul__(self, x):
                products.append(1)
                return A @ x

        monkeypatch.setattr(expsum_module, "_POWER_ITERS", iters)
        estimate_spectral_radius(Counting())
        assert 1 < len(products) <= iters + 1


class TestRealnessAndValidation:
    def test_outputs_real_dtype(self, lap64):
        v = _unit(64)
        assert expsum_sinc(lap64, v, 8).dtype == np.float64
        assert expsum_sinc2(lap64, v, 8).dtype == np.float64

    @pytest.mark.parametrize("nu", [0, -1, 2.0])
    def test_node_count_validation(self, monkeypatch, nu):
        def no_eigh(A):
            raise AssertionError("decomposed before validating nu")

        monkeypatch.setattr(expsum_module, "sym_eigendecomposition", no_eigh)
        for fn in (expsum_sinc, expsum_sinc2):
            with pytest.raises(ValueError, match="node count"):
                fn(laplacian_1d(8), np.ones(8), nu)
        with pytest.raises(ValueError, match="nu must be a positive integer"):
            ExpSumBackend(nu)

    def test_complex_vector_rejected(self):
        A = laplacian_1d(8)
        v = np.ones(8) + 1j * np.arange(8)
        for fn in (expsum_sinc, expsum_sinc2):
            with pytest.raises(ValueError, match="complex"):
                fn(A, v, 6)


class TestRuleBuiltOnce:
    def test_rule_built_once(self, monkeypatch, lap64):
        """Across products with one node count the Gauss-Legendre rule
        is built once."""
        calls = []
        original = np.polynomial.legendre.leggauss

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        expsum_module._coeffs.cache_clear()
        for seed in range(3):
            v = _unit(64, seed)
            expsum_sinc(lap64, v, 7)
            expsum_sinc2(lap64, v, 7)
        assert len(calls) == 1
