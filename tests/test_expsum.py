"""Exponential sums: quadrature identities, inner routes, error bound."""

import numpy as np
import pytest
import scipy.sparse as sp

import sincint.expsum as expsum_module
from sincint.densefun import sigma_apply_dense, sinc_apply_dense, sym_eigendecomposition
from sincint.expsum import (
    ExpSumPlan,
    estimate_spectral_radius,
    expsum_error_check,
    expsum_sinc,
    expsum_sinc2,
)
from sincint.krylov import ShiftedSolveCache
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
        for route in ("dense", "krylov"):
            plan = ExpSumPlan(nu=3, inner=route, k=4)
            assert np.allclose(expsum_sinc(A, v, plan), v, atol=1e-13)
            assert np.allclose(expsum_sinc2(A, v, plan), v, atol=1e-13)

    def test_scalar_diagonal_values(self):
        mu = np.array([0.5, np.pi / 2, 3.0])
        A = sp.csr_matrix(np.diag(mu))
        v = np.ones(3)
        plan = ExpSumPlan(nu=10, inner="dense")
        got = expsum_sinc(A, v, plan)
        assert got == pytest.approx(np.sin(mu) / mu, abs=1e-10)
        got2 = expsum_sinc2(A, v, plan)
        assert got2 == pytest.approx((np.sin(mu) / mu) ** 2, abs=1e-10)


class TestConvergence:
    def test_node_count_drives_error_down(self):
        A = laplacian_1d(128)
        v = _unit(128)
        ref = sinc_apply_dense(A, v)
        errs = []
        for nu in (2, 4, 6, 8):
            y = expsum_sinc(A, v, ExpSumPlan(nu=nu, inner="dense"))
            errs.append(np.linalg.norm(y - ref))
        # a-priori bound at nu=8 on this spectrum is about 1e-8
        assert errs[-1] < 1e-8
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_krylov_with_full_space_matches_dense_route(self):
        # k = n - 1 poles span the whole space, so the projected sum is exact
        A = random_spd(16, 8, lam_max=5.0)
        v = _unit(16)
        y_d = expsum_sinc(A, v, ExpSumPlan(nu=9, inner="dense"))
        y_k = expsum_sinc(A, v, ExpSumPlan(nu=9, inner="krylov", k=15))
        assert np.linalg.norm(y_d - y_k) <= 1e-10

    def test_krylov_route_on_laplacian(self):
        A = laplacian_1d(256)
        v = _unit(256)
        ref = sinc_apply_dense(A, v)
        y = expsum_sinc(A, v, ExpSumPlan(nu=12, inner="krylov", k=12))
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 1e-6

    def test_sinc2_matches_squared_oracle(self, lap64):
        v = _unit(64)
        lam, Q = sym_eigendecomposition(lap64)
        ref = Q @ (np.asarray(sinc(lam)) ** 2 * (Q.T @ v))
        y = expsum_sinc2(lap64, v, ExpSumPlan(nu=14, inner="dense"))
        assert np.linalg.norm(y - ref) <= 1e-10


class TestEigenvalueMap:
    def test_sigma_filter_through_map(self, lap64):
        v = _unit(64)
        h = 0.5
        plan = ExpSumPlan(nu=10, inner="dense")
        y = expsum_sinc(lap64, v, plan,
                        eig_map=lambda lam: h * np.sqrt(np.clip(lam, 0, None)))
        ref = sigma_apply_dense(lap64, v, h=h)
        assert np.linalg.norm(y - ref) <= 1e-9

    def test_psi_filter_through_map(self, lap64):
        from sincint.densefun import psi_apply_dense

        v = _unit(64)
        h = 0.5
        plan = ExpSumPlan(nu=10, inner="krylov", k=12)
        y = expsum_sinc2(lap64, v, plan,
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


class TestRealnessAndValidation:
    def test_outputs_real_dtype(self, lap64):
        v = _unit(64)
        for route, k in (("dense", 1), ("krylov", 10)):
            y = expsum_sinc(lap64, v, ExpSumPlan(nu=8, inner=route, k=k))
            assert y.dtype == np.float64

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExpSumPlan(nu=0)
        with pytest.raises(ValueError):
            ExpSumPlan(nu=3, inner="magic")
        with pytest.raises(ValueError):
            ExpSumPlan(nu=3, k=0)

    @pytest.mark.parametrize("route", ["dense", "krylov"])
    def test_complex_vector_rejected(self, route):
        A = laplacian_1d(8)
        v = np.ones(8) + 1j * np.arange(8)
        for fn in (expsum_sinc, expsum_sinc2):
            with pytest.raises(ValueError, match="complex"):
                fn(A, v, ExpSumPlan(nu=6, inner=route, k=4))

    def test_cache_shared_between_calls(self, lap64):
        v = _unit(64)
        cache = ShiftedSolveCache(lap64)
        plan = ExpSumPlan(nu=8, inner="krylov", k=8)
        y1 = expsum_sinc(lap64, v, plan, cache=cache)
        y2 = expsum_sinc2(lap64, v, plan, cache=cache)
        y1b = expsum_sinc(lap64, v, plan)
        assert np.allclose(y1, y1b, atol=1e-13)
        assert y2.dtype == np.float64


class TestPlanFactsOnce:
    def test_poles_and_rule_built_once(self, monkeypatch, lap64):
        """Across products with one Krylov-inner plan, the pade-exp poles
        and the Gauss-Legendre rule are each built once."""
        calls = {"poles_pade_exp": 0, "gauss_legendre": 0}
        for name in calls:
            original = getattr(expsum_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(expsum_module, name, counted)
        expsum_module._coeffs.cache_clear()
        plan = ExpSumPlan(nu=7, inner="krylov", k=6)
        cache = ShiftedSolveCache(lap64)
        for seed in range(3):
            v = _unit(64, seed)
            expsum_sinc(lap64, v, plan, cache=cache)
            expsum_sinc2(lap64, v, plan, cache=cache)
        assert calls == {"poles_pade_exp": 1, "gauss_legendre": 1}
