"""Benchmark operators and the closed-form forced-oscillator reference."""

import numpy as np
import pytest
import scipy.sparse as sp

import sincint.problems as problems_module
from sincint.densefun import sym_eigendecomposition
from sincint.integrators import DenseBackend, gautschi_integrate
from sincint.problems import (
    GRAM_SCALE,
    SyntheticProblem,
    laplacian_1d,
    laplacian_2d,
    rutishauser,
    spectral_interval,
    synthetic_problem,
    synthetic_reference,
)


class TestLaplacians:
    def test_1d_eigenvalues_closed_form(self):
        n = 8
        L = laplacian_1d(n).toarray()
        lam = np.sort(np.linalg.eigvalsh(L))
        k = np.arange(1, n + 1)
        assert np.allclose(lam, 2 - 2 * np.cos(k * np.pi / (n + 1)), atol=1e-12)

    def test_2d_is_kronecker_sum(self):
        m = 4
        T = laplacian_1d(m)
        eye = sp.identity(m)
        expected = (sp.kron(eye, T) + sp.kron(T, eye)).toarray()
        assert np.array_equal(laplacian_2d(m * m).toarray(), expected)

    def test_2d_rejects_non_square_order(self):
        with pytest.raises(ValueError):
            laplacian_2d(10)

    def test_1d_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            laplacian_1d(1)


class TestPentadiagonalOperator:
    def test_diagonals(self):
        T = rutishauser(6).toarray()
        assert T[0, 1] == 10 and T[1, 0] == -10
        assert T[0, 2] == 1 and T[2, 0] == 1
        assert np.all(np.diag(T) == 0)

    def test_eigenvalues_track_symbol_curve(self):
        """Spectrum hugs 2 cos(2 theta) + 20 i sin(theta) at order 50."""
        ev = np.linalg.eigvals(rutishauser(50).toarray())
        th = np.linspace(0, 2 * np.pi, 20001)
        curve = 2 * np.cos(2 * th) + 20j * np.sin(th)
        worst = max(np.min(np.abs(curve - z)) for z in ev)
        assert worst <= 0.5

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            rutishauser(4)


class TestSyntheticProblem:
    def test_gram_operator_symmetric_psd(self):
        prob = synthetic_problem(20)
        A = prob.A.toarray()
        assert np.allclose(A, A.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(A)) >= -1e-10

    def test_frozen_spectral_interval(self):
        lo, hi = spectral_interval(synthetic_problem(20).A)
        assert hi == pytest.approx(1213.806501, rel=1e-6)
        assert lo == pytest.approx(16.4808, rel=1e-4)

    def test_scale_constant_matches_operator(self):
        T = rutishauser(20)
        A = (GRAM_SCALE * (T @ T.T)).toarray()
        assert np.allclose(synthetic_problem(20).A.toarray(), A, atol=1e-12)

    def test_initial_data_and_forcing(self):
        prob = synthetic_problem(7, forcing_scale=0.5)
        assert np.array_equal(prob.y0, np.ones(7))
        assert np.array_equal(prob.y1, np.zeros(7))
        assert prob.forcing(np.pi / 2) == pytest.approx(0.5 * np.ones(7))
        assert prob.forcing(0.0) == pytest.approx(np.zeros(7))


class TestClosedFormReference:
    def test_matches_initial_condition(self):
        prob = synthetic_problem(20)
        assert np.linalg.norm(synthetic_reference(prob, 0.0) - prob.y0) <= 1e-12

    def test_matches_fine_time_integration(self):
        prob = synthetic_problem(20)
        traj = gautschi_integrate(prob.as_ivp(tf=0.5), 1e-4, DenseBackend())
        ref = synthetic_reference(prob, 0.5)
        rel = np.linalg.norm(traj.final - ref) / np.linalg.norm(ref)
        assert rel <= 1e-8

    def test_satisfies_ode_on_all_branches(self):
        """Central-difference residual of y'' + A y = f, including the
        zero-frequency, resonant, and near-resonant eigenvalue branches."""
        A = sp.csr_matrix(np.diag([0.0, 1.0, 1.0 + 1e-9, 2.0]))
        prob = SyntheticProblem(N=4, A=A)
        d = 1e-4
        for t in (0.7, 2.3):
            ym, y0, yp = (synthetic_reference(prob, t + s) for s in (-d, 0.0, d))
            acc = (yp - 2.0 * y0 + ym) / d**2
            rhs = -A @ y0 + prob.forcing(t)
            assert np.linalg.norm(acc - rhs) <= 5e-7

    @pytest.mark.parametrize("case", ["all-branch", "order-20"])
    def test_matches_per_mode_loop(self, case):
        if case == "all-branch":
            prob = SyntheticProblem(
                N=4, A=sp.csr_matrix(np.diag([0.0, 1.0, 1.0 + 1e-9, 2.0])))
        else:
            prob = synthetic_problem(20)
        prob.y1 = np.linspace(-1.0, 1.0, prob.N)
        for t in (0.0, 0.7, 2.3):
            want = _loop_reference(prob, t)
            got = synthetic_reference(prob, t)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_initial_velocity(self):
        prob = synthetic_problem(10)
        d = 1e-5
        vel = (synthetic_reference(prob, d) - synthetic_reference(prob, -d)) / (2 * d)
        assert np.linalg.norm(vel) <= 1e-7

    def test_order_guard(self):
        prob = synthetic_problem(20)
        prob.N = 5000
        with pytest.raises(ValueError):
            synthetic_reference(prob, 1.0)


def _loop_reference(prob, t):
    """The closed form evaluated one mode at a time, branch by branch."""
    lam, Q = sym_eigendecomposition(prob.A)
    a, b = Q.T @ prob.y0, Q.T @ prob.y1
    c = Q.T @ (prob.forcing_scale * np.ones(prob.N))
    out = np.empty_like(lam)
    for i, lm in enumerate(lam):
        if lm <= 1e-12:
            out[i] = a[i] + b[i] * t + c[i] * (t - np.sin(t))
            continue
        w = np.sqrt(lm)
        hom = a[i] * np.cos(w * t) + (b[i] / w) * np.sin(w * t)
        eps = lm - 1.0
        if abs(eps) <= 1e-7:
            forced = c[i] * (
                0.5 * (np.sin(t) - t * np.cos(t))
                - (eps / 8.0) * (3 * np.sin(t) - 3 * t * np.cos(t)
                                 - t * t * np.sin(t))
            )
        else:
            forced = c[i] / eps * (np.sin(t) - np.sin(w * t) / w)
        out[i] = hom + forced
    return Q @ out


class TestSpectralInterval:
    def test_dense_and_lanczos_paths_agree(self, monkeypatch):
        L = laplacian_1d(100)
        k = np.arange(1, 101)
        exact = 2 - 2 * np.cos(k * np.pi / 101)
        for cutoff in (1500, 50):
            monkeypatch.setattr(problems_module, "_INTERVAL_DENSE_ORDER",
                                cutoff)
            lo, hi = spectral_interval(L)
            assert lo == pytest.approx(exact[0], abs=1e-10)
            assert hi == pytest.approx(exact[-1], abs=1e-10)
