"""Trigonometric integrator: exactness, order, stability, backends."""

import numpy as np
import pytest
import scipy.sparse as sp

import sincint.expsum as expsum_module
import sincint.integrators as integrators_module
from sincint.cli import parse_backend
from sincint.densefun import psi_apply_dense, sigma_apply_dense
from sincint.expsum import expsum_sinc, expsum_sinc2
from sincint.integrators import (
    BlowUpError,
    DenseBackend,
    ExpSumBackend,
    RationalKrylovBackend,
    SecondOrderIVP,
    Trajectory,
    discrete_energy,
    gautschi_init,
    gautschi_integrate,
    gautschi_step,
    make_filters,
    stormer_verlet_integrate,
)
from sincint.problems import (laplacian_1d, laplacian_2d, synthetic_problem,
                              synthetic_reference)

from conftest import random_spd


def _harmonic_ivp(omega=2.0, y0=1.0, v0=0.5, tf=1.0):
    A = sp.csr_matrix(np.diag([omega * omega]))
    return SecondOrderIVP(A=A, y0=np.array([y0]), y1=np.array([v0]), tf=tf)


class TestExactness:
    def test_harmonic_oscillator_exact_per_step(self):
        """The filtered scheme reproduces cos/sin modes to roundoff."""
        omega, y0, v0 = 2.0, 1.0, 0.5
        ivp = _harmonic_ivp(omega, y0, v0)
        traj = gautschi_integrate(ivp, 0.01, DenseBackend())
        for t, y in zip(traj.times, traj.states):
            exact = np.cos(omega * t) * y0 + np.sin(omega * t) / omega * v0
            assert abs(y[0] - exact) <= 1e-13

    def test_free_flight_is_exact(self):
        A = sp.csr_matrix((3, 3))
        v0 = np.array([1.0, 2.0, 3.0])
        ivp = SecondOrderIVP(A=A, y0=np.ones(3), y1=v0, tf=2.0)
        traj = gautschi_integrate(ivp, 0.25, DenseBackend())
        assert np.array_equal(traj.final, np.ones(3) + 2.0 * v0)

    def test_constant_forcing_quadratic_exact(self):
        c = np.array([0.3, -0.7])
        ivp = SecondOrderIVP(A=sp.csr_matrix((2, 2)), y0=np.zeros(2),
                             y1=np.zeros(2), forcing=lambda t: c, tf=2.0)
        traj = stormer_verlet_integrate(ivp, 0.125)
        assert np.allclose(traj.final, 0.5 * 2.0**2 * c, atol=1e-14)

    def test_two_step_difference_identity(self):
        """y_{n+1} - 2 y_n + y_{n-1} = h^2 psi(h^2 A)(f_n - A y_n)."""
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        h = 0.05
        traj = gautschi_integrate(ivp, h, DenseBackend())
        A = ivp.A
        worst = 0.0
        for n in range(1, len(traj.times) - 1):
            g = ivp.forcing(traj.times[n]) - A @ traj.states[n]
            lhs = traj.states[n + 1] - 2.0 * traj.states[n] + traj.states[n - 1]
            rhs = h * h * psi_apply_dense(A, g, h=h)
            worst = max(worst, np.linalg.norm(lhs - rhs))
        assert worst <= 1e-12

    def test_first_step_matches_filter_formulas(self):
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        h = 0.1
        state = gautschi_init(ivp, h, make_filters(ivp.A, h, DenseBackend()))
        g0 = ivp.forcing(0.0) - ivp.A @ ivp.y0
        v_half = (sigma_apply_dense(ivp.A, ivp.y1, h=h)
                  + 0.5 * h * psi_apply_dense(ivp.A, g0, h=h))
        assert np.allclose(state.v_half, v_half, atol=1e-13)
        nxt = gautschi_step(state, ivp, make_filters(ivp.A, h, DenseBackend()))
        assert np.allclose(nxt.y, ivp.y0 + h * v_half, atol=1e-13)
        assert nxt.n == 1 and nxt.t == pytest.approx(h)


class TestOrderAndAccuracy:
    def test_second_order_on_synthetic_problem(self):
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        ref = synthetic_reference(prob, 1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            traj = stormer_verlet_integrate(ivp, h)
            errs.append(np.linalg.norm(traj.final - ref) / np.linalg.norm(ref))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(1.7 <= p <= 2.3 for p in orders), orders

    def test_krylov_backend_tracks_dense(self):
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        dense = gautschi_integrate(ivp, 0.05, DenseBackend())
        kry = gautschi_integrate(ivp, 0.05, RationalKrylovBackend(family="E", n=8))
        assert np.linalg.norm(kry.final - dense.final) <= 1e-12

    def test_expsum_backend_tracks_dense(self):
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        dense = gautschi_integrate(ivp, 0.05, DenseBackend())
        es = gautschi_integrate(ivp, 0.05, ExpSumBackend(nu=10))
        assert np.linalg.norm(es.final - dense.final) <= 1e-10

    def test_dense_inner_expsum_backend_tracks_dense(self):
        # the older expsum:NU:K:dense spelling runs the same engine
        prob = synthetic_problem(20)
        ivp = prob.as_ivp(tf=1.0)
        dense = gautschi_integrate(ivp, 0.05, DenseBackend())
        es = gautschi_integrate(ivp, 0.05, parse_backend("expsum:10:10:dense"))
        assert np.linalg.norm(es.final - dense.final) <= 1e-10


def _count_eigendecompositions(monkeypatch):
    """Wrap sym_eigendecomposition where the engines look it up."""
    calls = []
    for module in (integrators_module, expsum_module):
        original = module.sym_eigendecomposition

        def counted(A, _original=original):
            calls.append(A.shape)
            return _original(A)

        monkeypatch.setattr(module, "sym_eigendecomposition", counted)
    return calls


class TestDenseInnerExpSumEngine:
    A = 1e4 * laplacian_1d(200)
    backend = ExpSumBackend(nu=8)
    h = 0.01

    def test_one_eigendecomposition_per_engine(self, monkeypatch):
        calls = _count_eigendecompositions(monkeypatch)
        rng = np.random.default_rng(0)
        ivp = SecondOrderIVP(A=self.A, y0=rng.standard_normal(200),
                             y1=rng.standard_normal(200))
        engine = make_filters(self.A, self.h, self.backend)
        state = gautschi_init(ivp, self.h, engine)
        for _ in range(4):
            state = gautschi_step(state, ivp, engine)
        assert len(calls) == 1

    def test_engine_matches_expsum_products(self):
        h = self.h
        w = np.random.default_rng(1).standard_normal(200)
        engine = make_filters(self.A, h, self.backend)
        want_psi = expsum_sinc2(
            self.A, w, 8,
            eig_map=lambda lam: 0.5 * h * np.sqrt(np.clip(lam, 0.0, None)))
        want_sigma = expsum_sinc(
            self.A, w, 8,
            eig_map=lambda lam: h * np.sqrt(np.clip(lam, 0.0, None)))
        assert np.array_equal(engine.psi(w), want_psi)
        assert np.array_equal(engine.sigma(w), want_sigma)


class TestStability:
    def test_leapfrog_blows_up_past_cfl(self):
        A = sp.csr_matrix(np.diag([1e4]))
        ivp = SecondOrderIVP(A=A, y0=np.array([1.0]), y1=np.zeros(1), tf=100.0)
        with pytest.raises(BlowUpError):
            stormer_verlet_integrate(ivp, 1.0)

    def test_filtered_scheme_stable_past_cfl(self):
        A = sp.csr_matrix(np.diag([1e4]))
        ivp = SecondOrderIVP(A=A, y0=np.array([1.0]), y1=np.zeros(1), tf=100.0)
        traj = gautschi_integrate(ivp, 1.0, DenseBackend())
        assert np.max(np.abs(traj.states)) <= 1.0 + 1e-12

    def test_energy_bounded_over_long_run(self):
        L = laplacian_1d(64)
        rng = np.random.default_rng(3)
        ivp = SecondOrderIVP(A=L, y0=rng.standard_normal(64),
                             y1=rng.standard_normal(64), tf=500.0)
        traj = gautschi_integrate(ivp, 0.5, DenseBackend())
        E = discrete_energy(traj, L, v0=ivp.y1)
        assert E.shape == (1001,)
        assert np.all(E / E[0] >= 0.7) and np.all(E / E[0] <= 1.05)
        # bounded oscillation, not drift: early and late windows agree
        assert np.mean(E[-250:]) == pytest.approx(np.mean(E[:250]), rel=0.05)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e150,
                                       1e200], ids=str)
    def test_blow_up_check_raises_and_never_warns(self, value):
        """NaN, inf, a norm above the 1e150 cap and a finite vector
        whose squared norm overflows all raise BlowUpError; RuntimeWarning
        is an error in this suite, so a warning would fail here."""
        y = np.ones(10)
        y[3] = value
        with pytest.raises(BlowUpError, match="at step 7, t=0.5"):
            integrators_module._check_finite(y, 7, 0.5)

    def test_blow_up_check_passes_up_to_the_cap(self):
        integrators_module._check_finite(np.array([1e150, 0.0]), 1, 0.0)
        integrators_module._check_finite(np.array([-1e150]), 1, 0.0)
        integrators_module._check_finite(np.zeros(3), 1, 0.0)

    def test_leapfrog_past_the_overflow_of_the_squared_norm(self):
        """The iterates pass 1.3e154, where the squared norm overflows,
        before the cap check sees them."""
        ivp = SecondOrderIVP(1e12 * laplacian_1d(10), np.ones(10),
                             np.zeros(10), tf=100.0)
        with pytest.raises(BlowUpError, match="at step 13"):
            stormer_verlet_integrate(ivp, 1.0)

    def test_huge_initial_velocity_is_a_blow_up(self):
        ivp = SecondOrderIVP(laplacian_1d(10), np.ones(10),
                             np.full(10, 1e200), tf=1.0)
        with pytest.raises(BlowUpError, match="at step 1"):
            gautschi_integrate(ivp, 0.5, DenseBackend())


class TestOperatorStorage:
    """SecondOrderIVP stores A by the rule of ShiftedSolveCache: an
    ndarray when its order is at most krylov._DENSE_ORDER (64) or more
    than half of it is nonzero, so rhs makes a dense product; a sparser
    sparse A of a larger order stays as given."""

    @pytest.mark.parametrize("n", [64, 65])
    def test_order_cutoff(self, n):
        A = 100.0 * laplacian_1d(n)
        ivp = SecondOrderIVP(A=A, y0=np.ones(n), y1=np.zeros(n),
                             forcing=lambda t: np.full(n, t))
        if n <= 64:
            assert isinstance(ivp.A, np.ndarray)
            assert np.array_equal(ivp.A, A.toarray())
        else:
            assert ivp.A is A
        y = np.random.default_rng(n).standard_normal(n)
        want = -(A @ y) + 0.5
        got = ivp.rhs(0.5, y)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("given", ["csr", "ndarray"])
    def test_full_operator_above_the_order_cutoff(self, given):
        """A CSR matrix of order 65, more than half full, is stored as an
        ndarray; an ndarray is kept, not copied.  rhs applies it by
        BLAS dsymv on its lower triangle."""
        A = random_spd(65, 2)
        dense = A.toarray()
        ivp = SecondOrderIVP(A=A if given == "csr" else dense,
                             y0=np.ones(65), y1=np.zeros(65))
        assert isinstance(ivp.A, np.ndarray) and ivp.A.dtype == np.float64
        assert np.array_equal(ivp.A, dense)
        if given == "ndarray":
            assert ivp.A is dense
        y = np.random.default_rng(1).standard_normal(65)
        want = -(dense @ y)
        assert np.linalg.norm(ivp.rhs(0.0, y) - want) <= (
            1e-15 * np.linalg.norm(want))
        ivp.A[np.triu_indices(65, 1)] = np.nan
        assert np.linalg.norm(ivp.rhs(0.0, y) - want) <= (
            1e-15 * np.linalg.norm(want))

    @pytest.mark.parametrize("given", ["csr", "ndarray"])
    @pytest.mark.parametrize("n", [3, 80])
    def test_nonsymmetric_dense_operator_is_refused(self, given, n):
        """An A stored dense is checked once, as the cache checks it:
        dsymv would apply the symmetric completion of its lower triangle
        instead."""
        A = random_spd(n, 3).toarray()
        A[n - 1, 0] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            SecondOrderIVP(A=sp.csr_matrix(A) if given == "csr" else A,
                           y0=np.ones(n), y1=np.zeros(n))

    def test_sparse_ndarray_above_the_cutoff_is_stored_csr(self):
        A = 100.0 * laplacian_1d(80)
        ivp = SecondOrderIVP(A=A.toarray(), y0=np.ones(80), y1=np.zeros(80))
        assert sp.issparse(ivp.A) and ivp.A.format == "csr"
        assert (ivp.A != A).nnz == 0

    def test_rhs_refuses_a_state_of_another_length(self):
        """dsymv would read the first n entries of a longer vector."""
        ivp = SecondOrderIVP(A=np.eye(3), y0=np.ones(3), y1=np.zeros(3))
        with pytest.raises(ValueError, match=r"shape \(4,\), not \(3,\)"):
            ivp.rhs(0.0, np.ones(4))

    def test_dense_and_large_operators_are_kept(self):
        dense = np.diag(np.arange(1.0, 4.0))
        assert SecondOrderIVP(A=dense, y0=np.ones(3), y1=np.ones(3)).A is dense
        coo = laplacian_1d(100).tocoo()
        assert SecondOrderIVP(A=coo, y0=np.ones(100),
                              y1=np.ones(100)).A is coo


class TestStepGuardPaths:
    """Each guard a step runs has two paths: a float64 ndarray of the
    right shape passes it with one test, and every other input takes the
    full guard, with the same messages and results as before."""

    @staticmethod
    def _ivp(storage, forcing=None):
        """Order 6, stored dense (rhs is dsymv), or order 80 and
        tridiagonal, kept sparse (rhs is the CSR product)."""
        A = (random_spd(6, 4).toarray() if storage == "dense"
             else 100.0 * laplacian_1d(80))
        n = A.shape[0]
        return SecondOrderIVP(A=A, y0=np.ones(n), y1=np.zeros(n),
                              forcing=forcing)

    @pytest.mark.parametrize("kind", ["float32", "strided", "list"])
    def test_state_of_another_type_or_layout(self, kind):
        ivp = self._ivp("dense")
        y = np.random.default_rng(2).standard_normal(6)
        given = {"float32": lambda: y.astype(np.float32),
                 "strided": lambda: np.repeat(y, 2)[::2],
                 "list": lambda: y.tolist()}[kind]()
        want = ivp.rhs(0.5, np.array(given, dtype=np.float64))
        got = ivp.rhs(0.5, given)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        if kind == "strided":
            assert np.array_equal(got, ivp.rhs(0.5, y))

    @pytest.mark.parametrize("y, message", [
        (np.ones(6) * (1 + 1j), "state must be real"),
        (np.ones(7), r"state has shape \(7,\), not \(6,\)"),
        (np.ones((6, 1)), r"state has shape \(6, 1\), not \(6,\)"),
        (np.ones(5).tolist(), r"state has shape \(5,\), not \(6,\)"),
    ], ids=["complex", "longer", "column", "short-list"])
    def test_state_refused(self, y, message):
        with pytest.raises(ValueError, match=message):
            self._ivp("dense").rhs(0.5, y)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("kind", ["list", "int", "column", "float32"])
    def test_forcing_of_another_type_or_shape(self, storage, kind):
        """Each is computed as its flat float64 copy, and added to the
        product as w + g would add it, bit for bit."""
        n = self._ivp(storage).dim
        g = np.arange(n) - 3
        given = {"list": g.tolist(), "int": g, "column": g.reshape(n, 1),
                 "float32": g.astype(np.float32)}[kind]
        plain = self._ivp(storage, forcing=lambda t: g.astype(np.float64))
        other = self._ivp(storage, forcing=lambda t: given)
        y = np.random.default_rng(5).standard_normal(n)
        got = other.rhs(0.5, y)
        assert got.dtype == np.float64
        assert np.array_equal(got, plain.rhs(0.5, y))
        assert np.array_equal(got, self._ivp(storage).rhs(0.5, y) + g)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_non_finite_forcing_at_either_end(self, storage, value, at):
        def forcing(t):
            g = np.ones(ivp.dim)
            g[0 if at == "first" else -1] = value
            return g

        ivp = self._ivp(storage, forcing=forcing)
        with pytest.raises(ValueError, match="forcing is not finite at t=0.5"):
            ivp.rhs(0.5, np.ones(ivp.dim))

    def test_huge_finite_forcing_is_finite(self):
        """nrm2 scales its sum, so a finite value past 1.3e154, whose
        squared norm overflows, passes the finiteness check."""
        ivp = self._ivp("dense", forcing=lambda t: np.full(6, 1e300))
        assert np.all(ivp.rhs(0.0, np.zeros(6)) == 1e300)

    @pytest.mark.parametrize("n", [1, 4097])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=str)
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_blow_up_check_at_either_end(self, n, value, at):
        """The nrm2 kernel takes its tail of a vector whose length is not
        a multiple of its block apart; a NaN or inf there fails too."""
        y = np.ones(n)
        y[0 if at == "first" else n - 1] = value
        with pytest.raises(BlowUpError, match="at step 3, t=0.25"):
            integrators_module._check_finite(y, 3, 0.25)
        integrators_module._check_finite(np.ones(n), 3, 0.25)

    def test_sparse_operator_is_kept_in_float64(self):
        """A sparse A left sparse keeps its format and object, in
        float64, so that rhs adds a forcing value into its own product."""
        A = laplacian_1d(80).astype(np.int64)
        ivp = SecondOrderIVP(A=A, y0=np.ones(80), y1=np.zeros(80),
                             forcing=lambda t: np.full(80, 0.5))
        assert ivp.A.format == "csr" and ivp.A.dtype == np.float64
        y = np.arange(80)
        assert np.array_equal(ivp.rhs(0.0, y), -(A @ y) + 0.5)

    def test_synthetic_run_with_list_forcing_is_bit_identical(self):
        prob = synthetic_problem(20)
        plain = prob.as_ivp(tf=1.0)
        listed = SecondOrderIVP(A=prob.A, y0=prob.y0, y1=prob.y1,
                                forcing=lambda t: prob.forcing(t).tolist(),
                                tf=1.0)
        backend = parse_backend("ratkrylov:E:1e-12")
        for h in (0.1, 0.01):
            want = gautschi_integrate(plain, h, backend)
            got = gautschi_integrate(listed, h, backend)
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.v_half, want.v_half)

    def test_rational_engine_stores_before_it_scales(self, monkeypatch):
        """A full CSR operator is stored dense before h^2 scales it, and
        the engine's matrix and interval are those of a cache built from
        the scaled CSR matrix, bit for bit."""
        given = []
        original = integrators_module.ShiftedSolveCache

        def recorded(A):
            given.append(A)
            return original(A)

        monkeypatch.setattr(integrators_module, "ShiftedSolveCache", recorded)
        from sincint.fem import structured_mesh, wave_demo_problem
        Atil = wave_demo_problem(structured_mesh(16)).Atil
        h = 0.02
        make_filters(Atil, h, RationalKrylovBackend("Lbar", n=4))
        (stored,) = given
        assert isinstance(stored, np.ndarray)
        cache = original(h * h * Atil)
        assert np.array_equal(stored, cache.matrix)
        assert original(stored).interval == cache.interval


def _energy_loop(traj, A, v0=None):
    """Reference: the per-step formula of discrete_energy."""
    E = np.empty(traj.times.shape[0])
    for n in range(E.shape[0]):
        if n == 0:
            v = v0 if v0 is not None else traj.v_half[0]
        else:
            v = 0.5 * (traj.v_half[n - 1] + traj.v_half[n])
        y = traj.states[n]
        E[n] = 0.5 * float(v @ v) + 0.5 * float(y @ (A @ y))
    return E


class TestDiscreteEnergy:
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("with_v0", [False, True])
    def test_matches_per_step_formula(self, dense, with_v0):
        L = laplacian_1d(16)
        rng = np.random.default_rng(5)
        ivp = SecondOrderIVP(A=L, y0=rng.standard_normal(16),
                             y1=rng.standard_normal(16), tf=2.0)
        traj = gautschi_integrate(ivp, 0.25, DenseBackend())
        A = L.toarray() if dense else L
        v0 = ivp.y1 if with_v0 else None
        got = discrete_energy(traj, A, v0=v0)
        want = _energy_loop(traj, A, v0=v0)
        assert got.shape == want.shape == (9,)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


_ENGINE_BACKENDS = [
    RationalKrylovBackend(family="E", n=8),
    RationalKrylovBackend(family="Lbar", n=6),
    RationalKrylovBackend(family="E", tol=1e-10),
    ExpSumBackend(nu=10),
]


class TestEngineProducts:
    A = synthetic_problem(20).A
    h = 0.05

    @pytest.mark.parametrize("backend", _ENGINE_BACKENDS, ids=repr)
    def test_sigma_tracks_dense(self, backend):
        engine = make_filters(self.A, self.h, backend)
        w = np.random.default_rng(2).standard_normal(20)
        want = sigma_apply_dense(self.A, w, h=self.h)
        got = engine.sigma(w)
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("backend", [DenseBackend()] + _ENGINE_BACKENDS,
                             ids=repr)
    def test_zero_vector_gives_exact_zeros(self, backend):
        engine = make_filters(self.A, self.h, backend)
        for product in (engine.psi, engine.sigma):
            out = product(np.zeros(20))
            assert out.dtype == np.float64
            assert np.array_equal(out, np.zeros(20))

    def test_zero_vector_on_a_near_pole_engine(self, monkeypatch):
        """Both E8 filters keep a near pole here, so a nonzero product
        builds a space; a zero one returns float64 zeros without one."""
        A = 31**2 * laplacian_2d(961)
        engine = make_filters(A, 0.06, RationalKrylovBackend("E", n=8))
        built = []
        original = integrators_module.build_space

        def counted(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(integrators_module, "build_space", counted)
        for product in (engine.psi, engine.sigma):
            out = product(np.zeros(961))
            assert out.dtype == np.float64
            assert np.array_equal(out, np.zeros(961))
        assert built == []
        for product in (engine.psi, engine.sigma):
            product(np.ones(961))
        assert len(built) == 2


class TestToleranceDrivenDegrees:
    def test_degrees_shrink_with_step_size(self):
        prob = synthetic_problem(20)
        degrees = []
        for h in (0.1, 0.05, 0.025, 0.01):
            f = make_filters(prob.A, h, RationalKrylovBackend(family="E", tol=1e-12))
            degrees.append(f.pole_degree)
        assert degrees == [17, 9, 6, 4]

    def test_pade_family_refuses_tolerance_mode(self):
        prob = synthetic_problem(20)
        with pytest.raises(ValueError, match="pade-sinc"):
            make_filters(prob.A, 0.1,
                         RationalKrylovBackend(family="pade-sinc", tol=1e-10))


class TestValidation:
    def test_backend_needs_exactly_one_of_n_and_tol(self):
        with pytest.raises(ValueError):
            RationalKrylovBackend(family="E", n=4, tol=1e-8)
        with pytest.raises(ValueError):
            RationalKrylovBackend(family="E")

    def test_backend_checks_family_and_degree_when_made(self):
        """As ExpSumBackend checks nu; a tolerance is checked by the
        engine, which also knows whether the family has a bound."""
        with pytest.raises(ValueError, match="unknown pole family 'Q'"):
            RationalKrylovBackend(family="Q", n=4)
        with pytest.raises(ValueError, match="unknown pole family 'Q'"):
            RationalKrylovBackend(family="Q", tol=1e-8)
        for n in (0, -2, 3.0):
            with pytest.raises(ValueError, match="degree must be a positive"):
                RationalKrylovBackend(family="E", n=n)
        RationalKrylovBackend(family="pade-sinc", tol=1e-8)

    def test_step_must_divide_window(self):
        ivp = _harmonic_ivp(tf=1.0)
        with pytest.raises(ValueError):
            gautschi_integrate(ivp, 0.3, DenseBackend())

    def test_step_is_checked_before_any_engine_is_built(self, monkeypatch):
        built = []
        original = integrators_module.make_filters

        def counted(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(integrators_module, "make_filters", counted)
        for h, message in ((0.3, "does not divide the window"),
                           (0.0, "finite and positive"),
                           (np.nan, "finite and positive")):
            with pytest.raises(ValueError, match=message):
                gautschi_integrate(_harmonic_ivp(tf=1.0), h,
                                   RationalKrylovBackend("E", n=4))
        assert built == []

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf],
                             ids=["0", "-0.1", "nan", "inf"])
    def test_init_refuses_a_step_that_is_not_finite_and_positive(self, h):
        ivp = _harmonic_ivp()
        engine = make_filters(ivp.A, 0.1, DenseBackend())
        with pytest.raises(ValueError, match="finite and positive"):
            gautschi_init(ivp, h, engine)

    def test_unknown_backend_object(self):
        with pytest.raises(TypeError):
            make_filters(laplacian_1d(8), 0.1, object())

    def test_ivp_shape_checks(self):
        A = laplacian_1d(4)
        with pytest.raises(ValueError, match=r"square, got shape \(4, 3\)"):
            SecondOrderIVP(A=np.ones((4, 3)), y0=np.zeros(4), y1=np.zeros(4))
        with pytest.raises(ValueError):
            SecondOrderIVP(A=A, y0=np.zeros(3), y1=np.zeros(4))
        with pytest.raises(ValueError):
            SecondOrderIVP(A=A, y0=np.zeros(4), y1=np.zeros(4), tf=0.0)

    @pytest.mark.parametrize("spec", ["dense", "expsum:8", "ratkrylov:E:n4",
                                      "ratkrylov:E:1e-10"])
    @pytest.mark.parametrize("where", ["y0-nan", "y1-inf"])
    def test_non_finite_initial_data_are_refused(self, where, spec):
        """Non-finite data are a guard violation: run, they surface on
        every backend as a blow-up or as a failed eigensolve or shifted
        solve, a numerical failure with the wrong diagnosis."""
        A = 100.0 * laplacian_1d(20)
        y0, y1 = np.ones(20), np.ones(20)
        if where == "y0-nan":
            y0[3] = np.nan
        else:
            y1[3] = np.inf
        with pytest.raises(ValueError, match="initial data .* finite"):
            gautschi_integrate(SecondOrderIVP(A=A, y0=y0, y1=y1), 0.1,
                               parse_backend(spec))

    @pytest.mark.parametrize("spec", ["dense", "ratkrylov:E:n8"])
    @pytest.mark.parametrize("start, at", [(0.505, "0.51"), (0.995, "1")])
    def test_non_finite_forcing_is_refused_at_its_step(self, spec, start,
                                                       at):
        """A forcing that turns NaN mid-run, or only at the last step, is
        refused at the first step that meets it."""
        def forcing(t):
            return np.full(40, np.nan if t > start else 1.0)

        ivp = SecondOrderIVP(A=100.0 * laplacian_1d(40), y0=np.ones(40),
                             y1=np.zeros(40), forcing=forcing)
        with pytest.raises(ValueError, match=f"forcing .* at t={at}$"):
            gautschi_integrate(ivp, 0.01, parse_backend(spec))

    @pytest.mark.parametrize("spec", ["dense", "ratkrylov:E:n8"])
    @pytest.mark.parametrize("size", [1, 41])
    def test_forcing_of_the_wrong_shape_is_refused(self, spec, size):
        """A forcing value needs one entry per row of A: a length-1
        value is not broadcast, and a longer one is named, not left to
        numpy's broadcast error."""
        def forcing(t):
            return np.ones(size)

        ivp = SecondOrderIVP(A=100.0 * laplacian_1d(40), y0=np.ones(40),
                             y1=np.zeros(40), forcing=forcing)
        with pytest.raises(ValueError,
                           match=rf"forcing at t=0 has shape \({size},\), "
                                 r"not \(40,\)"):
            gautschi_integrate(ivp, 0.01, parse_backend(spec))

    def test_scalar_and_column_forcing(self):
        """A scalar is refused unless the system has order 1; a column
        of the right length is flattened."""
        A = 100.0 * laplacian_1d(10)
        scalar = SecondOrderIVP(A=A, y0=np.ones(10), y1=np.zeros(10),
                                forcing=np.sin)
        with pytest.raises(ValueError, match=r"shape \(\), not \(10,\)"):
            scalar.rhs(0.5, np.ones(10))
        column = SecondOrderIVP(A=A, y0=np.ones(10), y1=np.zeros(10),
                                forcing=lambda t: np.ones((10, 1)))
        assert np.array_equal(column.rhs(0.5, np.ones(10)),
                              -(A @ np.ones(10)) + 1.0)
        order_1 = SecondOrderIVP(A=np.eye(1), y0=[1.0], y1=[0.0],
                                 forcing=np.sin)
        assert order_1.rhs(0.5, np.ones(1)) == -1.0 + np.sin(0.5)

    def test_trajectory_dtype_and_layout(self):
        ivp = _harmonic_ivp(tf=0.5)
        traj = gautschi_integrate(ivp, 0.05, DenseBackend())
        assert isinstance(traj, Trajectory)
        assert traj.states.dtype == np.float64
        assert traj.v_half.shape == traj.states.shape
        assert np.allclose(np.diff(traj.times), 0.05)
