"""Rational Krylov spaces: orthonormality, exactness, guards, realness."""

import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import sincint.integrators as integrators_module
import sincint.krylov as krylov_module
import sincint.poles as poles_module
from sincint.densefun import sinc_apply_dense, sym_eigendecomposition
from sincint.fem import structured_mesh, wave_demo_problem
from sincint.krylov import (
    PoleCollisionError,
    ShiftedSolveCache,
    apply_function,
    build_space,
    sinc_apply,
)
from sincint.integrators import (
    RationalKrylovBackend,
    gautschi_integrate,
    make_filters,
)
from sincint.poles import (
    PoleSet,
    filter_poles,
    poles_E,
    poles_L,
    poles_Lbar,
    poles_pade_sinc,
)
from sincint.problems import laplacian_1d, laplacian_2d, synthetic_problem
from sincint.special import psi, sigma, sinc

from conftest import random_spd


def _seed_vector(n, seed=7):
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


class TestSpaceConstruction:
    @given(st.integers(min_value=3, max_value=24),
           st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_orthonormal_basis_and_hermitian_projection(self, n, seed, b, c):
        A = random_spd(n, seed)
        v = _seed_vector(n, seed + 1)
        poles = PoleSet((complex(-b, c), complex(-b, -c)))
        k = min(5, n)
        space = build_space(A, v, poles, k=k)
        m = space.dim
        G = space.V.conj().T @ space.V
        assert np.linalg.norm(G - np.eye(m)) <= 1e-12 * m
        herm = np.linalg.norm(space.A_k - space.A_k.conj().T)
        assert herm <= 1e-10 * max(np.linalg.norm(space.A_k), 1.0)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_orthonormal_on_mapped_poles(self, n):
        h = 0.01
        B = (h * h) * (63**2 * laplacian_2d(1024))
        cache = ShiftedSolveCache(B)
        v = _seed_vector(1024)
        for poles in filter_poles(poles_E(n)):
            V = build_space(B, v, poles, cache=cache).V
            G = V.conj().T @ V
            assert np.linalg.norm(G - np.eye(V.shape[1])) <= 1e-13

    def test_poles_consumed_cyclically(self):
        A = random_spd(16, 3)
        v = _seed_vector(16)
        space = build_space(A, v, PoleSet((-1.0 + 1j, -1.0 - 1j)), k=6)
        assert space.dim == 6

    def test_dimension_capped_at_order(self):
        A = random_spd(8, 0)
        space = build_space(A, _seed_vector(8), poles_E(12), k=50)
        assert space.dim <= 8

    def test_infinite_pole_gives_polynomial_space(self):
        A = sp.csr_matrix(np.diag([1.0, 2.0]))
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        inf = complex(np.inf, 0.0)
        space = build_space(A, v, PoleSet((inf,)), k=2)
        lam = np.sort(np.linalg.eigvalsh(space.A_k).real)
        assert lam == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_breakdown_on_invariant_subspace(self):
        A = sp.identity(10, format="csr")
        v = _seed_vector(10)
        space = build_space(A, v, poles_E(2), k=5)
        assert space.breakdown
        assert space.dim == 1
        y = apply_function(space, sinc, v)
        assert np.allclose(y, np.sin(1.0) * v, atol=1e-14)

    def test_zero_seed_rejected(self):
        A = random_spd(5, 1)
        with pytest.raises(ValueError, match="nonzero"):
            build_space(A, np.zeros(5), poles_E(1))

    def test_nonsymmetric_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 5.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            build_space(A, np.ones(2), poles_E(1))


class TestSymmetryCheck:
    def test_scanned_once_per_cache(self, monkeypatch):
        calls = []
        original = krylov_module._check_symmetric

        def counted(A, *args, **kwargs):
            calls.append(A.shape)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(krylov_module, "_check_symmetric", counted)
        A = random_spd(12, 4)
        cache = ShiftedSolveCache(A)
        for seed in range(3):
            build_space(A, _seed_vector(12, seed), poles_E(2), cache=cache)
        assert len(calls) == 1

    def test_cache_rejects_complex_matrix(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0j], [1.0j, 2.0]]))
        with pytest.raises(ValueError, match="real symmetric"):
            ShiftedSolveCache(A)

    def test_cache_rejects_dense_complex_matrix(self):
        with pytest.raises(ValueError, match="complex"):
            ShiftedSolveCache(np.array([[2, 1j], [1j, 2]]))

    def test_rejects_complex_seed(self):
        A = random_spd(6, 3)
        with pytest.raises(ValueError, match="complex"):
            build_space(A, np.ones(6) + 1j * np.arange(6), poles_E(1))

    def test_cache_rejects_nonsymmetric(self):
        A = sp.csr_matrix(np.array([[1.0, 5.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            ShiftedSolveCache(A)
        with pytest.raises(ValueError, match="symmetric"):
            build_space(A.toarray(), np.ones(2), poles_E(1))


class TestExactness:
    def test_rational_function_with_matching_denominator(self):
        """A space with poles z1, z2 reproduces f(A)v exactly for
        f(z) = 1/((z1 - z)(z2 - z))."""
        A = random_spd(20, 5)
        v = _seed_vector(20)
        z1, z2 = -0.7 + 0.9j, -0.7 - 0.9j

        def f(lam):
            return 1.0 / ((z1 - lam) * (z2 - lam))

        space = build_space(A, v, PoleSet((z1, z2)), k=3)
        got = apply_function(space, f, v)
        lam, Q = sym_eigendecomposition(A)
        want = Q @ (f(lam) * (Q.T @ v))
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_polynomial_exactness_with_infinite_poles(self):
        A = random_spd(12, 9)
        v = _seed_vector(12)
        inf = complex(np.inf, 0.0)
        space = build_space(A, v, PoleSet((inf, inf)), k=3)
        got = apply_function(space, lambda lam: lam**2, v)
        want = A @ (A @ v)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_full_space_is_exact(self):
        A = random_spd(10, 2)
        v = _seed_vector(10)
        y = sinc_apply(A, v, poles_E(6), k=10)
        want = sinc_apply_dense(A, v)
        assert np.linalg.norm(y - want) <= 1e-11 * np.linalg.norm(want)


class TestApplyGuards:
    def test_seed_mismatch_rejected(self):
        A = random_spd(15, 4)
        v = _seed_vector(15, 1)
        u = _seed_vector(15, 2)
        space = build_space(A, v, poles_E(2), k=4)
        with pytest.raises(ValueError, match="seed"):
            apply_function(space, sinc, u)

    def test_pole_collision_raises(self):
        A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        v = np.ones(3) / np.sqrt(3)
        with pytest.raises(PoleCollisionError):
            build_space(A, v, PoleSet((2.0 + 0j,)), k=2)


class TestRealness:
    def test_conjugate_closed_poles_give_real_result(self, lap64):
        v = _seed_vector(64)
        y = sinc_apply(lap64, v, poles_E(3))
        assert y.dtype == np.float64

    def test_imaginary_residue_within_invariant(self, lap64, monkeypatch):
        monkeypatch.setattr(krylov_module, "_REAL_GUARD_RTOL", 1e-10)
        v = _seed_vector(64)
        space = build_space(lap64, v, poles_E(3))
        y = apply_function(space, sinc, v)
        assert y.dtype == np.float64

    def test_one_sided_family_stays_complex(self, lap64):
        v = _seed_vector(64)
        y = sinc_apply(lap64, v, poles_L(3))
        assert y.dtype == np.complex128
        assert np.linalg.norm(y.imag) > 0


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("family,n", [("E", 4), ("pade-sinc", 6)])
    def test_sinc_accuracy_on_laplacian(self, lap64, family, n):
        v = _seed_vector(64)
        poles = poles_E(n) if family == "E" else poles_pade_sinc(n)
        y = sinc_apply(lap64, v, poles)
        want = sinc_apply_dense(lap64, v)
        rel = np.linalg.norm(y - want) / np.linalg.norm(want)
        assert rel <= 5e-6

    def test_filter_wrappers_match_dense(self, lap64):
        from sincint.densefun import psi_apply_dense, sigma_apply_dense
        from sincint.integrators import RationalKrylovBackend, make_filters

        v = _seed_vector(64)
        h = 0.25
        engine = make_filters(lap64, h, RationalKrylovBackend("E", n=5))
        yp = engine.psi(v)
        ys = engine.sigma(v)
        assert np.linalg.norm(yp - psi_apply_dense(lap64, v, h=h)) <= 1e-9
        assert np.linalg.norm(ys - sigma_apply_dense(lap64, v, h=h)) <= 1e-9

    def test_cache_reuse_is_transparent(self, lap64):
        v = _seed_vector(64)
        cache = ShiftedSolveCache(lap64)
        y1 = sinc_apply(lap64, v, poles_E(3), cache=cache)
        y2 = sinc_apply(lap64, v, poles_E(3), cache=cache)
        y3 = sinc_apply(lap64, v, poles_E(3))
        assert np.array_equal(y1, y2)
        assert np.allclose(y1, y3, atol=1e-14)


class TestConjugateClosureOnce:
    def test_scanned_once_across_products(self, monkeypatch):
        calls = []
        original = poles_module._conjugate_closed

        def counted(values):
            calls.append(len(values))
            return original(values)

        monkeypatch.setattr(poles_module, "_conjugate_closed", counted)
        A = random_spd(12, 4)
        cache = ShiftedSolveCache(A)
        poles = poles_E(3)
        for seed in range(4):
            v = _seed_vector(12, seed)
            y = apply_function(build_space(A, v, poles, cache=cache), sinc, v)
            assert y.dtype == np.float64
        assert calls == [len(poles)]


def _count_factorizations(monkeypatch) -> list:
    """Record the dtype of every matrix factored through krylov.spla.splu."""
    dtypes = []
    original = krylov_module.spla.splu

    def counted(M, *args, **kwargs):
        dtypes.append(M.dtype)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(krylov_module.spla, "splu", counted)
    return dtypes


def _complex_vector(n, seed=5):
    g = np.random.default_rng(seed)
    return g.standard_normal(n) + 1j * g.standard_normal(n)


class TestOneFactorizationPerPair:
    def test_E8_engine_factors_one_lu_per_pair(self, monkeypatch):
        """psi and sigma of E degree 8 have 17 shifts between them: the
        shared real origin and 8 conjugate pairs.  The engine's products
        settle before they reach all of them and factor 5; full spaces
        on its cache factor the other 4 pairs, one LU each."""
        dtypes = _count_factorizations(monkeypatch)
        engine = make_filters(15**2 * laplacian_2d(256), 0.01,
                              RationalKrylovBackend("E", n=8))
        v = _seed_vector(256)
        engine.psi(v)
        engine.sigma(v)
        assert len(dtypes) == 5
        assert dtypes.count(np.float64) == 1
        for poles in (engine._psi_poles, engine._sigma_poles):
            build_space(engine._B, v, poles, cache=engine._cache)
        assert len(dtypes) == 9
        assert dtypes.count(np.float64) == 1

    def test_Lbar4_psi_factors_two(self, monkeypatch):
        dtypes = _count_factorizations(monkeypatch)
        engine = make_filters(laplacian_1d(64), 0.25,
                              RationalKrylovBackend("Lbar", n=4))
        engine.psi(_seed_vector(64))
        assert len(dtypes) == 2

    def test_conjugate_shift_solves_on_the_pair_lu(self, monkeypatch):
        dtypes = _count_factorizations(monkeypatch)
        A = random_spd(40, 6)
        cache = ShiftedSolveCache(A)
        z = -0.8 + 1.3j
        b = _complex_vector(40)
        cache.solve(z, b)
        x = cache.solve(z.conjugate(), b)
        want = np.linalg.solve(z.conjugate() * np.eye(40) - A.toarray(), b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.complex128]

    def test_real_shift_takes_complex_rhs(self, monkeypatch):
        A = random_spd(40, 7)
        b = _complex_vector(40)
        shifted = sp.csc_matrix(-0.5 * np.eye(40) - A.toarray(),
                                dtype=np.complex128)
        want = spla.splu(shifted).solve(b)
        dtypes = _count_factorizations(monkeypatch)
        x = ShiftedSolveCache(A).solve(-0.5 + 0j, b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.float64]

    def test_singular_real_shift_raises(self):
        """E's origin pole on a singular PSD matrix (Neumann Laplacian)."""
        A = laplacian_1d(50).tolil()
        A[0, 0] = A[-1, -1] = 1.0
        engine = make_filters(A.tocsr(), 0.1, RationalKrylovBackend("E", n=4))
        with pytest.raises(PoleCollisionError, match="singular"):
            engine.psi(_seed_vector(50))


def _count_dense_factorizations(monkeypatch) -> list:
    """Record the dtype of every matrix factored through
    krylov.sla.lu_factor."""
    dtypes = []
    original = krylov_module.sla.lu_factor

    def counted(M, *args, **kwargs):
        dtypes.append(M.dtype)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(krylov_module.sla, "lu_factor", counted)
    return dtypes


class TestDenseRoute:
    """An ndarray is factored by LAPACK LU, with the sharing rules of
    the sparse route; the engine keeps a more than half full h^2 A
    dense."""

    def test_conjugate_pair_shares_one_complex_lu(self, monkeypatch):
        dtypes = _count_dense_factorizations(monkeypatch)
        superlu = _count_factorizations(monkeypatch)
        A = random_spd(40, 6).toarray()
        cache = ShiftedSolveCache(A)
        z = -0.8 + 1.3j
        b = _complex_vector(40)
        cache.solve(z, b)
        x = cache.solve(z.conjugate(), b)
        want = np.linalg.solve(z.conjugate() * np.eye(40) - A, b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.complex128]
        assert superlu == []

    def test_real_shift_factored_once_in_float64(self, monkeypatch):
        dtypes = _count_dense_factorizations(monkeypatch)
        A = random_spd(40, 7).toarray()
        cache = ShiftedSolveCache(A)
        for seed in (5, 6):
            b = _complex_vector(40, seed)
            x = cache.solve(-0.5 + 0j, b)
            want = np.linalg.solve((-0.5 * np.eye(40) - A).astype(complex), b)
            assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.float64]

    def test_exactly_singular_shift_raises_without_warning(self):
        cache = ShiftedSolveCache(np.diag([1.0, 2.0, 3.0, 4.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PoleCollisionError, match="singular"):
                cache.solve(2.0, np.ones(4))
        assert not [w for w in caught
                    if issubclass(w.category, krylov_module.sla.LinAlgWarning)]

    def test_full_fem_operator_is_factored_dense(self, monkeypatch):
        """Atil of the FEM wave demo is full, so the engine factors its
        shifted matrices with LAPACK and matches the SuperLU route."""
        h = 0.01
        Atil = wave_demo_problem(structured_mesh(8)).Atil
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        engine = make_filters(Atil, h, RationalKrylovBackend("E", n=8))
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal(Atil.shape[0]) for _ in range(3)]
        products = [(psi, [engine.psi(w) for w in inputs]),
                    (sigma, [engine.sigma(w) for w in inputs])]
        # the products settle before they reach more than the real
        # origin pole and one conjugate pair each of psi and sigma
        assert superlu == []
        assert lapack == [np.float64, np.complex128, np.complex128]
        B = sp.csc_matrix(Atil) * (h * h)
        sparse_cache = ShiftedSolveCache(B)
        psi_poles, sigma_poles = filter_poles(poles_E(8))
        for (f, got), poles in zip(products, (psi_poles, sigma_poles)):
            for w, y in zip(inputs, got):
                space = build_space(B, w, poles, cache=sparse_cache)
                want = apply_function(space, f, w)
                assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)

    def test_sparse_operator_still_uses_superlu(self, monkeypatch):
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        A = synthetic_problem(20).A
        engine = make_filters(A, 0.05, RationalKrylovBackend("E", n=8))
        engine.psi(_seed_vector(20))
        assert superlu and not lapack


class TestFillReducingOrder:
    def test_lap2d_pair_lu_has_about_half_the_colamd_fill(self, monkeypatch):
        """The shifted matrices keep the symmetric pattern of A, which a
        minimum-degree order on A^T + A fills far less than SuperLU's
        default COLAMD (0.53 of its fill at order 4096)."""
        B = 63**2 * laplacian_2d(4096) * 1e-4
        zeta = next(z for z in filter_poles(poles_E(8))[0].values
                    if z.imag > 0)
        M = (zeta * sp.identity(4096, format="csc") - B).tocsc()
        colamd_nnz = spla.splu(M).nnz
        lus = []
        original = krylov_module.spla.splu

        def recorded(*args, **kwargs):
            lus.append(original(*args, **kwargs))
            return lus[-1]

        monkeypatch.setattr(krylov_module.spla, "splu", recorded)
        ShiftedSolveCache(B).solve(zeta, _seed_vector(4096))
        assert len(lus) == 1
        assert lus[0].nnz <= 0.6 * colamd_nnz


def _synthetic_sweep_spaces() -> list:
    """(dimension, breakdown) of every space the synthetic_problem(20)
    sweep over h = 0.1 .. 0.01 builds with ratkrylov:E:1e-12."""
    spaces = []
    original = integrators_module.build_space

    def recorded(*args, **kwargs):
        space = original(*args, **kwargs)
        spaces.append((space.dim, space.breakdown))
        return space

    ivp = synthetic_problem(20).as_ivp(tf=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrators_module, "build_space", recorded)
        for h in (0.1, 0.05, 0.025, 0.01):
            gautschi_integrate(ivp, h, RationalKrylovBackend("E", tol=1e-12))
    return spaces


class TestBreakdownAboveRoundoff:
    def test_breakdowns_do_not_depend_on_the_lu_order(self, monkeypatch):
        """Directions taken after the space is invariant are roundoff
        (at most about 2e-13 of their norm before orthogonalization) and
        genuine ones are at least 1e-6, so a 1e-10 threshold gives the
        same spaces whatever order the LU eliminates in."""
        spaces = _synthetic_sweep_spaces()
        original = krylov_module.spla.splu

        def colamd(M, *args, **kwargs):
            kwargs["permc_spec"] = "COLAMD"
            return original(M, *args, **kwargs)

        monkeypatch.setattr(krylov_module.spla, "splu", colamd)
        assert _synthetic_sweep_spaces() == spaces
        assert any(breakdown for _, breakdown in spaces)


class TestPoleSetsOncePerProcess:
    def test_engines_of_one_family_and_degree_share_pole_sets(
            self, monkeypatch):
        calls = []
        original = poles_module.poly_roots

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(poles_module, "poly_roots", counted)
        integrators_module._filter_pole_sets.cache_clear()
        A = laplacian_1d(16)
        first = make_filters(A, 0.1, RationalKrylovBackend("E", n=5))
        second = make_filters(A, 0.2, RationalKrylovBackend("E", n=5))
        assert first._psi_poles is second._psi_poles
        assert first._sigma_poles is second._sigma_poles
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [0, -2, 3.0])
    def test_invalid_degree_still_raises(self, n):
        A = laplacian_1d(16)
        make_filters(A, 0.1, RationalKrylovBackend("E", n=3))
        for _ in range(2):
            with pytest.raises(ValueError, match="degree"):
                make_filters(A, 0.1, RationalKrylovBackend("E", n=n))


# 31^2 * laplacian_2d(1024) at h = 0.01, whose filters are diagonal in
# the 2D DST-I basis (grid index of entry i*m + j is (i, j))
_M = 31
_H = 0.01
_LAP_MU = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, _M + 1) / (_M + 1))
_LAP_LAM = _M**2 * (_LAP_MU[:, None] + _LAP_MU[None, :]).reshape(-1)


def _lap_operator():
    return _M**2 * laplacian_2d(_M * _M)


def _dst(x):
    return scipy.fft.dstn(x.reshape(_M, _M), type=1,
                          norm="ortho").reshape(-1)


def _exact_psi(w):
    r = np.sqrt(_H * _H * _LAP_LAM) / np.pi
    return _dst(np.sinc(r / 2) ** 2 * _dst(w))


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _recorded_builds(monkeypatch) -> list:
    """(k, dimension) of every space the engines build: the first
    dimension checked and the one where growth stopped."""
    builds = []
    original = integrators_module.build_space

    def recorded(*args, **kwargs):
        space = original(*args, **kwargs)
        builds.append((kwargs.get("k"), space.dim))
        return space

    monkeypatch.setattr(integrators_module, "build_space", recorded)
    return builds


def _counted_solves(monkeypatch) -> list:
    calls = []
    original = ShiftedSolveCache.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedSolveCache, "solve", counted)
    return calls


class TestSettledDimension:
    """Each product grows its space until the last column moved the
    projected coefficients by at most the settling tolerance, checking
    from where the filter's previous product stopped (from 2 for the
    first), and builds each space once."""

    def test_failed_check_grows_on(self, monkeypatch):
        A = _lap_operator()
        engine = make_filters(A, _H, RationalKrylovBackend("E", n=8))
        builds = _recorded_builds(monkeypatch)
        rng = np.random.default_rng(0)
        lowest = _dst(np.eye(1, _M * _M)[0])
        inputs = [lowest + 1e-8 * rng.standard_normal(_M * _M),
                  rng.standard_normal(_M * _M),
                  rng.standard_normal(_M * _M),
                  A @ rng.standard_normal(_M * _M)]
        per_product = []
        for w in inputs:
            del builds[:]
            assert _rel(engine.psi(w), _exact_psi(w)) <= 1e-13
            per_product.append(list(builds))
        # near one eigenvector the psi coefficients settle after a few
        # columns, too few for a random input, whose check there fails
        # and which grows on in the same space instead of rebuilding 18
        assert per_product == [[(2, 5)], [(5, 8)], [(8, 8)], [(8, 8)]]

    def test_later_products_do_half_the_solves(self, monkeypatch):
        A = _lap_operator()
        B = sp.csc_matrix(A) * (_H * _H)
        psi_poles, sigma_poles = filter_poles(poles_E(8))
        engine = make_filters(A, _H, RationalKrylovBackend("E", n=8))
        rng = np.random.default_rng(4)
        top = np.zeros(_M * _M)
        top[np.argsort(_LAP_LAM)[-10:]] = rng.standard_normal(10)
        inputs = [rng.standard_normal(_M * _M),
                  A @ rng.standard_normal(_M * _M),
                  _dst(top)]
        solves = _counted_solves(monkeypatch)
        engine.psi(rng.standard_normal(_M * _M))
        assert len(solves) == 7
        for w in inputs:
            del solves[:]
            got = engine.psi(w)
            assert len(solves) == 7
            want = apply_function(build_space(B, w, psi_poles), psi, w)
            assert _rel(got, want) <= 1e-13
        w = inputs[0]
        del solves[:]
        engine.sigma(rng.standard_normal(_M * _M))
        assert len(solves) == 7
        del solves[:]
        got = engine.sigma(w)
        assert len(solves) == 7
        want = apply_function(build_space(B, w, sigma_poles), sigma, w)
        assert _rel(got, want) <= 1e-13


_FEM_ATIL = wave_demo_problem(structured_mesh(8)).Atil
_FEM_Q = sym_eigendecomposition(_FEM_ATIL)[1]


def _property_input(kind: str, operator: str, rng) -> np.ndarray:
    """A seed of the given kind: random, one eigenvector plus 1e-8
    noise, a mix of the 10 highest modes, or A times a random vector."""
    if operator == "lap2d":
        A, to_grid = _lap_operator(), _dst
        ascending = np.argsort(_LAP_LAM)
    else:
        A, to_grid = _FEM_ATIL, lambda c: _FEM_Q @ c
        ascending = np.arange(_FEM_ATIL.shape[0])
    n = A.shape[0]
    if kind == "random":
        return rng.standard_normal(n)
    if kind == "A_random":
        return A @ rng.standard_normal(n)
    c = np.zeros(n)
    if kind == "eigenvector":
        c[rng.integers(n)] = 1.0
        return to_grid(c) + 1e-8 * rng.standard_normal(n)
    c[ascending[-10:]] = rng.standard_normal(10)
    return to_grid(c)


# one to three products per filter and engine, so that later products,
# which check from where the one before stopped, are covered too
_INPUT_KINDS = st.lists(st.sampled_from(["random", "eigenvector", "top",
                                         "A_random"]),
                        min_size=1, max_size=3)


class TestEngineMatchesFullSpace:
    """The engine's products, first ones included, which stop where
    their coefficients settle, agree with the full space of every pole.

    The bound is relative to the input: psi and sigma have norm at most
    1, and where the product is small against its input (the highest
    modes at h near 0.1 shrink to 1e-4 of it) two full spaces that
    differ only in the order of their rounding already differ by up to
    5e-13 of the product."""

    @staticmethod
    def _check_products(operator, backend, h, kinds, seed):
        A = _lap_operator() if operator == "lap2d" else _FEM_ATIL
        engine = make_filters(A, h, backend)
        rng = np.random.default_rng(seed)
        for f, poles, product in ((psi, engine._psi_poles, engine.psi),
                                  (sigma, engine._sigma_poles, engine.sigma)):
            for kind in kinds:
                w = _property_input(kind, operator, rng)
                got = product(w)
                want = apply_function(build_space(engine._B, w, poles), f, w)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(w)

    @given(st.integers(min_value=4, max_value=10),
           st.floats(min_value=0.01, max_value=0.1), _INPUT_KINDS,
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_lap2d_E_products(self, degree, h, kinds, seed):
        self._check_products("lap2d", RationalKrylovBackend("E", n=degree),
                             h, kinds, seed)

    @given(st.floats(min_value=0.01, max_value=0.1), _INPUT_KINDS,
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_fem_Lbar4_products(self, h, kinds, seed):
        self._check_products("fem", RationalKrylovBackend("Lbar", n=4),
                             h, kinds, seed)
