"""Rational Krylov spaces: orthonormality, exactness, guards, realness."""

import re
import warnings
from contextlib import contextmanager
from itertools import cycle, islice

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

import sincint.integrators as integrators_module
import sincint.krylov as krylov_module
import sincint.poles as poles_module
from sincint.densefun import (psi_apply_dense, sigma_apply_dense,
                              sinc_apply_dense, sym_eigendecomposition)
from sincint.fem import structured_mesh, wave_demo_problem
from sincint.krylov import (
    PoleCollisionError,
    ShiftedSolveCache,
    apply_function,
    build_space,
    sinc_apply,
)
from sincint.integrators import (
    DenseBackend,
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


_INF = complex(np.inf, 0.0)


def _seed_vector(n, seed=7):
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _engine_poles(A, h, family, n):
    """The solve cache of h^2 A, and the psi and sigma pole sets that
    the rational engine of (A, h) builds its spaces on: the family's
    filter poles with the far ones made infinite."""
    cache = ShiftedSolveCache(h * h * A)
    return cache, [integrators_module._far_poles_to_infinity(
        poles, *cache.interval)
        for poles in integrators_module._filter_pole_sets(family, n)]


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
        with pytest.raises(ValueError, match="matrix must be real"):
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


class TestSeedNormOverflow:
    """A finite seed whose squared norm overflows (entries past about
    1e154) is computed like any other: its norm comes from BLAS nrm2,
    which scales.  RuntimeWarning is an error in this suite, and these
    also turn it into one explicitly."""

    def test_sinc_apply(self):
        A = laplacian_1d(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sinc_apply(A, np.full(30, 1e160), poles_E(4))
        want = sinc_apply(A, np.ones(30), poles_E(4))
        assert got.dtype == np.float64
        assert _rel(got / 1e160, want) <= 1e-13

    def test_settling_filter_product(self, monkeypatch):
        """At h = 0.1 both E8 filters on the 2D Laplacian have near
        poles, so psi grows a settling space from the seed."""
        spaces = _counted_spaces(monkeypatch)
        engine = make_filters(63**2 * laplacian_2d(4096), 0.1,
                              RationalKrylovBackend("E", n=8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = engine.psi(np.full(4096, 1e160))
        want = engine.psi(np.ones(4096))
        assert len(spaces) == 2
        assert _rel(got / 1e160, want) <= 1e-13


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
        """psi and sigma of E degree 8 have 8 conjugate pairs between
        them; E's origin is the engine's polynomial step.  At h = 0.15
        every pair is near the spectrum.  The engine's products settle
        before they reach all of them and factor 7; full spaces of the
        engine's pole sets, on one fresh cache of h^2 A, factor all 8,
        one complex LU each."""
        dtypes = _count_factorizations(monkeypatch)
        A, h = 15**2 * laplacian_2d(256), 0.15
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        v = _seed_vector(256)
        engine.psi(v)
        engine.sigma(v)
        assert dtypes == [np.complex128] * 7
        cache, pole_sets = _engine_poles(A, h, "E", 8)
        for poles in pole_sets:
            build_space(cache.matrix, v, poles, cache=cache)
        assert dtypes == [np.complex128] * (7 + 8)

    def test_Lbar4_psi_factors_two(self, monkeypatch):
        dtypes = _count_factorizations(monkeypatch)
        engine = make_filters(laplacian_1d(128), 2.0,
                              RationalKrylovBackend("Lbar", n=4))
        engine.psi(_seed_vector(128))
        assert len(dtypes) == 2

    def test_conjugate_shift_solves_on_the_pair_lu(self, monkeypatch):
        dtypes = _count_factorizations(monkeypatch)
        A = _random_sparse_spd(100, 6)
        cache = ShiftedSolveCache(A)
        z = -0.8 + 1.3j
        b = _complex_vector(100)
        cache.solve(z, b)
        x = cache.solve(z.conjugate(), b)
        want = np.linalg.solve(z.conjugate() * np.eye(100) - A.toarray(), b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.complex128]

    def test_real_shift_takes_complex_rhs(self, monkeypatch):
        A = _random_sparse_spd(100, 7)
        b = _complex_vector(100)
        shifted = sp.csc_matrix(-0.5 * np.eye(100) - A.toarray(),
                                dtype=np.complex128)
        want = spla.splu(shifted).solve(b)
        dtypes = _count_factorizations(monkeypatch)
        x = ShiftedSolveCache(A).solve(-0.5 + 0j, b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert dtypes == [np.float64]

    def test_singular_real_shift_raises(self):
        """E's origin pole on a singular PSD matrix (Neumann Laplacian)."""
        with pytest.raises(PoleCollisionError, match="singular"):
            ShiftedSolveCache(_neumann_laplacian(50)).solve(
                0.0, _seed_vector(50))

    def test_zero_mode_works_at_a_small_step(self):
        """At h = 0.1 every pole of E degree 4 is far from the spectrum
        of the Neumann Laplacian's h^2 A, so the origin pole is a
        polynomial step too and the zero mode is never solved for."""
        A = _neumann_laplacian(50)
        engine = make_filters(A, 0.1, RationalKrylovBackend("E", n=4))
        dense = make_filters(A, 0.1, DenseBackend())
        v = _seed_vector(50)
        for product, want in ((engine.psi, dense.psi),
                              (engine.sigma, dense.sigma)):
            assert _rel(product(v), want(v)) <= 1e-13


def _neumann_laplacian(n):
    """The 1D Laplacian with Neumann ends: PSD, with the constant vector
    as its zero mode."""
    A = laplacian_1d(n).tolil()
    A[0, 0] = A[-1, -1] = 1.0
    return A.tocsr()


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
    """A matrix stored dense is factored by LAPACK LU, with the sharing
    rules of the sparse route."""

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
        """1.0 is an eigenvalue, and getrf meets an exact zero pivot in
        I - A = [[-1, -1], [-1, -1]]."""
        cache = ShiftedSolveCache(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PoleCollisionError, match="singular"):
                cache.solve(1.0, np.ones(2))
        assert not [w for w in caught
                    if issubclass(w.category, krylov_module.sla.LinAlgWarning)]

    def test_full_fem_operator_is_factored_dense(self, monkeypatch):
        """Atil of the FEM wave demo is full, so the engine factors its
        shifted matrices with LAPACK and matches the SuperLU route.  At
        h = 0.2 every pole of E degree 8 is near the spectrum."""
        h = 0.2
        Atil = wave_demo_problem(structured_mesh(8)).Atil
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        engine = make_filters(Atil, h, RationalKrylovBackend("E", n=8))
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal(Atil.shape[0]) for _ in range(3)]
        products = [(psi, [engine.psi(w) for w in inputs]),
                    (sigma, [engine.sigma(w) for w in inputs])]
        # the products settle before they reach more than six conjugate
        # pairs of psi and sigma; E's origin is a polynomial step
        assert superlu == []
        assert lapack == [np.complex128] * 6
        # the reference is kept sparse, so that SuperLU factors it
        monkeypatch.setattr(krylov_module, "_DENSE_FILL", 1.0)
        monkeypatch.setattr(krylov_module, "_DENSE_ORDER", 0)
        B = sp.csc_matrix(Atil) * (h * h)
        sparse_cache = ShiftedSolveCache(B)
        assert sp.issparse(sparse_cache.matrix)
        psi_poles, sigma_poles = filter_poles(poles_E(8))
        for (f, got), poles in zip(products, (psi_poles, sigma_poles)):
            for w, y in zip(inputs, got):
                space = build_space(B, w, poles, cache=sparse_cache)
                want = apply_function(space, f, w)
                assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)
        assert superlu

    @pytest.mark.parametrize("operator", ["random", "fem8", "fem16"])
    def test_solves_agree_with_numpy(self, operator):
        """Complex shifts and their conjugates, a real shift below the
        spectrum and one in its widest gap, each on a vector and on two
        columns.  The shifts inside the spectrum's range make getrf
        interchange rows."""
        if operator == "random":
            A = random_spd(40, 9).toarray()
        else:
            A = wave_demo_problem(
                structured_mesh(int(operator[3:]))).Atil.toarray()
        n = A.shape[0]
        lam = np.linalg.eigvalsh(A)
        scale = lam[-1]
        gap = int(np.argmax(np.diff(lam)))
        cache = ShiftedSolveCache(A)
        rng = np.random.default_rng(n)
        shifts = [scale * (-0.8 + 1.3j), scale * (-0.8 - 1.3j),
                  scale * (0.5 + 0.3j), scale * (0.5 - 0.3j),
                  -0.5 * scale + 0j, 0.5 * (lam[gap] + lam[gap + 1]) + 0j]
        for zeta in shifts:
            for shape in ((n,), (n, 2)):
                b = (rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
                x = cache.solve(zeta, b)
                want = np.linalg.solve(zeta * np.eye(n) - A, b)
                assert x.shape == b.shape
                assert (np.linalg.norm(x - want)
                        <= 1e-13 * np.linalg.norm(want))

    def test_factor_reaches_trsv_fortran_contiguous(self, monkeypatch):
        """A factor in C order would be copied by the f2py wrapper on
        every solve."""
        contiguous = []
        original = krylov_module.sla.get_blas_funcs

        def recording(*args, **kwargs):
            trsv = original(*args, **kwargs)

            def recorded(a, *trsv_args, **trsv_kwargs):
                contiguous.append(a.flags.f_contiguous)
                return trsv(a, *trsv_args, **trsv_kwargs)

            return recorded

        monkeypatch.setattr(krylov_module.sla, "get_blas_funcs", recording)
        A = random_spd(30, 3).toarray()
        cache = ShiftedSolveCache(A)
        b = _complex_vector(30)
        for zeta in (-0.8 + 1.3j, -0.8 - 1.3j, -0.5):
            cache.solve(zeta, b)
        # two calls per column: 1 + 1 for the pair, 2 for the real shift
        assert contiguous == [True] * 8

    def test_fem_engine_never_calls_lu_solve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sla.lu_solve called")

        monkeypatch.setattr(krylov_module.sla, "lu_solve", refused)
        h = 0.15
        Atil = wave_demo_problem(structured_mesh(8)).Atil
        engine = make_filters(Atil, h, RationalKrylovBackend("Lbar", n=4))
        cache, pole_sets = _engine_poles(Atil, h, "Lbar", 4)
        w = _seed_vector(Atil.shape[0])
        for f, poles, product in zip((psi, sigma), pole_sets,
                                     (engine.psi, engine.sigma)):
            want = apply_function(build_space(cache.matrix, w, poles), f, w)
            assert np.linalg.norm(product(w) - want) <= 1e-13

    def test_sparse_operator_still_uses_superlu(self, monkeypatch):
        """Order 256, above the order up to which every matrix is stored
        dense; at h = 0.15 the poles of E degree 8 are near."""
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        A = 15**2 * laplacian_2d(256)
        engine = make_filters(A, 0.15, RationalKrylovBackend("E", n=8))
        engine.psi(_seed_vector(256))
        assert superlu and not lapack


class TestStorageRule:
    """The cache stores its matrix by order and fill, whatever storage it
    is given: dense when its order is at most _DENSE_ORDER or more than
    _DENSE_FILL of the entries are nonzero, CSR otherwise."""

    def test_full_csr_is_stored_dense(self):
        A = random_spd(40, 1)
        B = ShiftedSolveCache(A).matrix
        assert isinstance(B, np.ndarray) and B.dtype == np.float64
        assert np.array_equal(B, A.toarray())

    def test_sparse_ndarray_is_stored_csr(self):
        A = laplacian_1d(128)
        B = ShiftedSolveCache(A.toarray()).matrix
        assert sp.issparse(B) and B.format == "csr"
        assert B.dtype == np.float64
        assert (B != A).nnz == 0

    @pytest.mark.parametrize("above", [0, 1], ids=["at", "above"])
    def test_sparse_operator_at_the_order_cutoff(self, monkeypatch, above):
        """A tridiagonal operator, 3% full, is stored dense and factored
        by LAPACK at the cutoff order, and stored CSR and factored by
        SuperLU one order above it."""
        n = krylov_module._DENSE_ORDER + above
        A = laplacian_1d(n)
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        cache = ShiftedSolveCache(A)
        b = _complex_vector(n)
        x = cache.solve(-1.0 + 2.0j, b)
        want = np.linalg.solve((-1.0 + 2.0j) * np.eye(n) - A.toarray(), b)
        assert _rel(x, want) <= 1e-13
        if above:
            assert sp.issparse(cache.matrix) and cache.matrix.format == "csr"
            assert superlu == [np.complex128] and lapack == []
        else:
            assert isinstance(cache.matrix, np.ndarray)
            assert lapack == [np.complex128] and superlu == []

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_check_names_the_shape_of_a_mostly_zero_array(self, shape):
        with pytest.raises(ValueError,
                           match=rf"square.*{re.escape(str(shape))}"):
            ShiftedSolveCache(np.zeros(shape))

    @pytest.mark.parametrize("to_storage", [np.asarray, sp.csr_matrix],
                             ids=["ndarray", "csr"])
    @pytest.mark.parametrize("fill", ["sparse", "full"])
    def test_complex_matrix_refused_before_any_cast(self, to_storage, fill):
        if fill == "full":
            A = np.array([[2.0, 1.0j], [1.0j, 2.0]])
        else:
            A = laplacian_1d(16).toarray().astype(np.complex128)
            A[3, 4] += 0.5j
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="matrix must be real"):
                ShiftedSolveCache(to_storage(A))
        assert not [w for w in caught
                    if issubclass(w.category, np.exceptions.ComplexWarning)]

    def test_sinc_apply_on_fem_operator_never_calls_splu(self, monkeypatch):
        Atil = wave_demo_problem(structured_mesh(8)).Atil
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        sinc_apply(1e-4 * Atil, _seed_vector(Atil.shape[0]), poles_E(4))
        assert superlu == [] and lapack


class TestFillReducingOrder:
    def test_lap2d_pair_lu_has_about_half_the_colamd_fill(self, monkeypatch):
        """The shifted matrices keep the symmetric pattern of A, which a
        minimum-degree order on A^T + A fills far less than SuperLU's
        default COLAMD (0.53 of its fill at order 4096).  The operator is
        h^2 A at h = 0.1, where the pole lies 4 Gershgorin radii from the
        spectrum's centre, too near for the Neumann series."""
        B = 63**2 * laplacian_2d(4096) * 1e-2
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


def _shift_at(cache, r, angle):
    """The shift c + (a / r) exp(i angle) for the Gershgorin interval
    [c - a, c + a] of the cache's matrix."""
    c, a = cache.interval
    return c + (a / r) * complex(np.cos(angle), np.sin(angle))


def _random_sparse_spd(n, seed):
    """A random sparse symmetric matrix made positive definite by
    diagonal dominance."""
    S = sp.random(n, n, density=4.0 / n, random_state=seed, format="csr")
    S = S + S.T
    d = np.asarray(abs(S).sum(axis=1)).ravel()
    rng = np.random.default_rng(seed)
    return (S + sp.diags(d + rng.uniform(0.1, 1.0, n))).tocsr()


def _series_terms(r):
    """The least K with r^(K+1) (1 + r) / (1 - r) <= 2^-53: the Neumann
    series of (zeta I - B)^{-1} about the centre c of B's Gershgorin
    interval [c - a, c + a], at r = a/|zeta - c|, cut after the power K,
    is then within unit roundoff of the solve."""
    K = 0
    while r ** (K + 1) * (1 + r) / (1 - r) > 2.0**-53:
        K += 1
    return K


class TestNeumannSeries:
    """A shift far from the spectrum is not solved by a series: the
    cache factors every shift it is handed, and the engine turns far
    poles into polynomial steps (TestFarPoles).  These tests check why
    that loses nothing: the solve at a shift r half-widths out is its
    Neumann series, a polynomial in B applied to b, so a polynomial
    Krylov space from b holds it."""

    @pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("angle", [2.0, np.pi])
    def test_lap2d_series_solve_matches_the_exact_solve(self, r, angle):
        """On 63^2 laplacian_2d(4096) at h = 0.01, diagonal in the 2D
        DST-I basis: the space of infinite poles of dimension K + 1
        holds the solve to roundoff.  At r = 0.1, K = 16."""
        m = 64
        mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        lam = 63**2 * 1e-4 * (mu[:, None] + mu[None, :]).reshape(-1)
        cache = ShiftedSolveCache(63**2 * laplacian_2d(4096) * 1e-4)
        zeta = _shift_at(cache, r, angle)
        if angle == np.pi:
            zeta = zeta.real + 0j
        b = _seed_vector(4096)

        def dst(x):
            return scipy.fft.dstn(x.reshape(m, m), type=1,
                                  norm="ortho").reshape(-1)

        V = build_space(None, b, PoleSet((_INF,) * _series_terms(r)),
                        cache=cache).V
        for shift in (zeta, zeta.conjugate()):
            want = dst(dst(b) / (shift - lam))
            assert _rel(V @ (V.conj().T @ want), want) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1])
    def test_random_sparse_series_solve_matches_a_dense_solve(self, seed, r):
        A = _random_sparse_spd(300, seed)
        cache = ShiftedSolveCache(A)
        zeta = _shift_at(cache, r, 1.0 + seed)
        b = _seed_vector(300, seed)
        V = build_space(None, b, PoleSet((_INF,) * _series_terms(r)),
                        cache=cache).V
        want = np.linalg.solve(zeta * np.eye(300) - A.toarray(), b)
        assert _rel(V @ (V.conj().T @ want), want) <= 1e-14

    def test_series_terms_are_the_least_that_reach_roundoff(self):
        """The engine's threshold: a pole is far when 8 terms of its
        series reach roundoff, so that polynomial steps of degree 8
        stand in for its solve."""
        r = integrators_module._FAR_POLE_RATIO
        assert _series_terms(r) == 8
        assert _series_terms(r + 1e-4) == 9

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=1000))
    def test_gershgorin_interval_holds_the_spectrum(self, n, seed):
        A = random_spd(n, seed)
        c, a = krylov_module._gershgorin(sp.csc_matrix(A))
        lam = np.linalg.eigvalsh(A.toarray())
        assert c - a <= lam[0] and lam[-1] <= c + a
        assert np.linalg.norm(A.toarray() - c * np.eye(n), 2) <= a

    def test_gershgorin_interval_of_a_diagonal_matrix(self):
        d = np.array([0.1, 3.0, 1e-3, 2.5, 7.0 / 3.0])
        c, a = krylov_module._gershgorin(sp.diags(d).tocsc())
        assert c - a <= d.min() and d.max() <= c + a
        assert a <= 0.5 * (d.max() - d.min()) * (1 + 1e-12)

    @pytest.mark.parametrize("h, lus", [(0.1, 8)])
    def test_lap2d_engine_factors_only_the_near_pairs(
            self, monkeypatch, h, lus):
        """At h = 0.1 every pole of E degree 8 lies within 4.3 Gershgorin
        half-widths of the centre of the spectrum of h^2 A, so the 8
        pairs the products reach are factored, in complex arithmetic;
        E's origin is a polynomial step, never a float64 LU of h^2 A.
        At h = 0.01 nothing is factored (TestFarPoles)."""
        dtypes = _count_factorizations(monkeypatch)
        engine = make_filters(63**2 * laplacian_2d(4096), h,
                              RationalKrylovBackend("E", n=8))
        v = _seed_vector(4096)
        engine.psi(v)
        engine.sigma(v)
        assert dtypes == [np.complex128] * lus

    def test_lap2d_engine_on_the_series_matches_the_exact_filters(self):
        """At h = 0.01 every pole of E degree 8 is far, and the engine's
        polynomial products match the exact filters."""
        m, h = 64, 0.01
        mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        z = h * h * 63**2 * (mu[:, None] + mu[None, :]).reshape(-1)

        def dst(x):
            return scipy.fft.dstn(x.reshape(m, m), type=1,
                                  norm="ortho").reshape(-1)

        engine = make_filters(63**2 * laplacian_2d(4096), h,
                              RationalKrylovBackend("E", n=8))
        rng = np.random.default_rng(2)
        for _ in range(3):
            w = rng.standard_normal(4096)
            assert _rel(engine.psi(w), dst(psi(z) * dst(w))) <= 1e-13
            assert _rel(engine.sigma(w), dst(sigma(z) * dst(w))) <= 1e-13

    def test_dense_storage_never_takes_the_series(self, monkeypatch):
        """A more than half full matrix is stored dense and factored by
        LAPACK, whether it is given as CSR or as an ndarray."""
        A = random_spd(40, 3)
        zeta = _shift_at(ShiftedSolveCache(A), 1e-3, 2.0)
        b = _complex_vector(40)
        superlu = _count_factorizations(monkeypatch)
        lapack = _count_dense_factorizations(monkeypatch)
        ShiftedSolveCache(A).solve(zeta, b)
        assert superlu == [] and lapack == [np.complex128]
        ShiftedSolveCache(A.toarray()).solve(zeta, b)
        assert superlu == [] and lapack == [np.complex128] * 2

    def test_small_order_keeps_the_lu(self, monkeypatch):
        A = _random_sparse_spd(100, 3)
        cache = ShiftedSolveCache(A)
        zeta = _shift_at(cache, 1e-3, 2.0)
        superlu = _count_factorizations(monkeypatch)
        cache.solve(zeta, _complex_vector(100))
        assert superlu == [np.complex128]

    def test_series_solve_keeps_the_non_finite_check(self):
        cache = ShiftedSolveCache(63**2 * laplacian_2d(4096) * 1e-4)
        b = _complex_vector(4096)
        b[7] = np.nan
        with pytest.raises(PoleCollisionError, match="non-finite"):
            cache.solve(-500.0 + 150.0j, b)


def _synthetic_sweep_spaces() -> list:
    """(dimension, breakdown) of every space the synthetic_problem(20)
    sweep over h = 0.5, 0.25, 0.2 builds with ratkrylov:E:n10, whose
    poles are all near the spectrum there."""
    spaces = []
    original = integrators_module.build_space

    def recorded(*args, **kwargs):
        space = original(*args, **kwargs)
        spaces.append((space.dim, space.breakdown))
        return space

    ivp = synthetic_problem(20).as_ivp(tf=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrators_module, "build_space", recorded)
        for h in (0.5, 0.25, 0.2):
            gautschi_integrate(ivp, h, RationalKrylovBackend("E", n=10))
    return spaces


class TestBreakdownAboveRoundoff:
    def test_breakdowns_do_not_depend_on_the_lu_order(self, monkeypatch):
        """Directions taken after the space is invariant are roundoff
        (at most about 2e-13 of their norm before orthogonalization) and
        genuine ones are at least 1e-6, so a 1e-10 threshold gives the
        same spaces whatever order the LU eliminates in.  The synthetic
        operator of order 20 is stored sparse here, so that SuperLU
        factors it in both orders."""
        monkeypatch.setattr(krylov_module, "_DENSE_ORDER", 0)
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
        original = poles_module._laguerre_zeros

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(poles_module, "_laguerre_zeros", counted)
        integrators_module._filter_pole_sets.cache_clear()
        spaces = _counted_spaces(monkeypatch)
        # the grid scaling keeps every pole near the spectrum at both
        # steps, so each product builds a space on its filter's full set
        A = 17**2 * laplacian_1d(16)
        v = _seed_vector(16)
        for h in (0.1, 0.2):
            engine = make_filters(A, h, RationalKrylovBackend("E", n=5))
            engine.psi(v)
            engine.sigma(v)
        assert spaces[0] is spaces[2] and spaces[1] is spaces[3]
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [0, -2, 3.0])
    def test_invalid_degree_still_raises(self, n):
        A = laplacian_1d(16)
        make_filters(A, 0.1, RationalKrylovBackend("E", n=3))
        for _ in range(2):
            with pytest.raises(ValueError, match="degree"):
                make_filters(A, 0.1, RationalKrylovBackend("E", n=n))


# 31^2 * laplacian_2d(1024) at h = 0.06, where every pole of E degree 8
# is near the spectrum, and whose filters are diagonal in the 2D DST-I
# basis (grid index of entry i*m + j is (i, j))
_M = 31
_H = 0.06
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
        assert per_product == [[(2, 7)], [(7, 11)], [(11, 11)], [(11, 11)]]

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
        # a full space takes 17 solves, a settled psi product 10 and a
        # sigma product 12: E's origin, last in the engine's sets, is
        # never solved
        solves = _counted_solves(monkeypatch)
        engine.psi(rng.standard_normal(_M * _M))
        assert len(solves) == 10
        for w in inputs:
            del solves[:]
            got = engine.psi(w)
            assert len(solves) == 10
            want = apply_function(build_space(B, w, psi_poles), psi, w)
            assert _rel(got, want) <= 1e-13
        w = inputs[0]
        del solves[:]
        engine.sigma(rng.standard_normal(_M * _M))
        assert len(solves) == 12
        del solves[:]
        got = engine.sigma(w)
        assert len(solves) == 12
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
        cache, pole_sets = _engine_poles(A, h, backend.family, backend.n)
        rng = np.random.default_rng(seed)
        for f, poles, product in zip((psi, sigma), pole_sets,
                                     (engine.psi, engine.sigma)):
            for kind in kinds:
                w = _property_input(kind, operator, rng)
                got = product(w)
                want = apply_function(build_space(cache.matrix, w, poles),
                                      f, w)
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


class TestTruncatedSpace:
    """apply_function returns a real result when the poles a space used
    are closed under conjugation, or its imaginary residue is below the
    guard; a space cut inside a conjugate pair may return a complex one."""

    _B = (0.097**2) * _lap_operator()

    @staticmethod
    def _unguarded(space, f, w):
        c = (w.conj() @ space.V).conj()
        return space.V @ krylov_module._projected(space.A_k, f, c)

    @staticmethod
    def _used_closed(space):
        used = [space.poles.values[j % len(space.poles)]
                for j in range(space.dim - 1)]
        return PoleSet(tuple(used)).is_conjugate_closed()

    @pytest.mark.parametrize("filter_,k", [("psi", 5), ("sigma", 5),
                                           ("sinc", 6)])
    def test_cut_inside_a_pair_returns_complex(self, filter_, k):
        psi_poles, sigma_poles = filter_poles(poles_E(7))
        f, poles = {"psi": (psi, psi_poles), "sigma": (sigma, sigma_poles),
                    "sinc": (sinc, poles_E(7))}[filter_]
        w = np.random.default_rng(0).standard_normal(self._B.shape[0])
        space = build_space(self._B, w, poles, k=k)
        assert not self._used_closed(space)
        y = apply_function(space, f, w)
        assert y.dtype == np.complex128
        assert np.linalg.norm(y.imag) > 1e-3 * np.linalg.norm(y)
        assert np.array_equal(y, self._unguarded(space, f, w))

    def test_closed_space_with_large_residue_raises(self, lap64):
        v = _seed_vector(64)
        space = build_space(lap64, v, poles_E(3))
        assert self._used_closed(space)
        with pytest.raises(FloatingPointError, match="degenerate"):
            apply_function(space, lambda lam: (1 + 1e-3j) * sinc(lam), v)

    @given(st.integers(min_value=1, max_value=16),
           st.sampled_from(["psi", "sigma"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_real_exactly_when_closed_or_under_guard(self, k, filter_,
                                                     seed):
        psi_poles, sigma_poles = filter_poles(poles_E(7))
        f, poles = ((psi, psi_poles) if filter_ == "psi"
                    else (sigma, sigma_poles))
        w = np.random.default_rng(seed).standard_normal(self._B.shape[0])
        space = build_space(self._B, w, poles, k=k)
        z = self._unguarded(space, f, w)
        under_guard = (np.linalg.norm(z.imag)
                       <= krylov_module._REAL_GUARD_RTOL * np.linalg.norm(z))
        y = apply_function(space, f, w)
        assert (y.dtype == np.float64) == (self._used_closed(space)
                                           or under_guard)


def _random_tridiagonal_spd(n, seed):
    """A random tridiagonal SPD matrix, diagonally dominant, whose fill
    is low enough that the cache stores it as CSR from order 6 on when
    its order cutoff is lifted (_sparse_below_the_cutoff)."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    return sp.diags([off, rng.uniform(2.0, 3.0, n), off], [-1, 0, 1]).tocsr()


def _random_graph_laplacian(n, seed, dense):
    """A random weighted graph Laplacian, PSD and singular, with the
    constant vector as its zero mode: of the complete graph (stored
    dense) or of a path (tridiagonal), with eigenvalues below 4.  Its
    weights are multiples of 1/64, so that its rows sum to exactly 0."""
    rng = np.random.default_rng(seed)
    if dense:
        W = np.triu(rng.integers(0, 4, (n, n)) / 64.0, 1)
        W = W + W.T
    else:
        w = rng.integers(1, 33, n - 1) / 32.0
        W = np.diag(w, 1) + np.diag(w, -1)
    return sp.csr_matrix(np.diag(W.sum(axis=1)) - W)


@contextmanager
def _sparse_below_the_cutoff(sparse: bool):
    """When sparse, the cache stores a small matrix by its fill alone, so
    that small sparse operators still take the CSR and SuperLU route."""
    with pytest.MonkeyPatch.context() as mp:
        if sparse:
            mp.setattr(krylov_module, "_DENSE_ORDER", 0)
        yield


class _CountingMatrix:
    """A stored matrix that counts its products with blocks of vectors."""

    def __init__(self, B):
        self.B, self.shape, self.products = B, B.shape, 0

    def __matmul__(self, X):
        self.products += 1
        return self.B @ X

    def dot(self, X):
        return self @ X


class TestFarPoles:
    """The engine replaces every pole far from the spectrum of h^2 A,
    a <= 0.0168 |zeta - c| for its Gershgorin interval [c - a, c + a],
    by the infinity sentinel; E's origin, a removable singularity of
    E_n, is the sentinel in every engine set.  build_space takes an
    infinite pole as a product step of its one complex path."""

    def test_rule_on_a_hand_made_set(self):
        """The rule is a distance test only: a pole at the origin, near
        [0, 2], stays whether or not the other poles are far."""
        far_off = integrators_module._far_poles_to_infinity
        # c = a = 1: -70 +- 1j lie 71 half-widths away, -50 +- 1j 51
        near, far = (-50 + 1j, -50 - 1j), (-70 + 1j, -70 - 1j)
        mixed = far_off(PoleSet((0j,) + near + far, family="E"), 1.0, 1.0)
        assert mixed.values[:3] == PoleSet((0j,) + near).values
        assert mixed.values[3:] == (_INF, _INF)
        assert mixed.family == "E"
        assert (far_off(PoleSet((0j,) + far), 1.0, 1.0).values
                == (0j, _INF, _INF))
        kept = PoleSet((0j,) + near)
        assert far_off(kept, 1.0, 1.0) is kept

    def test_lap2d_poles_at_small_and_large_steps(self):
        A = 63**2 * laplacian_2d(4096)
        _, small = _engine_poles(A, 0.01, "E", 8)
        for poles in small:
            assert poles.values == (_INF,) * 17
        _, large = _engine_poles(A, 0.1, "E", 8)
        psi_poles, sigma_poles = integrators_module._filter_pole_sets("E", 8)
        assert large[0] is psi_poles
        assert large[1] is sigma_poles
        # the engine's sets hold the origin as the sentinel, and
        # filter_poles keeps it
        for poles, public in zip((psi_poles, sigma_poles),
                                 filter_poles(poles_E(8))):
            assert public.values[0] == 0 and 0 not in poles.values
            assert poles.values == public.values[1:] + (_INF,)
        # at h = 0.02 four poles of E degree 12's sigma set are far, and
        # join the origin's sentinel
        _, (_, mixed) = _engine_poles(A, 0.02, "E", 12)
        values = mixed.values
        assert values[-5:] == (_INF,) * 5
        assert not any(np.isinf(values[:-5])) and 0 not in values

    def test_lap2d_engine_factors_nothing_at_small_steps(self, monkeypatch):
        dtypes = _count_factorizations(monkeypatch)
        solves = _counted_solves(monkeypatch)
        engine = make_filters(63**2 * laplacian_2d(4096), 0.01,
                              RationalKrylovBackend("E", n=8))
        v = _seed_vector(4096)
        assert engine.psi(v).dtype == np.float64
        assert engine.sigma(v).dtype == np.float64
        assert dtypes == [] and solves == []

    @pytest.mark.parametrize("dense", [False, True], ids=["csr", "dense"])
    def test_real_shift_on_a_complex_vector_matches_numpy(self, dense):
        A = random_spd(30, 2) if dense else _random_sparse_spd(100, 2)
        b = _complex_vector(A.shape[0], 3)
        x = ShiftedSolveCache(A).solve(-0.5, b)
        want = np.linalg.solve(-0.5 * np.eye(A.shape[0]) - A.toarray(), b)
        assert _rel(x, want) <= 1e-13

    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=1, max_value=12),
           st.booleans(), st.sampled_from([None, psi, sigma]),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_mixed_space_has_the_exact_projection(self, n, k, dense, f,
                                                  infinite, seed):
        """A conjugate pair, a real pole and infinite poles build one
        complex space, whose A_k is V^H B V to roundoff."""
        A = (random_spd(n, seed, lam_max=4.0) if dense
             else _random_tridiagonal_spd(n, seed))
        B = A.toarray()
        rng = np.random.default_rng(seed)
        zeta = complex(-rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        poles = PoleSet((zeta, zeta.conjugate(), -rng.uniform(0.1, 5.0))
                        + (_INF,) * infinite)
        v = rng.standard_normal(n)
        with _sparse_below_the_cutoff(not dense):
            space = build_space(A, v, poles, k=k, f=f)
        V = space.V
        want = V.conj().T @ B @ V
        assert np.linalg.norm(space.A_k - want) <= 1e-14 * np.linalg.norm(B, 2)
        assert np.linalg.norm(V.conj().T @ V - np.eye(space.dim)) <= 1e-12
        used = PoleSet(tuple(islice(cycle(poles), space.dim - 1)))
        if used.is_conjugate_closed():
            assert apply_function(space, f or sinc, v).dtype == np.float64

    @given(st.integers(min_value=3, max_value=16),
           st.integers(min_value=8, max_value=10),
           st.floats(min_value=-4.0, max_value=1.6),
           st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_engine_matches_the_dense_filters(self, n, degree, log_h,
                                              dense, singular, seed):
        """h = 10^log_h puts zmax = h^2 lambda_max between 4e-8 and 6e3,
        so the poles of the E sets lie far, near, or both.  The space
        can reach the full order, so the engine is exact up to its
        settling tolerance and roundoff.  A singular PSD matrix, a
        graph Laplacian, works at every step."""
        if singular:
            A = _random_graph_laplacian(n, seed, dense)
        else:
            A = (random_spd(n, seed, lam_max=4.0) if dense
                 else _random_tridiagonal_spd(n, seed))
        h = 10.0**log_h
        with _sparse_below_the_cutoff(not dense):
            engine = make_filters(A, h, RationalKrylovBackend("E", n=degree))
        reference = make_filters(A, h, DenseBackend())
        w = np.random.default_rng(seed).standard_normal(n)
        for product, want in ((engine.psi, reference.psi),
                              (engine.sigma, reference.sigma)):
            got = product(w)
            assert got.dtype == np.float64
            assert _rel(got, want(w)) <= 1e-12

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=1000),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_gershgorin_interval_of_a_dense_matrix(self, n, seed, shift):
        """The ndarray the cache stores for a full operator, with a
        shifted spectrum."""
        B = random_spd(n, seed).toarray() + shift * np.eye(n)
        c, a = krylov_module._gershgorin(B)
        assert np.linalg.norm(B - c * np.eye(n), 2) <= a
        assert ShiftedSolveCache(B).interval == (c, a)


def _counted_spaces(monkeypatch) -> list:
    """The pole set of every space the filter engine builds."""
    spaces = []
    original = integrators_module.build_space

    def counted(A, v, poles, *args, **kwargs):
        spaces.append(poles)
        return original(A, v, poles, *args, **kwargs)

    monkeypatch.setattr(integrators_module, "build_space", counted)
    return spaces


def _exact_filter(f, z):
    """psi or sigma in extended precision, the reference for the
    Chebyshev expansions: f = sinc(s sqrt z)^p, with sinh for z < 0."""
    s, p = (0.5, 2) if f is psi else (1.0, 1)
    z = np.asarray(z, dtype=np.longdouble)
    w = s * np.sqrt(np.abs(z))
    safe = np.where(w == 0, 1, w)
    value = np.where(z >= 0, np.sin(safe), np.sinh(safe)) / safe
    return np.where(w == 0, 1, value) ** p


def _interpolant(f, c, a, n):
    """The degree-n truncation of the interpolant of f at 2(n + 1)
    first-kind Chebyshev points of [c - a, c + a]."""
    x = np.cos(np.pi * (np.arange(2 * n + 2) + 0.5) / (2 * n + 2))
    coef = scipy.fft.dct(f(c + a * x), type=2)[:n + 1] / (2 * n + 2)
    coef[0] *= 0.5
    return coef


def _plain_recurrence(B, c, a, coef, w):
    """sum_k coef[k] T_k(X) w, X = (B - cI) / a, by T_{k+1} = 2 X T_k -
    T_{k-1} with a new array for every term."""
    T = [w]  # T_k(X) w
    for k in range(1, len(coef)):
        Xt = (B @ T[-1] - c * T[-1]) / a
        T.append(Xt if k == 1 else 2.0 * Xt - T[-2])
    return sum(ck * t for ck, t in zip(coef, T))


def _random_dense_spd(n, log_lo, decades, rng):
    """Q diag(lam) Q^T with lam spread from 10^log_lo over up to
    `decades` decades, at most 10^3."""
    lam = 10.0 ** rng.uniform(log_lo, min(log_lo + decades, 3.0), n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = (Q * lam) @ Q.T
    return 0.5 * (B + B.T)


def _recurrence_unit(coef, c, a, w):
    """The unit of rounding of the Chebyshev recurrence,
    len(coef) eps ||w|| (|coef[0]| + (1 + |c|/a) sum_k>0 |coef[k]|);
    TestChebyshevRoute.test_dense_and_csr_storage_agree derives it."""
    tail = np.sum(np.abs(coef[1:])) * (1 + abs(c) / a) if a else 0.0
    eps_w = np.finfo(np.float64).eps * np.linalg.norm(w)
    return len(coef) * eps_w * (abs(coef[0]) + tail)


class TestChebyshevRoute:
    """A filter whose engine poles are all infinite is its Chebyshev
    expansion on the Gershgorin interval [c - a, c + a] of h^2 A, at the
    least degree the Bernstein-ellipse bound certifies to 2^-53: no
    Krylov space, one product with h^2 A per degree."""

    def test_lap2d_at_a_small_step_builds_no_space(self, monkeypatch):
        spaces = _counted_spaces(monkeypatch)
        engine = make_filters(63**2 * laplacian_2d(4096), 0.01,
                              RationalKrylovBackend("E", n=8))
        v = _seed_vector(4096)
        for product in (engine.psi, engine.sigma, engine.psi):
            assert product(v).dtype == np.float64
        assert spaces == []

    @pytest.mark.parametrize("h, degree", [(0.1, 8), (0.02, 12)])
    def test_a_set_with_a_near_pole_builds_one_space_per_product(
            self, monkeypatch, h, degree):
        """At h = 0.1 both E8 sets are near; at h = 0.02 E12's sigma set
        is mixed (five infinite poles, twenty near) and its psi set all
        far."""
        spaces = _counted_spaces(monkeypatch)
        A = 63**2 * laplacian_2d(4096)
        engine = make_filters(A, h, RationalKrylovBackend("E", n=degree))
        v = _seed_vector(4096)
        for product in (engine.psi, engine.sigma, engine.psi):
            product(v)
        _, (psi_poles, sigma_poles) = _engine_poles(A, h, "E", degree)
        expected = [psi_poles, sigma_poles, psi_poles]
        if h == 0.02:
            expected = [sigma_poles]
            assert all(zeta == _INF for zeta in psi_poles)
        assert spaces == expected

    @pytest.mark.parametrize("operator", ["zero", "5I", "5I dense",
                                          "order 1"])
    def test_zero_width_interval_gives_f_at_its_centre(self, monkeypatch,
                                                       operator):
        A, z = {"zero": (sp.csr_matrix((6, 6)), 0.0),
                "5I": (5.0 * sp.identity(6, format="csr"), 5.0),
                "5I dense": (5.0 * np.eye(6), 5.0),
                "order 1": (np.array([[3.0]]), 3.0)}[operator]
        spaces = _counted_spaces(monkeypatch)
        h = 0.1
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        assert ShiftedSolveCache(h * h * A).interval == (h * h * z, 0.0)
        w = _seed_vector(A.shape[0])
        assert np.array_equal(engine.psi(w), psi(h * h * z) * w)
        assert np.array_equal(engine.sigma(w), sigma(h * h * z) * w)
        assert spaces == []

    def test_one_product_per_degree(self):
        """The engine's products are the recurrence on the expansion's
        coefficients, which takes one product per degree."""
        A, h = 63**2 * laplacian_2d(4096), 0.01
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        cache = ShiftedSolveCache(h * h * A)
        counting = _CountingMatrix(cache.matrix)
        c, a = cache.interval
        v = _seed_vector(4096)
        for f, product in ((psi, engine.psi), (sigma, engine.sigma)):
            coef = integrators_module._chebyshev_coefficients(f, c, a)
            counted = integrators_module._chebyshev_product(counting, c, a,
                                                            coef)
            counting.products = 0
            assert np.array_equal(counted(v), product(v))
            assert counting.products == len(coef) - 1 == 8

    @given(st.sampled_from([psi, sigma]),
           st.floats(min_value=-1.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=60.0),
           st.integers(min_value=-12, max_value=0))
    def test_certified_degree(self, f, lo, width, log_scale):
        """Intervals [lo, lo + width 10^log_scale], lo from -1: a PSD
        operator's Gershgorin interval can reach below 0 (about -0.025
        zmax on the synthetic problem).  The bound is recomputed from
        sinh directly, and the error measured against the filter in
        extended precision."""
        a = 0.5 * width * 10.0**log_scale
        c = lo + a
        assume(a > 0)
        coef = integrators_module._chebyshev_coefficients(f, c, a)
        n = len(coef) - 1
        s, p = (0.5, 2) if f is psi else (1.0, 1)
        rho = 1.0 + np.geomspace(1e-3, 1e18, 400)
        x = s * np.sqrt(abs(c) + 0.5 * a * (rho + 1.0 / rho))
        keep = x < 300.0  # sinh(x)^2 stays finite
        M = (np.sinh(x[keep]) / x[keep]) ** p
        rho = rho[keep]
        bound = np.min(4.0 * M * rho**-float(n) / (rho - 1.0))
        assert bound <= 2.0**-53 * (1.0 + 1e-9)

        z = np.linspace(c - a, c + a, 2000)
        want = _exact_filter(f, z)

        def error(coef):
            return float(np.max(np.abs(chebval((z - c) / a, coef) - want)))

        assert np.array_equal(coef, _interpolant(f, c, a, n))
        assert error(coef) <= 1e-15
        least = next(m for m in range(n + 1)
                     if error(_interpolant(f, c, a, m)) <= 1e-15)
        assert n <= least + 2

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=-8.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=11.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_dense_and_csr_storage_agree(self, n, log_lo, decades, seed):
        """A random SPD B of order 1 to 60, its eigenvalues spread from
        10^log_lo over up to 11 decades, at most 10^3.  The recurrence on
        B stored dense and stored CSR agrees to rounding with the plain
        recurrence on X, and both match the dense filters within the
        certified 2^-53 plus rounding.

        The unit of rounding is len(coef) eps ||w|| (|coef[0]| + (1 +
        |c|/a) sum_k>0 |coef[k]|): B s - c s rounds at eps (|c| + a) ||s||,
        which X = (B - cI)/a scales by 1/a, and f grows like sinh on the
        negative part of the Gershgorin interval, so ||coef||_1 reaches
        1e16 here.  The dense filters round at about n eps ||w||.  Over
        4000 random cases the storages agreed within 0.5 units and the
        filters within 1.2 times their allowance."""
        rng = np.random.default_rng(seed)
        B = _random_dense_spd(n, log_lo, decades, rng)
        c, a = krylov_module._gershgorin(B)
        w = rng.standard_normal(n)
        eps_w = np.finfo(np.float64).eps * np.linalg.norm(w)
        for f, dense in ((psi, psi_apply_dense), (sigma, sigma_apply_dense)):
            coef = integrators_module._chebyshev_coefficients(f, c, a)
            unit = _recurrence_unit(coef, c, a, w)
            on_dense, on_csr = (
                integrators_module._chebyshev_product(S, c, a, coef)(w)
                for S in (B, sp.csr_matrix(B)))
            plain = _plain_recurrence(B, c, a, coef, w)
            want = dense(B, w)
            for got in (on_dense, on_csr):
                assert np.linalg.norm(got - plain) <= 4 * unit
                assert (np.linalg.norm(got - want)
                        <= 2.0**-53 * np.linalg.norm(w)
                        + 4 * (unit + n * eps_w))

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=-8.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=11.0),
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(n=64, log_lo=-8.0, decades=11.0, scalar=False, seed=0)
    @example(n=12, log_lo=1.5, decades=0.0, scalar=True, seed=0)
    def test_materialized_filter_matches_the_recurrence(
            self, n, log_lo, decades, scalar, seed):
        """The matrix P = p(B) that the engine keeps for an operator
        stored dense at order 64 or less, built by the recurrence on
        n x n blocks: P w agrees with the recurrence on w within 4 of
        its rounding units (as in test_dense_and_csr_storage_agree) and
        with the dense filters within 2^-53 plus that rounding.  B is a
        random SPD matrix as there, or a multiple of the identity,
        whose interval has a = 0 (as has every B of order 1).  The first
        example's interval reaches below 0 (c - a < 0).  Over 3000
        random cases P w came within 0.64 units of the recurrence and
        0.78 of the allowance of the filters."""
        rng = np.random.default_rng(seed)
        B = (10.0**log_lo * np.eye(n) if scalar
             else _random_dense_spd(n, log_lo, decades, rng))
        c, a = krylov_module._gershgorin(B)
        assert (a == 0.0) == (scalar or n == 1)
        if (n, log_lo, decades, scalar, seed) == (64, -8.0, 11.0, False, 0):
            assert c - a < 0
        w = rng.standard_normal(n)
        eps_w = np.finfo(np.float64).eps * np.linalg.norm(w)
        for f, dense in ((psi, psi_apply_dense), (sigma, sigma_apply_dense)):
            coef = integrators_module._chebyshev_coefficients(f, c, a)
            unit = _recurrence_unit(coef, c, a, w)
            got = integrators_module._materialized_product(B, c, a, f)(w)
            recurrence = integrators_module._chebyshev_product(B, c, a,
                                                               coef)(w)
            assert np.linalg.norm(got - recurrence) <= 4 * unit
            assert (np.linalg.norm(got - dense(B, w))
                    <= 2.0**-53 * np.linalg.norm(w) + 4 * (unit + n * eps_w))

    def test_small_operator_keeps_one_matrix_per_called_filter(
            self, monkeypatch):
        """On the synthetic operator of order 20, stored dense, the psi
        filter builds its matrix at its first product and then makes no
        product with h^2 A: with the stored matrix overwritten by NaN,
        later products are unchanged.  Sigma, never called, computes
        neither its coefficients nor its matrix."""
        builds, expanded = [], []
        original = integrators_module._chebyshev_matrix
        coefficients = integrators_module._chebyshev_coefficients

        def counted(B, c, a, coef):
            builds.append(len(coef) - 1)
            return original(B, c, a, coef)

        def recorded(f, c, a):
            expanded.append(f)
            return coefficients(f, c, a)

        caches = []

        class Recorded(ShiftedSolveCache):
            def __init__(self, A):
                super().__init__(A)
                caches.append(self)

        monkeypatch.setattr(integrators_module, "_chebyshev_matrix", counted)
        monkeypatch.setattr(integrators_module, "_chebyshev_coefficients",
                            recorded)
        monkeypatch.setattr(integrators_module, "ShiftedSolveCache", Recorded)
        spaces = _counted_spaces(monkeypatch)
        engine = make_filters(synthetic_problem(20).A, 0.01,
                              RationalKrylovBackend("E", n=8))
        assert builds == [] and expanded == []
        (cache,) = caches
        B = cache.matrix
        assert isinstance(B, np.ndarray) and B.shape == (20, 20)
        c, a = cache.interval
        coef = coefficients(psi, c, a)
        w = _seed_vector(20)
        recurrence = integrators_module._chebyshev_product(B, c, a, coef)(w)
        first = engine.psi(w)
        assert builds == [len(coef) - 1] and expanded == [psi]
        assert (np.linalg.norm(first - recurrence)
                <= 4 * _recurrence_unit(coef, c, a, w))
        B[...] = np.nan
        for _ in range(3):
            assert np.array_equal(engine.psi(w), first)
        assert builds == [len(coef) - 1] and expanded == [psi]
        assert spaces == []

    @pytest.mark.parametrize("n", [64, 65])
    def test_order_cutoff_of_the_materialized_filter(self, monkeypatch, n):
        """A full operator is stored dense at every order, but only one
        of order at most 64 is materialized; above, each product runs
        the recurrence.  Both match the dense filters."""
        builds = []
        original = integrators_module._chebyshev_matrix

        def counted(*args):
            builds.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(integrators_module, "_chebyshev_matrix", counted)
        spaces = _counted_spaces(monkeypatch)
        A = _random_dense_spd(n, -2.0, 2.0, np.random.default_rng(n))
        h = 0.1
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        reference = make_filters(A, h, DenseBackend())
        w = _seed_vector(n)
        for product, want in ((engine.psi, reference.psi),
                              (engine.sigma, reference.sigma)):
            assert _rel(product(w), want(w)) <= 1e-13
        assert builds == ([(n, n)] * 2 if n <= 64 else [])
        assert spaces == []


class TestDenseSymmetricProducts:
    """A product with an ndarray is BLAS dsymv on its lower triangle, and
    the cache's interval holds the spectrum of the symmetric completion
    of that triangle, also for a matrix asymmetric within the 1e-12
    that _check_symmetric admits."""

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=120),
           st.floats(min_value=-8.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=11.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(n=97, log_lo=-8.0, decades=11.0, seed=0)
    def test_recurrence_reads_the_lower_triangle(self, n, log_lo, decades,
                                                 seed):
        """A random SPD B as in test_dense_and_csr_storage_agree, given
        in C and in Fortran order: the dsymv recurrence agrees with the
        recurrence on B @ s within 4 of its rounding units and with the
        dense filters within 2^-53 plus rounding, and NaN written above
        the diagonal changes no bit of it."""
        rng = np.random.default_rng(seed)
        B = _random_dense_spd(n, log_lo, decades, rng)
        c, a = krylov_module._gershgorin(B)
        w = rng.standard_normal(n)
        eps_w = np.finfo(np.float64).eps * np.linalg.norm(w)
        upper = np.triu_indices(n, 1)
        for f, dense in ((psi, psi_apply_dense), (sigma, sigma_apply_dense)):
            coef = integrators_module._chebyshev_coefficients(f, c, a)
            unit = _recurrence_unit(coef, c, a, w)
            plain = _plain_recurrence(B, c, a, coef, w)
            want = dense(B, w)
            for order in "CF":
                S = np.array(B, order=order)
                got = integrators_module._chebyshev_product(S, c, a, coef)(w)
                assert np.linalg.norm(got - plain) <= 4 * unit
                assert (np.linalg.norm(got - want)
                        <= 2.0**-53 * np.linalg.norm(w)
                        + 4 * (unit + n * eps_w))
                S[upper] = np.nan
                assert np.array_equal(
                    integrators_module._chebyshev_product(S, c, a, coef)(w),
                    got)

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_interval_holds_the_lower_completion(self, n):
        """B is the all-ones matrix with its two end diagonal entries and
        every entry above the diagonal lowered by 0.9e-12.  Its lower
        completion L has constant row sums but at its end rows, so
        Gershgorin is nearly tight on L, and B's own interval misses
        L's largest eigenvalue (by 3e-13 to 7e-13 at these orders)."""
        delta = 0.9e-12
        B = np.ones((n, n)) - delta * np.triu(np.ones((n, n)), 1)
        B[0, 0] -= delta
        B[-1, -1] -= delta
        L = np.tril(B) + np.tril(B, -1).T
        lam = np.linalg.eigvalsh(L)
        c, a = ShiftedSolveCache(B).interval
        assert c - a <= lam[0] and lam[-1] <= c + a
        c0, a0 = krylov_module._gershgorin(B)
        assert lam[-1] > c0 + a0

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=100),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_interval_of_a_nearly_symmetric_matrix(self, n, skew, seed):
        """A random symmetric S with up to 1e-12 max(max|S|, 1) added
        above its diagonal: the interval holds the spectrum of the lower
        completion (S itself), and for S it is _gershgorin's, bit for
        bit, given as an ndarray or as CSR."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, n))
        S = X + X.T
        E = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        B = S + skew * 1e-12 * max(np.abs(S).max(), 1.0) * E
        lam = np.linalg.eigvalsh(S)
        c, a = ShiftedSolveCache(B).interval
        assert c - a <= lam[0] and lam[-1] <= c + a
        for storage in (S, sp.csr_matrix(S)):
            cache = ShiftedSolveCache(storage)
            assert cache.interval == krylov_module._gershgorin(cache.matrix)


def _route_operator(route):
    """(A, h) at which every pole of E degree 8 is far, so that each
    filter is a Chebyshev expansion (on an operator of order 20, stored
    dense, a matrix built at its first product; on the full FEM
    operator of order 225, stored dense, a recurrence of dsymv
    products), or near, so that each product grows a settling space."""
    if route == "far":
        return 63**2 * laplacian_2d(4096), 0.01
    if route == "far-small":
        return synthetic_problem(20).A, 0.01
    if route == "far-dense":
        return wave_demo_problem(structured_mesh(16)).Atil, 0.02
    return _lap_operator(), _H


class TestInputContract:
    """Both routes of the rational engine take the same inputs: a real
    vector of any dtype or layout is computed as its float64 copy and
    left as it was, and a complex one or one of another length is
    refused, as build_space refuses it."""

    @pytest.mark.parametrize("route", ["far", "far-small", "far-dense",
                                       "near"])
    @pytest.mark.parametrize("kind", ["strided", "int", "float32"])
    def test_real_input_is_computed_in_float64(self, route, kind):
        A, h = _route_operator(route)
        n = A.shape[0]
        rng = np.random.default_rng(3)
        w = {"strided": lambda: rng.standard_normal(2 * n)[::2],
             "int": lambda: rng.integers(-5, 6, n),
             "float32": lambda: rng.standard_normal(n).astype(np.float32),
             }[kind]()
        given_w = w.copy()
        backend = RationalKrylovBackend("E", n=8)
        for name in ("psi", "sigma"):
            got = getattr(make_filters(A, h, backend), name)(w)
            want = getattr(make_filters(A, h, backend), name)(
                np.array(w, dtype=np.float64))
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
            assert np.array_equal(w, given_w)

    @pytest.mark.parametrize("route", ["far", "far-small", "far-dense",
                                       "near"])
    def test_float64_input_is_left_as_it_was(self, route):
        """A float64 vector of the order, which the stored filter matrix
        takes without a copy, is read and not written, and each product
        is a new array."""
        A, h = _route_operator(route)
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        w = _seed_vector(A.shape[0])
        given_w = w.copy()
        for product in (engine.psi, engine.sigma):
            first = product(w)
            again = product(w)
            assert not np.shares_memory(first, w)
            assert not np.shares_memory(again, first)
            assert np.array_equal(w, given_w)

    @pytest.mark.parametrize("route", ["far", "far-small", "far-dense",
                                       "near"])
    def test_complex_input_is_refused(self, route):
        A, h = _route_operator(route)
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        w = _complex_vector(A.shape[0])
        for product in (engine.psi, engine.sigma):
            with pytest.raises(ValueError, match="seed vector must be real"):
                product(w)

    @pytest.mark.parametrize("route", ["far", "far-small", "far-dense",
                                       "near"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_input_of_another_length_is_refused(self, route, extra):
        A, h = _route_operator(route)
        n = A.shape[0]
        engine = make_filters(A, h, RationalKrylovBackend("E", n=8))
        for product in (engine.psi, engine.sigma):
            with pytest.raises(ValueError,
                               match=f"seed length {n + extra} does not "
                                     f"match order {n}"):
                product(np.ones(n + extra))
            with pytest.raises(ValueError, match="seed length"):
                product(np.zeros(n + extra))


def _recorded_shifts(monkeypatch) -> list:
    shifts = []
    original = ShiftedSolveCache.solve

    def recorded(self, zeta, b):
        shifts.append(complex(zeta))
        return original(self, zeta, b)

    monkeypatch.setattr(ShiftedSolveCache, "solve", recorded)
    return shifts


class TestOriginIsAPolynomialStep:
    """E's origin is a removable singularity of E_n, so every engine set
    carries the infinity sentinel in its place, whether or not the other
    poles are near: the engine never solves at zeta = 0 and never
    factors h^2 A itself."""

    @pytest.mark.parametrize("operator, h, degree", [
        *[("lap2d", h, n) for h in (0.02, 0.05, 0.1) for n in (4, 8, 12)],
        ("fem", 0.2, 8),
        *[("neumann", h, 4) for h in (0.1, 0.8, 1.5, 3.0)],
    ])
    def test_engine_never_solves_at_the_origin(self, monkeypatch, operator,
                                               h, degree):
        A = {"lap2d": lambda: 63**2 * laplacian_2d(4096),
             "fem": lambda: _FEM_ATIL,
             "neumann": lambda: _neumann_laplacian(50)}[operator]()
        shifts = _recorded_shifts(monkeypatch)
        engine = make_filters(A, h, RationalKrylovBackend("E", n=degree))
        for poles in _engine_poles(A, h, "E", degree)[1]:
            assert 0 not in poles.values
        v = _seed_vector(A.shape[0])
        engine.psi(v)
        engine.sigma(v)
        assert 0 not in shifts
        if (operator, h) != ("neumann", 0.1):
            assert shifts  # some pole is near, so the products solve

    @pytest.mark.parametrize("h", [0.5, 0.8, 1.5, 3.0])
    def test_zero_mode_works_at_every_step(self, h):
        """Sigma has near poles from h = 0.8 on and psi from 1.5 on;
        both stay finite and real.  Up to h = 0.8 they match the dense
        filters; beyond it degree 4 no longer reaches roundoff."""
        A = _neumann_laplacian(50)
        engine = make_filters(A, h, RationalKrylovBackend("E", n=4))
        dense = make_filters(A, h, DenseBackend())
        v = _seed_vector(50)
        for product, want in ((engine.psi, dense.psi),
                              (engine.sigma, dense.sigma)):
            got = product(v)
            assert got.dtype == np.float64 and np.all(np.isfinite(got))
            if h <= 0.8:
                assert _rel(got, want(v)) <= 1e-12
