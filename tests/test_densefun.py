"""Dense spectral oracle: identities, series cross-check, guards."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from sincint import densefun
from sincint.densefun import (
    psi_apply_dense,
    sigma_apply_dense,
    sinc_apply_dense,
    sym_eigendecomposition,
)
from sincint.problems import laplacian_1d, laplacian_2d, synthetic_problem

# the reference decomposition, captured before any test wraps the name
_eigh = np.linalg.eigh


def sinc_series_apply(A, v, terms=60):
    """Independent oracle: sinc(A) v = sum_k (-1)^k A^(2k) v / (2k+1)!.

    Converges fast for the moderate spectral radii used in tests and
    shares no code with the spectral route.
    """
    acc = v.astype(np.float64).copy()
    term = v.astype(np.float64).copy()
    fact = 1.0
    for k in range(1, terms):
        term = A @ (A @ term)
        fact *= (2 * k) * (2 * k + 1)
        acc = acc + ((-1.0) ** k / fact) * term
    return acc


class TestEigendecomposition:
    def test_orthonormal_and_reconstructs(self, lap64):
        lam, Q = sym_eigendecomposition(lap64)
        assert np.allclose(Q.T @ Q, np.eye(64), atol=1e-12)
        assert np.allclose((Q * lam) @ Q.T, lap64.toarray(), atol=1e-12)
        assert np.all(np.diff(lam) >= -1e-12)

    def test_rejects_nonsymmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigendecomposition(A)

    def test_rejects_large_order(self):
        A = sp.identity(5001, format="csr")
        with pytest.raises(ValueError, match="5000"):
            sym_eigendecomposition(A)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigendecomposition(np.ones((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_rejects_non_finite(self, bad, storage):
        A = laplacian_1d(5).toarray()
        A[2, 2] = bad
        if storage == "sparse":
            A = sp.csr_array(A)
        with pytest.raises(ValueError, match="non-finite"):
            sym_eigendecomposition(A)


def assert_matches_eigh(A, rtol=1e-13):
    """Eigenvalues and Q cos(Lambda / |A|) Q^T v agree with np.linalg.eigh
    of the densified matrix to rtol.  Q itself is compared only through
    a function of A: eigenvectors are unique only up to sign, and within
    a repeated eigenvalue not at all."""
    lam, Q = sym_eigendecomposition(A)
    lam_ref, Q_ref = _eigh(A.toarray())
    scale = max(np.abs(lam_ref).max(), np.finfo(float).tiny)
    assert np.abs(lam - lam_ref).max() <= rtol * scale
    v = np.random.default_rng(7).standard_normal(A.shape[0])
    y = Q @ (np.cos(lam / scale) * (Q.T @ v))
    y_ref = Q_ref @ (np.cos(lam_ref / scale) * (Q_ref.T @ v))
    assert np.linalg.norm(y - y_ref) <= rtol * np.linalg.norm(v)


@pytest.fixture
def routes(monkeypatch):
    """Counts of dstevd and np.linalg.eigh calls made through densefun."""
    counts = {"dstevd": 0, "eigh": 0}
    real_dstevd = densefun.dstevd

    def dstevd(*args, **kwargs):
        counts["dstevd"] += 1
        return real_dstevd(*args, **kwargs)

    def eigh(*args, **kwargs):
        counts["eigh"] += 1
        return _eigh(*args, **kwargs)

    monkeypatch.setattr(densefun, "dstevd", dstevd)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return counts


def _lap1d_with_stored_zero(n):
    """laplacian_1d(n) plus explicitly stored zeros at (0, n-1), (n-1, 0)."""
    coo = laplacian_1d(n).tocoo()
    A = sp.coo_array(
        (np.r_[coo.data, 0.0, 0.0],
         (np.r_[coo.row, 0, n - 1], np.r_[coo.col, n - 1, 0])),
        shape=(n, n)).tocsr()
    assert A.nnz == coo.nnz + 2
    return A


@pytest.mark.skipif(densefun.dstevd is None,
                    reason="this scipy has no dstevd wrapper")
class TestTridiagonalRoute:
    @pytest.mark.parametrize("n", [2, 3, 64, 1500])
    def test_laplacian_matches_eigh(self, n, routes):
        assert_matches_eigh(laplacian_1d(n))
        assert routes == {"dstevd": 1, "eigh": 0}

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "dia"])
    def test_storage_formats(self, fmt, routes):
        assert_matches_eigh(laplacian_1d(64).asformat(fmt))
        assert routes == {"dstevd": 1, "eigh": 0}

    def test_diagonal_with_repeated_entries(self, routes):
        assert_matches_eigh(sp.diags_array([3.0, 1.0, 2.0, 1.0, -5.0]).tocsr())
        assert routes == {"dstevd": 1, "eigh": 0}

    @given(st.integers(min_value=2, max_value=80),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1e-6, 1e-2, 1.0, 1e4, 1e8]))
    def test_random_tridiagonal_matches_eigh(self, n, seed, scale):
        g = np.random.default_rng(seed)
        e = scale * g.standard_normal(n - 1)
        A = sp.diags_array([e, scale * g.standard_normal(n), e],
                           offsets=[-1, 0, 1]).tocsr()
        assert_matches_eigh(A)

    def test_q_is_c_contiguous(self):
        _, Q = sym_eigendecomposition(laplacian_1d(64))
        assert Q.flags.c_contiguous

    def test_reads_the_subdiagonal(self, routes):
        # symmetric only to within the 1e-12 guard: eigh reads the lower
        # triangle, and so must this route.  Taking the superdiagonal
        # would move the eigenvalues by about 7e-13 relative.
        A = laplacian_1d(8).tolil()
        for i in range(7):
            A[i, i + 1] += 1.5e-12
        assert_matches_eigh(A.tocsr())
        assert routes == {"dstevd": 1, "eigh": 0}

    @pytest.mark.parametrize("make", [
        lambda: synthetic_problem(20).A,
        lambda: laplacian_2d(64),
        lambda: laplacian_1d(8).toarray(),
        lambda: _lap1d_with_stored_zero(8),
    ], ids=["synthetic-band4", "lap2d", "dense-ndarray", "stored-zero"])
    def test_other_inputs_take_eigh(self, make, routes):
        A = make()
        lam, Q = sym_eigendecomposition(A)
        assert routes == {"dstevd": 0, "eigh": 1}
        dense = A.toarray() if sp.issparse(A) else A
        assert np.allclose((Q * lam) @ Q.T, dense, atol=1e-12 * np.abs(dense).max())

    def test_order_one_takes_eigh(self, routes):
        lam, Q = sym_eigendecomposition(sp.csr_array([[2.5]]))
        assert routes == {"dstevd": 0, "eigh": 1}
        assert lam.tolist() == [2.5] and Q.tolist() == [[1.0]]

    def test_without_dstevd_takes_eigh(self, routes, monkeypatch):
        monkeypatch.setattr(densefun, "dstevd", None)
        assert_matches_eigh(laplacian_1d(16))
        assert routes["eigh"] == 1

    def test_rejects_nonsymmetric_tridiagonal(self, routes):
        A = laplacian_1d(8).tolil()
        A[2, 3] = -1.5
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigendecomposition(A.tocsr())
        assert routes == {"dstevd": 0, "eigh": 0}

    def test_order_cap_before_any_dense_work(self, routes):
        with pytest.raises(ValueError, match="5000"):
            sym_eigendecomposition(sp.identity(5001, format="csr"))
        assert routes == {"dstevd": 0, "eigh": 0}

    def test_nonzero_info_raises(self, monkeypatch):
        monkeypatch.setattr(densefun, "dstevd",
                            lambda d, e: (d, np.eye(d.size), 3))
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            sym_eigendecomposition(laplacian_1d(8))


def _hermitian_2x2():
    return np.array([[2.0, 1j], [-1j, 2.0]])


def _complex_tridiagonal():
    """laplacian_1d(4) with +-1j added to the first off-diagonals: a
    Hermitian tridiagonal matrix that the band scan would accept."""
    return (laplacian_1d(4) + sp.diags_array(
        [1j * np.ones(3), -1j * np.ones(3)], offsets=[1, -1])).tocsr()


def _complex_sparse_general():
    """synthetic_problem(20).A (bandwidth 4) plus a Hermitian imaginary
    pair at (0, 10) and (10, 0)."""
    A = synthetic_problem(20).A.astype(np.complex128).tolil()
    A[0, 10], A[10, 0] = 0.5j, -0.5j
    return A.tocsr()


class TestComplexInput:
    """A complex matrix or vector is refused before any float64 cast,
    which would drop its imaginary part with only a ComplexWarning."""

    @pytest.mark.parametrize("make", [
        _hermitian_2x2,
        lambda: sp.csr_array(_hermitian_2x2()),
        _complex_sparse_general,
        _complex_tridiagonal,
    ], ids=["dense", "sparse-2x2", "sparse-general", "sparse-tridiagonal"])
    def test_complex_matrix_raises(self, make, routes):
        with pytest.raises(ValueError, match="complex"):
            sym_eigendecomposition(make())
        assert routes == {"dstevd": 0, "eigh": 0}

    @pytest.mark.parametrize("apply", [
        sinc_apply_dense, psi_apply_dense, sigma_apply_dense])
    def test_complex_vector_raises(self, apply, routes):
        v = np.ones(4) + 1j * np.arange(4)
        with pytest.raises(ValueError, match="vector must be real"):
            apply(laplacian_1d(4), v)
        assert routes == {"dstevd": 0, "eigh": 0}

    def test_complex_dtype_with_real_values_raises(self):
        with pytest.raises(ValueError, match="complex"):
            sym_eigendecomposition(laplacian_1d(4).astype(np.complex128))


class TestApplies:
    def test_sinc_matches_series_oracle(self, lap64, rng):
        v = rng.standard_normal(64)
        y = sinc_apply_dense(lap64, v)
        y_series = sinc_series_apply(lap64, v)
        assert np.linalg.norm(y - y_series) <= 1e-12 * np.linalg.norm(v)

    def test_psi_is_half_step_sigma_squared(self, lap64, rng):
        # psi(h^2 A) = sigma(h^2 A / 4)^2 as operators
        v = rng.standard_normal(64)
        h = 0.7
        once = psi_apply_dense(lap64, v, h=h)
        twice = sigma_apply_dense(lap64, sigma_apply_dense(lap64, v, h=h / 2),
                                  h=h / 2)
        assert np.linalg.norm(once - twice) <= 1e-12 * np.linalg.norm(v)

    def test_filters_at_h_zero_limit(self, lap64, rng):
        v = rng.standard_normal(64)
        assert np.allclose(psi_apply_dense(lap64, v, h=0.0), v, atol=1e-14)
        assert np.allclose(sigma_apply_dense(lap64, v, h=0.0), v, atol=1e-14)

    def test_shape_mismatch(self, lap64):
        with pytest.raises(ValueError, match="shape"):
            sinc_apply_dense(lap64, np.ones(63))
