"""P1 triangular elements: element forms, assembly, mesh checks, wave setup."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import sincint.fem as fem_module
from sincint.fem import (
    TriMesh,
    apply_dirichlet_nullspace,
    assemble_p1,
    structured_mesh,
    wave_demo_problem,
)


def _unit_triangle():
    return TriMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary=np.array([], dtype=np.int64),
    )


class TestElementMatrices:
    def test_unit_triangle_mass(self):
        M, _ = assemble_p1(_unit_triangle())
        expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        assert np.max(np.abs(M.toarray() - expect)) <= 1e-14

    def test_unit_triangle_stiffness(self):
        _, K = assemble_p1(_unit_triangle())
        expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.max(np.abs(K.toarray() - expect)) <= 1e-14

    def test_mass_sums_to_domain_area(self):
        M, _ = assemble_p1(structured_mesh(8))
        assert M.sum() == pytest.approx(4.0, abs=1e-12)

    def test_constants_in_stiffness_kernel(self):
        _, K = assemble_p1(structured_mesh(8))
        assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-13

    def test_linear_patch(self):
        """K applied to a linear interpolant vanishes on interior rows."""
        mesh = structured_mesh(6)
        _, K = assemble_p1(mesh)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        u = 0.7 * x - 1.3 * y + 0.2
        r = K @ u
        interior = np.setdiff1d(np.arange(mesh.vertices.shape[0]), mesh.boundary)
        assert np.max(np.abs(r[interior])) <= 1e-13

    def test_interior_five_point_stencil(self):
        """On the structured grid the P1 stiffness row is the classical
        4 / -1 cross, with the diagonal couplings cancelling."""
        m = 4
        _, K = assemble_p1(structured_mesh(m))
        center = 2 * (m + 1) + 2
        row = K.toarray()[center]
        nz = {j: row[j] for j in np.nonzero(np.abs(row) > 1e-14)[0]}
        assert nz == {
            center - (m + 1): -1.0, center - 1: -1.0, center: 4.0,
            center + 1: -1.0, center + (m + 1): -1.0,
        }


class TestStructuredMesh:
    def test_counts(self):
        m = 5
        mesh = structured_mesh(m)
        assert mesh.vertices.shape == ((m + 1) ** 2, 2)
        assert mesh.triangles.shape == (2 * m * m, 3)
        assert len(np.unique(mesh.boundary)) == 4 * m

    def test_positive_orientation(self):
        mesh = structured_mesh(6)
        mesh.validate()

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            structured_mesh(1)


class TestMeshIO:
    """TriMesh.validate, the check every mesh passes before assembly."""

    def test_degenerate_triangle_rejected(self):
        mesh = TriMesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary=np.array([], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            mesh.validate()

    @pytest.mark.parametrize("triangles,boundary,message", [
        ([[0, 1, 3]], [], "triangle 0 references a vertex outside 0..2"),
        ([[0, 1, 2]], [3], "boundary list references a vertex out of range"),
        ([[0, 1, 2]], [1, 1], "boundary list contains duplicate vertices"),
        ([[0, 2, 1]], [], "triangle 0 has clockwise orientation"),
    ], ids=["triangle-index", "boundary-index", "duplicate-boundary",
            "clockwise"])
    def test_validate_refuses(self, triangles, boundary, message):
        mesh = TriMesh(vertices=_unit_triangle().vertices,
                       triangles=np.array(triangles),
                       boundary=np.array(boundary, dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            mesh.validate()


class TestConstrainedSystem:
    def test_every_vertex_constrained_is_refused(self):
        mesh = TriMesh(vertices=_unit_triangle().vertices,
                       triangles=_unit_triangle().triangles,
                       boundary=np.array([0, 1, 2]))
        M, K = assemble_p1(mesh)
        with pytest.raises(ValueError, match="every vertex is constrained"):
            apply_dirichlet_nullspace(M, K, mesh)

    def test_frozen_stiffness_interval(self):
        mesh = structured_mesh(32)
        M, K = assemble_p1(mesh)
        sysm = apply_dirichlet_nullspace(M, K, mesh)
        lam = np.linalg.eigvalsh(sysm.Kc.toarray())
        assert lam[0] == pytest.approx(0.0192611, rel=1e-4)
        assert lam[-1] == pytest.approx(7.9807389, rel=1e-4)

    def test_expand_scatters_free_values(self):
        mesh = structured_mesh(4)
        M, K = assemble_p1(mesh)
        sysm = apply_dirichlet_nullspace(M, K, mesh)
        u = sysm.expand(np.arange(1.0, len(sysm.free) + 1))
        assert np.all(u[sysm.dirichlet] == 0.0)
        assert np.array_equal(u[sysm.free], np.arange(1.0, len(sysm.free) + 1))


class TestWaveProblem:
    def test_mass_whitened_operator(self):
        wp = wave_demo_problem(structured_mesh(8), tf=0.5)
        A = wp.Atil.toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-12
        lam = np.linalg.eigvalsh(A)
        assert lam[0] >= 0.0

    @pytest.mark.parametrize("m", [8, 16])
    def test_symmetric_definite_reduction(self, m):
        """Atil is exactly symmetric and equals L^{-1} Kc L^{-T} formed
        by two full triangular solves; L is the lower Cholesky factor."""
        wp = wave_demo_problem(structured_mesh(m), tf=0.5)
        A = wp.Atil.toarray()
        assert np.array_equal(A, A.T)
        L = wp.L
        assert np.array_equal(L, np.tril(L))
        Mc = wp.system.Mc.toarray()
        assert np.linalg.norm(L @ L.T - Mc) <= 1e-14 * np.linalg.norm(Mc)
        inv_L_Kc = sla.solve_triangular(L, wp.system.Kc.toarray(), lower=True)
        want = sla.solve_triangular(L, inv_L_Kc.T, lower=True).T
        assert np.linalg.norm(A - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lower_triangle_mirrored_in_place(self, n, order):
        """Blocks of 64 rows, at and across their edges, give the full
        symmetric matrix of the lower triangle, bit for bit."""
        F = np.random.default_rng(n).standard_normal((n, n))
        F = np.asarray(F, order=order)
        want = np.tril(F) + np.tril(F, -1).T
        fem_module._mirror_lower(F)
        assert np.array_equal(F, want)

    @pytest.mark.parametrize("m", [8, 32])
    def test_atil_csr_matches_csr_matrix_of_the_full_array(self, m):
        wp = wave_demo_problem(structured_mesh(m), tf=0.5)
        want = sp.csr_matrix(wp.Atil.toarray())
        assert wp.Atil.format == "csr"
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(wp.Atil, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("m", [8, 32])
    def test_ivp_stores_a_small_atil_dense(self, m):
        """The IVP holds the full Atil, of order 49 or 961, as an ndarray
        view of the values of the CSR WaveProblem.Atil, not a copy."""
        wp = wave_demo_problem(structured_mesh(m), tf=0.5)
        assert wp.Atil.format == "csr"
        assert wp.Atil.nnz == wp.Atil.shape[0] ** 2
        assert isinstance(wp.ivp.A, np.ndarray)
        assert np.array_equal(wp.ivp.A, wp.Atil.toarray())
        assert np.shares_memory(wp.ivp.A, wp.Atil.data)

    def test_full_csr_drops_zeros(self):
        F = np.arange(16.0).reshape(4, 4)
        F[1, 2] = -0.0
        before = F.copy()
        S = fem_module._full_csr(F)
        assert np.array_equal(F, before)
        assert np.array_equal(S.toarray(), F)
        assert S.nnz == 14
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(S, name),
                                  getattr(sp.csr_matrix(F), name))

    @pytest.mark.parametrize("routine", ["dpotrf", "dsygst"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        original = getattr(fem_module.sla.lapack, routine)

        def failing(*args, **kwargs):
            return original(*args, **kwargs)[0], 3

        monkeypatch.setattr(fem_module.sla.lapack, routine, failing)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            wave_demo_problem(structured_mesh(4))

    def test_displacement_inverts_initial_state(self):
        wp = wave_demo_problem(structured_mesh(8), tf=0.5)
        u = wp.displacement(wp.ivp.y0)
        assert np.max(np.abs(u - wp.u0)) <= 1e-12
        assert np.all(u[wp.system.dirichlet] == 0.0)

    def test_custom_initial_field(self):
        bump = lambda x, y: x * 0.0 + 1.0
        wp = wave_demo_problem(structured_mesh(4), tf=0.5, initial=bump)
        free = wp.system.free
        assert np.allclose(wp.u0[free], 1.0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            wave_demo_problem(structured_mesh(70))
