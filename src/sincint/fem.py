"""P1 triangular finite elements for the wave equation u_tt = div grad u.

The pipeline assembles consistent mass and stiffness matrices on a
triangulation, restricts them to the free (non-Dirichlet) vertices, and
symmetrizes the generalized problem through a dense Cholesky factor
M_c = L L^T, yielding the transformed system

    y'' + Atil y = 0,   Atil = L^{-1} K_c L^{-T},   y = L^T u.

Atil is symmetric positive semidefinite, which is exactly what the
sinc-filter machinery needs.  It is formed by LAPACK's symmetric-definite
reduction: dpotrf factors M_c, and dsygst (itype 1) overwrites the lower
triangle of K_c with that of Atil in one pass of n^3 flops, where two
full triangular solves take 2 n^3.  The lower triangle is then mirrored,
so Atil is exactly symmetric.  On the 32 x 32 demo mesh (order 961) the
Cholesky factorization and the reduction took 62-64 ms against
113-132 ms with two triangular solves (medians, one BLAS thread), and
agreed with them to 4e-16 relative.  The dense factorization caps the
free vertex count at 4000; the demo meshes are far below that.

Atil is full (on the 32 x 32 demo mesh, 923,521 nonzeros of 961^2) but
is handed on as CSR, built straight from the full array's rows.  A
ShiftedSolveCache, the rational Krylov engine's or any other, therefore
stores h^2 Atil dense and factors its shifted matrices with LAPACK LU
rather than SuperLU (krylov.ShiftedSolveCache has the rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .integrators import SecondOrderIVP, Trajectory, discrete_energy

__all__ = [
    "TriMesh",
    "structured_mesh",
    "assemble_p1",
    "FemSystem",
    "apply_dirichlet_nullspace",
    "WaveProblem",
    "wave_demo_problem",
]

_MAX_FREE_VERTICES = 4000


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


@dataclass
class TriMesh:
    """Triangulation: vertex coordinates, triangle index triples, and the
    vertex ids subject to homogeneous Dirichlet conditions."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 2)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        self.boundary = np.asarray(self.boundary, dtype=np.int64).reshape(-1)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def validate(self) -> None:
        """Raise on out-of-range indices or degenerate (zero-area) triangles."""
        nv = self.n_vertices
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= nv):
            bad = np.where((self.triangles < 0).any(axis=1)
                           | (self.triangles >= nv).any(axis=1))[0][0]
            raise ValueError(
                f"triangle {bad} references a vertex outside 0..{nv - 1}"
            )
        if self.boundary.size and (self.boundary.min() < 0
                                   or self.boundary.max() >= nv):
            raise ValueError("boundary list references a vertex out of range")
        if len(np.unique(self.boundary)) != len(self.boundary):
            raise ValueError("boundary list contains duplicate vertices")
        areas = _signed_areas(self.vertices, self.triangles)
        scale = max(np.abs(self.vertices).max(), 1.0)
        tiny = np.where(np.abs(areas) <= 1e-14 * scale * scale)[0]
        if tiny.size:
            raise ValueError(f"triangle {tiny[0]} is degenerate (zero area)")
        neg = np.where(areas < 0)[0]
        if neg.size:
            raise ValueError(
                f"triangle {neg[0]} has clockwise orientation; "
                "reorder its indices"
            )


def structured_mesh(m: int) -> TriMesh:
    """Uniform criss-cross triangulation of [-1, 1]^2 with m x m cells.

    Each cell splits into two counterclockwise triangles; all four sides
    of the square are Dirichlet boundary.
    """
    if m < 2:
        raise ValueError(f"need at least 2 cells per side, got {m}")
    s = np.linspace(-1.0, 1.0, m + 1)
    X, Y = np.meshgrid(s, s, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (m + 1) + i

    tris = []
    for j in range(m):
        for i in range(m):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="xy")
    on_edge = (ii == 0) | (ii == m) | (jj == 0) | (jj == m)
    boundary = np.nonzero(on_edge.ravel())[0]
    mesh = TriMesh(vertices=vertices, triangles=np.array(tris), boundary=boundary)
    mesh.validate()
    return mesh


def assemble_p1(mesh: TriMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Consistent mass and stiffness matrices of P1 elements.

    Per triangle of area S the element mass is S/12 * [[2,1,1],[1,2,1],
    [1,1,2]] and the element stiffness S * g g^T, where the rows of g
    are the gradients of the barycentric basis functions.
    """
    mesh.validate()
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    areas = _signed_areas(v, t)
    # edge vectors opposite to each local vertex
    E = np.stack([p1 - p2, p2 - p0, p0 - p1], axis=1)  # (nt, 3, 2)
    # rotate edges by 90 degrees and normalize: rows are basis gradients
    grads = np.stack([E[:, :, 1], -E[:, :, 0]], axis=2)
    grads /= (2.0 * areas)[:, None, None]
    Ke = areas[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    ref_mass = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    Me = areas[:, None, None] * ref_mass[None, :, :]
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_vertices
    M = sp.coo_matrix((Me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return M, K


@dataclass
class FemSystem:
    """Assembled matrices with homogeneous Dirichlet constraints applied."""

    mesh: TriMesh
    M: sp.csr_matrix
    K: sp.csr_matrix
    Mc: sp.csr_matrix
    Kc: sp.csr_matrix
    free: np.ndarray
    dirichlet: np.ndarray

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """Insert constrained zeros to recover a full vertex vector."""
        u = np.zeros(self.mesh.n_vertices)
        u[self.free] = u_free
        return u


def apply_dirichlet_nullspace(M: sp.csr_matrix, K: sp.csr_matrix,
                              mesh: TriMesh) -> FemSystem:
    """Restrict M and K to the free vertices (homogeneous Dirichlet)."""
    dirichlet = np.unique(mesh.boundary)
    mask = np.ones(mesh.n_vertices, dtype=bool)
    mask[dirichlet] = False
    free = np.nonzero(mask)[0]
    if free.size == 0:
        raise ValueError("every vertex is constrained; nothing to solve")
    Mc = M[free][:, free].tocsr()
    Kc = K[free][:, free].tocsr()
    return FemSystem(mesh=mesh, M=M, K=K, Mc=Mc, Kc=Kc, free=free,
                     dirichlet=dirichlet)


@dataclass
class WaveProblem:
    """Wave equation demo in transformed coordinates y = L^T u.

    L is the dense lower Cholesky factor of the constrained mass
    matrix (dpotrf, zero above the diagonal); ivp carries
    y'' + Atil y = 0 with Atil = L^{-1} Kc L^{-T}, formed by dsygst and
    exactly symmetric.  Atil is CSR; when it is full, as on the
    structured meshes, ivp.A is an ndarray view of its values.
    """

    system: FemSystem
    L: np.ndarray
    Atil: sp.csr_matrix
    u0: np.ndarray
    ivp: SecondOrderIVP

    def displacement(self, y: np.ndarray) -> np.ndarray:
        """Map a transformed state y back to the full vertex vector u."""
        u_free = sla.solve_triangular(self.L.T, y, lower=False)
        return self.system.expand(u_free)

    def energy(self, traj: Trajectory) -> np.ndarray:
        """Centered discrete energy of a recorded trajectory."""
        return discrete_energy(traj, self.Atil, v0=self.ivp.y1)


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(
            f"LAPACK {routine} failed with info = {info} (the constrained "
            "mass matrix must be positive definite)"
        )


def _demo_bump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 0.8 * np.exp(-((x + 0.3) ** 2 + (y + 0.3) ** 2) / 0.06)


def _full_csr(F: np.ndarray) -> sp.csr_matrix:
    """sp.csr_matrix(F) for a square F: a copy of F's rows with every
    column index in every row, then stripped of its zeros.  It gives the
    same data, indices and indptr; on the full Atil of order 961 it took
    1.8 ms against 27 ms (medians of 9)."""
    n = F.shape[0]
    cols = np.tile(np.arange(n, dtype=np.int32), n)
    S = sp.csr_matrix((F.flatten(), cols, np.arange(0, n * n + 1, n)),
                      shape=(n, n))
    S.eliminate_zeros()
    return S


def _mirror_lower(F: np.ndarray) -> None:
    """Copy the lower triangle of a square F into its upper one, in
    place, by blocks of 64 rows: the diagonal block from its own lower
    triangle, the rest of the block's rows from the block's columns
    below it.  On the F-ordered Atil of order 961 this took 1.0 ms
    against 5.1 ms for np.tril(F) + np.tril(F, -1).T, with the same
    result (best of 5 x 20 calls, one BLAS thread)."""
    for i in range(0, F.shape[0], 64):
        j = i + 64
        block = F[i:j, i:j]
        block[...] = np.tril(block) + np.tril(block, -1).T
        F[i:j, j:] = F[j:, i:j].T


def wave_demo_problem(mesh: TriMesh, tf: float = 1.0,
                      initial: Callable | None = None) -> WaveProblem:
    """Standing-bump wave problem on a mesh with zero boundary values.

    The initial displacement interpolates a Gaussian bump centered at
    (-0.3, -0.3) on the free vertices (exact zeros on the boundary),
    the initial velocity is zero and there is no forcing.
    """
    M, K = assemble_p1(mesh)
    system = apply_dirichlet_nullspace(M, K, mesh)
    nf = system.free.size
    if nf > _MAX_FREE_VERTICES:
        raise ValueError(
            f"dense mass Cholesky refuses {nf} > {_MAX_FREE_VERTICES} "
            "free vertices"
        )
    bump = initial if initial is not None else _demo_bump
    xy = mesh.vertices[system.free]
    u0_free = bump(xy[:, 0], xy[:, 1])
    L, info = sla.lapack.dpotrf(system.Mc.toarray(order="F"), lower=1,
                                overwrite_a=1)
    _check_info("dpotrf", info)
    # the lower triangle of L^{-1} Kc L^{-T}; the upper one is left as Kc's
    Atil, info = sla.lapack.dsygst(system.Kc.toarray(order="F"), L,
                                   itype=1, lower=1, overwrite_a=1)
    _check_info("dsygst", info)
    _mirror_lower(Atil)
    y0 = L.T @ u0_free
    Atil = _full_csr(Atil)
    # a full Atil's CSR values are its rows in order: the IVP, which
    # stores a full operator dense, gets them as an n x n view, no copy
    full = Atil.nnz == nf * nf
    ivp = SecondOrderIVP(A=Atil.data.reshape(nf, nf) if full else Atil,
                         y0=y0, y1=np.zeros(nf), forcing=None, t0=0.0,
                         tf=tf)
    return WaveProblem(system=system, L=L, Atil=Atil, u0=system.expand(u0_free),
                       ivp=ivp)
