"""P1 triangular finite elements for the wave equation u_tt = div grad u.

The pipeline assembles consistent mass and stiffness matrices on a
triangulation, restricts them to the free (non-Dirichlet) vertices, and
symmetrizes the generalized problem through a dense Cholesky factor
M_c = L L^T, yielding the transformed system

    y'' + Atil y = 0,   Atil = L^{-1} K_c L^{-T},   y = L^T u.

Atil is symmetric positive semidefinite, which is exactly what the
sinc-filter machinery needs.  The dense factorization caps the free
vertex count at 4000; the demo meshes are far below that.

Atil is full (on the 32 x 32 demo mesh, 923,521 nonzeros of 961^2) but
is handed on as CSR.  The rational Krylov engine therefore keeps
h^2 Atil dense and factors its shifted matrices with LAPACK LU rather
than SuperLU (see krylov and integrators.RationalKrylovBackend).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .integrators import SecondOrderIVP, Trajectory, discrete_energy

__all__ = [
    "TriMesh",
    "structured_mesh",
    "save_mesh",
    "load_mesh",
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

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

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
                "load_mesh repairs such files, or reorder the indices"
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


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh as plain text: header "nv nt nb", then vertex lines
    "x y", triangle lines "i j k", and one boundary vertex id per line."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles} {mesh.boundary.size}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for b in mesh.boundary:
        lines.append(str(b))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> TriMesh:
    """Read the plain-text mesh format written by save_mesh.

    Clockwise triangles are repaired by swapping their last two indices
    (with a warning); degenerate triangles and out-of-range indices are
    errors naming the offending triangle.
    """
    text = Path(path).read_text()
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 3:
        raise ValueError(f"{path}: first line must be 'nv nt nb'")
    nv, nt, nb = (int(x) for x in rows[0])
    if len(rows) != 1 + nv + nt + nb:
        raise ValueError(
            f"{path}: expected {1 + nv + nt + nb} lines of data, got {len(rows)}"
        )
    vertices = np.array([[float(v) for v in r] for r in rows[1:1 + nv]])
    triangles = np.array(
        [[int(v) for v in r] for r in rows[1 + nv:1 + nv + nt]], dtype=np.int64
    )
    boundary = np.array([int(r[0]) for r in rows[1 + nv + nt:]], dtype=np.int64)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        bad = np.where((triangles < 0).any(axis=1)
                       | (triangles >= nv).any(axis=1))[0][0]
        raise ValueError(f"{path}: triangle {bad} references a vertex out of range")
    areas = _signed_areas(vertices, triangles)
    flipped = np.where(areas < 0)[0]
    if flipped.size:
        warnings.warn(
            f"{path}: reoriented {flipped.size} clockwise triangle(s): "
            f"{flipped[:8].tolist()}{'...' if flipped.size > 8 else ''}",
            stacklevel=2,
        )
        triangles[flipped] = triangles[flipped][:, [0, 2, 1]]
    mesh = TriMesh(vertices=vertices, triangles=triangles, boundary=boundary)
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
    matrix; ivp carries y'' + Atil y = 0 with Atil = L^{-1} Kc L^{-T}.
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


def _demo_bump(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 0.8 * np.exp(-((x + 0.3) ** 2 + (y + 0.3) ** 2) / 0.06)


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
    L = sla.cholesky(system.Mc.toarray(), lower=True)
    inv_L_Kc = sla.solve_triangular(L, system.Kc.toarray(), lower=True)
    Atil = sla.solve_triangular(L, inv_L_Kc.T, lower=True).T
    Atil = 0.5 * (Atil + Atil.T)
    y0 = L.T @ u0_free
    ivp = SecondOrderIVP(A=sp.csr_matrix(Atil), y0=y0,
                         y1=np.zeros(nf), forcing=None, t0=0.0, tf=tf)
    return WaveProblem(system=system, L=L, Atil=ivp.A, u0=system.expand(u0_free),
                       ivp=ivp)
