"""Sinc-type matrix functions and trigonometric integrators.

The package computes products f(A)v for sparse symmetric positive
semidefinite A, where f is sinc or one of the filter functions psi and
sigma appearing in Gautschi-type schemes for y'' + Ay = f(t).  Three
routes are provided: a dense spectral reference, rational Krylov spaces
driven by Laguerre-derived and Pade pole families, and exponential sums,
Gauss-Legendre quadratures of sinc's integral representation applied
on the dense eigendecomposition.
"""

from .special import (
    sinc,
    psi,
    sigma,
    pade_sinc_denominator,
    sinc_approx_exp_pade,
    sinc_approx_hyp_sym,
)
from .bounds import sinc_family_bound, expsum_bound, select_pole_count
from .poles import (
    PoleSet,
    poles_E,
    poles_L,
    poles_Lbar,
    poles_pade_sinc,
)
from .densefun import (
    sym_eigendecomposition,
    sinc_apply_dense,
    psi_apply_dense,
    sigma_apply_dense,
)
from .krylov import (
    PoleCollisionError,
    RationalKrylovSpace,
    ShiftedSolveCache,
    build_space,
    apply_function,
    sinc_apply,
)
from .expsum import (
    expsum_sinc,
    expsum_sinc2,
    expsum_error_check,
    estimate_spectral_radius,
)
from .integrators import (
    SecondOrderIVP,
    IntegratorState,
    Trajectory,
    DenseBackend,
    RationalKrylovBackend,
    ExpSumBackend,
    BlowUpError,
    make_filters,
    gautschi_init,
    gautschi_step,
    gautschi_integrate,
    stormer_verlet_integrate,
    discrete_energy,
)
from .problems import (
    laplacian_1d,
    laplacian_2d,
    rutishauser,
    SyntheticProblem,
    synthetic_problem,
    synthetic_reference,
    spectral_interval,
)
from .fem import (
    TriMesh,
    structured_mesh,
    assemble_p1,
    FemSystem,
    apply_dirichlet_nullspace,
    WaveProblem,
    wave_demo_problem,
)

__version__ = "0.1.0"

__all__ = [
    "sinc", "psi", "sigma",
    "pade_sinc_denominator", "sinc_approx_exp_pade", "sinc_approx_hyp_sym",
    "sinc_family_bound", "expsum_bound", "select_pole_count",
    "PoleSet", "poles_E", "poles_L", "poles_Lbar", "poles_pade_sinc",
    "sym_eigendecomposition", "sinc_apply_dense", "psi_apply_dense",
    "sigma_apply_dense",
    "PoleCollisionError", "RationalKrylovSpace", "ShiftedSolveCache",
    "build_space", "apply_function", "sinc_apply",
    "expsum_sinc", "expsum_sinc2", "expsum_error_check",
    "estimate_spectral_radius",
    "SecondOrderIVP", "IntegratorState", "Trajectory", "DenseBackend",
    "RationalKrylovBackend", "ExpSumBackend", "BlowUpError",
    "make_filters", "gautschi_init", "gautschi_step", "gautschi_integrate",
    "stormer_verlet_integrate", "discrete_energy",
    "laplacian_1d", "laplacian_2d", "rutishauser", "SyntheticProblem",
    "synthetic_problem", "synthetic_reference", "spectral_interval",
    "TriMesh", "structured_mesh", "assemble_p1", "FemSystem",
    "apply_dirichlet_nullspace", "WaveProblem", "wave_demo_problem",
]
