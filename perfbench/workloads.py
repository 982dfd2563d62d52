"""The benchmark's workloads, their exact references and their checks.

Every workload draws its inputs from a seed when it is created; each
call to `run` then times one full run through the public API, from
problem construction to the final state, and `check` compares that
state with a reference computed once, outside any timed region.

Why these four: `lap2d-ratkrylov` is the heavy sparse rational-Krylov
path (LU factorizations in set-up, shifted solves and Gram-Schmidt per
step); `fem-wave` runs the same layer on the dense-in-CSR FEM operator;
`synthetic-converge` is tiny, so per-call Python overhead dominates and
an LU or solve speed-up should show no change; `lap1d-expsum-dense` is
the only route through the dense and exponential-sum layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.fft

from sincint import (
    SecondOrderIVP,
    gautschi_init,
    gautschi_step,
    laplacian_1d,
    laplacian_2d,
    make_filters,
    structured_mesh,
    synthetic_problem,
    synthetic_reference,
    wave_demo_problem,
)
from sincint.cli import parse_backend
from spans import NullTracer


@dataclass
class Run:
    """Outcome of one timed run.  For a step-size sweep the states and
    times are per step size."""

    setup_s: float
    step_s: float
    steps: int
    run_s: float
    finals: list
    prevs: list
    ivp: SecondOrderIVP


@dataclass
class Check:
    rel_error: float
    ok: bool
    detail: str


def _integrate(tr, A, ivp, h, backend, steps):
    """make_filters + init + steps; returns (prev, final, t_init_done)."""
    with tr.span("integrators.make_filters"):
        engine = make_filters(A, h, backend)
    tr.watch(engine)
    with tr.span("integrators.init"):
        state = gautschi_init(ivp, h, engine)
    t_init = perf_counter()
    prev = state
    for _ in range(steps):
        prev = state
        with tr.span("integrators.step"):
            state = gautschi_step(state, ivp, engine)
    return prev, state, t_init


def _single_run(tr, build, h, backend, steps) -> Run:
    t0 = perf_counter()
    A, ivp = build()
    prev, final, t1 = _integrate(tr, A, ivp, h, backend, steps)
    t2 = perf_counter()
    return Run(setup_s=t1 - t0, step_s=t2 - t1, steps=steps, run_s=t2 - t0,
               finals=[final], prevs=[prev], ivp=ivp)


def _rel(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def exact_filters(z):
    """psi(z) and sigma(z) for z >= 0, from numpy's normalized sinc."""
    r = np.sqrt(z) / np.pi
    return np.sinc(r / 2) ** 2, np.sinc(r)


def staggered_modal(lam, y0, y1, h, steps):
    """The staggered scheme with exact filters, one scalar mode per
    entry of lam (modal coordinates in, modal coordinates out)."""
    psi, sigma = exact_filters(h * h * lam)
    y = y0.copy()
    v = 0.5 * h * psi * (-lam * y) + sigma * y1
    for _ in range(steps):
        y = y + h * v
        v = v + h * psi * (-lam * y)
    return y


def _dst_eigenvalues(m: int) -> np.ndarray:
    """Eigenvalues of tridiag(-1, 2, -1) of order m, in DST-I order."""
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))


def dst_reference_1d(scale, y0, y1, h, steps):
    """Final state for A = scale * laplacian_1d(n) in the DST-I basis."""
    lam = scale * _dst_eigenvalues(y0.shape[0])
    t = lambda x: scipy.fft.dst(x, type=1, norm="ortho")
    return t(staggered_modal(lam, t(y0), t(y1), h, steps))


def dst_reference_2d(scale, y0, y1, h, steps):
    """Final state for A = scale * laplacian_2d(m*m) in the 2D DST-I
    basis; the grid index of entry i*m + j is (i, j)."""
    m = int(round(np.sqrt(y0.shape[0])))
    mu = _dst_eigenvalues(m)
    lam = scale * (mu[:, None] + mu[None, :])
    t = lambda x: scipy.fft.dstn(x.reshape(m, m), type=1, norm="ortho")
    y = staggered_modal(lam, t(y0), t(y1), h, steps)
    return t(y).reshape(-1)


class Workload:
    name: str
    # Report the fastest timed run instead of the median (see
    # FASTEST_NOTE in run.py).
    fastest = False

    def reference(self) -> None:
        """Compute the reference (outside any timed region)."""

    def run(self, tr) -> Run:
        raise NotImplementedError

    def check(self, run: Run) -> Check:
        raise NotImplementedError


class LaplacianWorkload(Workload):
    """Scaled Dirichlet Laplacian, seeded random y0 and y1, exact
    reference by the DST-I eigenbasis."""

    laplacian = None       # laplacian_1d or laplacian_2d
    dst_reference = None   # the matching reference

    def __init__(self, seed: int, order: int, scale: float, backend: str,
                 steps: int, tol: float, h: float = 0.01):
        rng = np.random.default_rng(seed)
        self.order, self.scale, self.h, self.steps = order, scale, h, steps
        self.backend = parse_backend(backend)
        self.tol = tol
        self.y0 = rng.standard_normal(order)
        self.y1 = rng.standard_normal(order)
        self.ref = None

    def reference(self) -> None:
        self.ref = self.dst_reference(self.scale, self.y0, self.y1, self.h,
                                      self.steps)

    def run(self, tr) -> Run:
        def build():
            with tr.span("problems.build"):
                A = self.scale * self.laplacian(self.order)
                return A, SecondOrderIVP(A=A, y0=self.y0, y1=self.y1)
        return _single_run(tr, build, self.h, self.backend, self.steps)

    def check(self, run: Run) -> Check:
        err = _rel(run.finals[0].y, self.ref)
        return Check(err, err <= self.tol,
                     f"rel_error {err:.3e} against the exact-filter "
                     f"reference (limit {self.tol:g})")


class Lap2dRatKrylov(LaplacianWorkload):
    name = "lap2d-ratkrylov"
    laplacian = staticmethod(laplacian_2d)
    dst_reference = staticmethod(dst_reference_2d)

    def __init__(self, seed: int, small: bool = False):
        m = 16 if small else 64
        super().__init__(seed, order=m * m, scale=(m - 1) ** 2,
                         backend="ratkrylov:E:1e-10", steps=30, tol=1e-8)


class Lap1dExpSumDense(LaplacianWorkload):
    name = "lap1d-expsum-dense"
    laplacian = staticmethod(laplacian_1d)
    dst_reference = staticmethod(dst_reference_1d)

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, order=100 if small else 1500, scale=1e4,
                         backend="expsum:8:8:dense", steps=3, tol=1e-8)


def _energy(A, y, v) -> float:
    return 0.5 * float(v @ v) + 0.5 * float(y @ (A @ y))


class FemWave(Workload):
    """FEM wave demo with a seeded bump centre; the reference is a
    DenseBackend run of the same problem."""

    name = "fem-wave"

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        cx, cy = -0.3 + rng.uniform(-0.05, 0.05, size=2)
        self.bump = lambda x, y: 0.8 * np.exp(-((x - cx) ** 2
                                                + (y - cy) ** 2) / 0.06)
        self.cells = 8 if small else 32
        self.h, self.steps = 0.01, 20
        self.backend = parse_backend("ratkrylov:Lbar:n4")
        self.ref = None

    def _problem(self):
        return wave_demo_problem(structured_mesh(self.cells),
                                 initial=self.bump)

    def reference(self) -> None:
        wp = self._problem()
        _, final, _ = _integrate(NullTracer(), wp.Atil, wp.ivp, self.h,
                                 parse_backend("dense"), self.steps)
        self.ref = final.y

    def run(self, tr) -> Run:
        def build():
            with tr.span("fem.setup") as s:
                wp = self._problem()
            s.attrs["atil_nnz"] = wp.Atil.nnz
            return wp.Atil, wp.ivp
        return _single_run(tr, build, self.h, self.backend, self.steps)

    def check(self, run: Run) -> Check:
        final, prev = run.finals[0], run.prevs[0]
        ivp = run.ivp
        A = ivp.A
        e0 = _energy(A, ivp.y0, ivp.y1)
        en = _energy(A, final.y, 0.5 * (prev.v_half + final.v_half))
        ratio = en / e0
        err = _rel(final.y, self.ref)
        ok = 0.98 <= ratio <= 1.02 and err <= 1e-5
        return Check(err, ok, f"rel_error {err:.3e} against DenseBackend "
                     f"(limit 1e-5), energy ratio {ratio:.6f} "
                     "(limits 0.98, 1.02)")


class SyntheticConverge(Workload):
    """Step-size sweep on synthetic_problem(20) with a seeded initial
    position; checked against synthetic_reference.  Already tiny, so
    small=True changes nothing."""

    name = "synthetic-converge"
    hs = (0.1, 0.05, 0.025, 0.01)
    fastest = True

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        self.N = 20
        self.y0 = 1.0 + 0.1 * rng.standard_normal(self.N)
        self.backend = parse_backend("ratkrylov:E:1e-12")
        self.ref = None

    def _problem(self):
        prob = synthetic_problem(self.N)
        prob.y0 = self.y0.copy()
        return prob

    def reference(self) -> None:
        self.ref = synthetic_reference(self._problem(), 1.0)

    def run(self, tr) -> Run:
        t0 = perf_counter()
        with tr.span("problems.build"):
            prob = self._problem()
            ivp = prob.as_ivp(tf=1.0)
        setup_s = perf_counter() - t0
        step_s = 0.0
        finals, prevs = [], []
        for h in self.hs:
            t = perf_counter()
            steps = int(round(1.0 / h))
            prev, final, t_init = _integrate(tr, prob.A, ivp, h,
                                             self.backend, steps)
            t_end = perf_counter()
            setup_s += t_init - t
            step_s += t_end - t_init
            finals.append(final)
            prevs.append(prev)
        return Run(setup_s=setup_s, step_s=step_s,
                   steps=sum(int(round(1.0 / h)) for h in self.hs),
                   run_s=perf_counter() - t0, finals=finals, prevs=prevs,
                   ivp=ivp)

    def check(self, run: Run) -> Check:
        errs = [_rel(f.y, self.ref) for f in run.finals]
        orders = [float(np.log(errs[i] / errs[i + 1])
                        / np.log(self.hs[i] / self.hs[i + 1]))
                  for i in range(len(errs) - 1)]
        ok = all(1.8 <= p <= 2.2 for p in orders)
        return Check(errs[-1], ok, "rel_error at h=0.01 "
                     f"{errs[-1]:.3e}, observed orders "
                     + "/".join(f"{p:.3f}" for p in orders)
                     + " (limits 1.8, 2.2)")


WORKLOADS = {w.name: w for w in (Lap2dRatKrylov, FemWave, SyntheticConverge,
                                 Lap1dExpSumDense)}
