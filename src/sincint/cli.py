"""Command-line harness: pole tables, benchmarks, and experiments.

Subcommands
-----------
poles         print a pole family as CSV rows re,im
poles-bench   sinc(A)v accuracy of the pole families against the dense oracle
expsum-bench  exponential-sum accuracy sweep over the node count
converge      step-size sweep of the integrator on the synthetic problem
wave          finite-element wave demo, writing solution and energy CSVs

Backends are selected with a compact grammar:
    dense
    ratkrylov:FAMILY:nN      fixed degree, e.g. ratkrylov:E:n4
    ratkrylov:FAMILY:TOL     bound-driven degree, e.g. ratkrylov:E:1e-8
    expsum:NU                NU-node exponential sums, e.g. expsum:8
                             (expsum:NU:K:dense is read as expsum:NU)

Exit codes: 0 success, 2 usage, 3 guard violation (invalid sizes or
parameters, or a run too large for memory), 4 numerical failure (pole
collision, instability, degenerate projection), 5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager

import numpy as np

from .densefun import sinc_apply_dense, sym_eigendecomposition
from .expsum import scalar_sum_sinc
from .fem import structured_mesh, wave_demo_problem
from .integrators import (
    BlowUpError,
    DenseBackend,
    ExpSumBackend,
    RationalKrylovBackend,
    _step_count,
    gautschi_integrate,
    make_filters,
)
from .krylov import PoleCollisionError, ShiftedSolveCache, sinc_apply
from .poles import POLE_FAMILIES, sinc_family
from .problems import (
    laplacian_1d,
    laplacian_2d,
    synthetic_problem,
    synthetic_reference,
)
from .special import sinc


def parse_backend(text: str):
    """Parse the backend grammar described in the module docstring."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "dense":
            if len(parts) != 1:
                raise ValueError("dense takes no arguments")
            return DenseBackend()
        if kind == "ratkrylov":
            if len(parts) != 3:
                raise ValueError("expected ratkrylov:FAMILY:nN|TOL")
            family, spec = parts[1], parts[2]
            if spec.startswith("n") and spec[1:].isdigit():
                return RationalKrylovBackend(family=family, n=int(spec[1:]))
            return RationalKrylovBackend(family=family, tol=float(spec))
        if kind == "expsum":
            # expsum:NU:K:dense is the older spelling of expsum:NU
            if len(parts) == 4 and parts[3] == "dense":
                if not parts[2].isdigit() or int(parts[2]) < 1:
                    raise ValueError("K must be a positive integer")
            elif len(parts) != 2:
                raise ValueError("expected expsum:NU")
            return ExpSumBackend(nu=int(parts[1]))
        raise ValueError(f"unknown backend kind {kind!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse backend {text!r}: {exc}"
        ) from exc


@contextmanager
def _open_out(path: str | None):
    """Yield a text stream for --out, with '-' (or None) meaning stdout."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _say(args, msg: str) -> None:
    if not getattr(args, "quiet", False):
        print(msg, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands


def cmd_poles(args) -> int:
    ps = POLE_FAMILIES[args.family](args.n)
    with _open_out(args.out) as fh:
        w = _writer(fh)
        w.writerow(["re", "im"])
        for z in ps:
            w.writerow([repr(z.real), repr(z.imag)])
    return 0


def _bench_matrix(name: str, small: bool):
    if name == "lap1d":
        return laplacian_1d(256 if small else 2048)
    if name == "lap2d":
        return laplacian_2d(256 if small else 4096)
    if name == "fem":
        wp = wave_demo_problem(structured_mesh(8 if small else 32))
        return wp.Atil
    raise ValueError(f"unknown benchmark matrix {name!r}")


def cmd_poles_bench(args) -> int:
    A = _bench_matrix(args.matrix, args.small)
    n = A.shape[0]
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    y_ref = sinc_apply_dense(A, v)
    ref_norm = np.linalg.norm(y_ref)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    cache = ShiftedSolveCache(A)
    with _open_out(args.out) as fh:
        w = _writer(fh)
        w.writerow(["matrix", "family", "n", "k", "rel_error", "seconds",
                    "stagnated"])
        for family in families:
            poles = sinc_family(family)
            prev = None
            degrees = (range(2, min(args.n_max, 10) + 1, 2)
                       if family == "pade-sinc" else range(1, args.n_max + 1))
            for deg in degrees:
                ps = poles(deg)
                t0 = time.perf_counter()
                y = sinc_apply(A, v, ps, cache=cache)
                dt = time.perf_counter() - t0
                err = float(np.linalg.norm(y - y_ref) / ref_norm)
                stag = int(prev is not None and err <= 1e-6
                           and prev < 2.0 * err)
                w.writerow(["%s" % args.matrix, family, deg, len(ps) + 1,
                            "%.6e" % err, "%.4f" % dt, stag])
                prev = err
    return 0


def cmd_expsum_bench(args) -> int:
    A = _bench_matrix(args.matrix, args.small)
    n = A.shape[0]
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    # one eigendecomposition serves the reference and every nu: the
    # products below are the ones sinc_apply_dense and expsum_sinc form,
    # on the same Q
    lam, Q = sym_eigendecomposition(A)
    qv = Q.T @ v
    y_ref = Q @ (sinc(lam) * qv)
    ref_norm = np.linalg.norm(y_ref)
    with _open_out(args.out) as fh:
        w = _writer(fh)
        w.writerow(["matrix", "nu", "rel_error", "seconds"])
        for nu in range(1, args.nu_max + 1):
            t0 = time.perf_counter()
            y = Q @ (scalar_sum_sinc(lam, nu) * qv)
            dt = time.perf_counter() - t0
            err = float(np.linalg.norm(y - y_ref) / ref_norm)
            w.writerow([args.matrix, nu, "%.6e" % err, "%.4f" % dt])
    return 0


def cmd_converge(args) -> int:
    problem = synthetic_problem(args.N)
    ivp = problem.as_ivp(tf=args.T)
    y_ref = synthetic_reference(problem, args.T)
    ref_norm = np.linalg.norm(y_ref)
    h_list = [float(x) for x in args.h_list.split(",") if x.strip()]
    if not h_list:
        raise ValueError("empty --h-list")
    rows = []
    prev = None
    for h in h_list:
        _step_count(ivp, h)  # a step that misses the window builds no engine
        engine = make_filters(ivp.A, h, args.backend)
        t0 = time.perf_counter()
        traj = gautschi_integrate(ivp, h, engine)
        dt = time.perf_counter() - t0
        err = float(np.linalg.norm(traj.final - y_ref) / ref_norm)
        order = ""
        if prev is not None and err > 0 and prev[1] > 0:
            order = "%.3f" % (np.log(prev[1] / err) / np.log(prev[0] / h))
        # the size of the method: family degree, node count, or 0 (dense)
        degree = (args.backend.nu if isinstance(args.backend, ExpSumBackend)
                  else engine.pole_degree)
        rows.append([("%g" % h), degree, "%.6e" % err, order, "%.4f" % dt])
        prev = (h, err)
    with _open_out(args.out) as fh:
        w = _writer(fh)
        w.writerow(["h", "degree", "rel_error", "observed_order", "seconds"])
        w.writerows(rows)
    _say(args, f"converge: N={args.N} T={args.T} done ({len(rows)} runs)")
    return 0


def cmd_wave(args) -> int:
    mesh = structured_mesh(args.m)
    wp = wave_demo_problem(mesh, tf=args.T)
    traj = gautschi_integrate(wp.ivp, args.h, args.backend)
    u = wp.displacement(traj.final)
    E = wp.energy(traj)
    sol_path = f"{args.out_prefix}_solution.csv"
    with open(sol_path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["vertex", "x", "y", "u"])
        for i, ((x, y), ui) in enumerate(zip(mesh.vertices, u)):
            w.writerow([i, repr(float(x)), repr(float(y)), repr(float(ui))])
    en_path = f"{args.out_prefix}_energy.csv"
    with open(en_path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["t", "E"])
        for t, e in zip(traj.times, E):
            w.writerow([repr(float(t)), repr(float(e))])
    ratio = E[-1] / E[0] if E[0] != 0 else float("nan")
    _say(args, f"wave: m={args.m} steps={len(traj.times) - 1} "
               f"energy ratio {ratio:.6f}; wrote {sol_path}, {en_path}")
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sincint",
        description="sinc-filtered trigonometric integrators and their "
                    "matrix-function kernels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, small=False, out=True):
        if out:
            p.add_argument("--out", default=None,
                           help="output CSV path ('-' or omitted: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=42,
                           help="seed for the probe vector (default 42)")
        if small:
            p.add_argument("--small", action="store_true",
                           help="reduced problem sizes for quick runs")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress messages on stderr")

    p = sub.add_parser("poles", help="print a pole family as CSV")
    p.add_argument("--family", required=True, choices=sorted(POLE_FAMILIES))
    p.add_argument("--n", required=True, type=int, help="family degree")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("poles-bench",
                       help="pole-family accuracy sweep for sinc(A)v")
    p.add_argument("--matrix", default="lap1d",
                   choices=["lap1d", "lap2d", "fem"])
    p.add_argument("--families", default=",".join(POLE_FAMILIES),
                   help="comma list of families (default all four)")
    p.add_argument("--n-max", type=int, default=12)
    add_common(p, small=True)
    p.set_defaults(func=cmd_poles_bench)

    p = sub.add_parser("expsum-bench",
                       help="exponential-sum accuracy sweep over nu")
    p.add_argument("--matrix", default="lap1d", choices=["lap1d", "lap2d"])
    p.add_argument("--nu-max", type=int, default=15,
                   help="largest node count; the one eigendecomposition "
                        "of the reference serves every nu, so seconds "
                        "times only the sum's product")
    add_common(p, small=True)
    p.set_defaults(func=cmd_expsum_bench)

    p = sub.add_parser("converge",
                       help="step-size sweep on the synthetic problem")
    p.add_argument("--N", type=int, default=20, help="problem order")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.add_argument("--h-list", default="1e-1,5e-2,2.5e-2,1e-2")
    p.add_argument("--backend", type=parse_backend,
                   default=DenseBackend(),
                   help="dense | ratkrylov:FAM:nN|TOL | expsum:NU")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("wave", help="finite-element wave demo")
    p.add_argument("--m", type=int, default=16, help="cells per side")
    p.add_argument("--h", type=float, default=1e-2, help="time step")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.add_argument("--backend", type=parse_backend, default=DenseBackend())
    p.add_argument("--out-prefix", default="wave",
                   help="prefix of the two output CSV files")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_wave)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (PoleCollisionError, BlowUpError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error=numerical: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error=guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error=guard: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error=io: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
