"""Benchmark of the filtered integrator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are drawn from the
seed and its reference is computed once, untimed.  Full runs (problem
construction to final state) then repeat: first for WARMUP_S seconds,
untimed, then for S seconds, timed.  Every run's final state is checked
against the reference; a run fails on an exception or a failed check.

--trace 0 prints the end-to-end metrics: medians over the timed runs
(for time metrics of a workload marked `fastest`, the best of them; see
FASTEST_NOTE) and the process's peak RSS.  --trace 1 alternates
untraced and traced runs; the traced ones wrap the package's layer
entry points from outside (see spans.py) and give the per-layer metrics
(medians over traced runs), and each traced run is compared with the
untraced run before it for trace.overhead_s and trace.accounted_frac.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The failed fraction is printed above it
but is not a metric, since it is 0 whenever the program is correct.  The
metadata (git sha, nproc, BLAS threads, versions, seed), the per-run
values and, for --trace 1, the spans of the last traced run are written
to perfbench/results/<workload>-seed<seed>-trace<t>.json.

BLAS runs on one thread: with two, SuperLU set-up on lap2d-ratkrylov
and the fem-wave steps were slower and spread more.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1
MIN_RUNS = 2  # runs after the warm-up, at least
# On a shared 2-vCPU KVM guest (Xeon, 2.1 GHz) a fresh process ran up to
# three times slower for its first second or so, so runs in the first
# WARMUP_S seconds (and at least one) are checked but not timed.
WARMUP_S = 2.0
# FASTEST_NOTE: on that guest, other tenants slowed every kind of code
# (pure Python by up to 2x, SuperLU and BLAS by up to 1.6x) in phases
# of seconds to minutes; thread CPU time rose with wall time, so the
# vCPU was running, only slower.  synthetic-converge runs for 0.13 s,
# so each 25 s run holds ~150 runs and quiet spells in every one: the
# fastest of them spread by 0.03-0.06 of their median over ten seeds,
# where the median (the share of the run the host was busy) spread by
# 0.17-0.36.  The other workloads run for 1-3.5 s, ~8-20 runs in 25 s,
# and their fastest run rests on one lucky spell: in two sets of ten
# seeds its worst spread was 0.29 of the median against the median's
# 0.22, so they report the median.
# Every run's values are kept in the results file.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("rel_error", "1"),
    ("peak_rss_mb", "MB"),
]
TRACE_METRICS = [
    ("problems.reference_s", "s"),
    ("trace.run_s", "s"),
    ("trace.span_count", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.accounted_frac", "1"),
]


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, log=print) -> tuple[dict, dict]:
    """Run one workload.  Returns the result object printed last (see
    the module docstring) and a dict of extras for the results file:
    meta, per-run timings and, when traced, per-run layer values and
    the spans of the last traced run.  small=True shrinks the matrices
    for the tests."""
    from time import perf_counter

    # imported here, after main() has pinned the BLAS threads
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, small=small)
    t = perf_counter()
    wl.reference()
    reference_s = perf_counter() - t

    null = spans.NullTracer()
    attempted = failed = 0
    timed: list[dict] = []     # one record per untraced timed run
    traced: list[dict] = []    # layer values per traced run
    pairs: list = []           # (untraced, traced) run_s of adjacent runs
    last_tracer = None
    warmup_end = perf_counter() + WARMUP_S
    deadline = None
    while True:
        now = perf_counter()
        if deadline is None and attempted and now >= warmup_end:
            deadline = now + seconds
            warmup_runs = attempted
        if deadline is not None and now >= deadline \
                and attempted - warmup_runs >= MIN_RUNS:
            break
        warm = deadline is None
        tracing = trace and not warm and (attempted - warmup_runs) % 2 == 1
        tr = spans.Tracer() if tracing else null
        attempted += 1
        gc.collect()
        gc.disable()
        try:
            if tracing:
                with tr.installed():
                    run = wl.run(tr)
            else:
                run = wl.run(tr)
            chk = wl.check(run)
        except Exception:
            failed += 1
            log(f"run {attempted} failed:\n{traceback.format_exc()}")
            continue
        finally:
            gc.enable()
        if not chk.ok:
            failed += 1
            log(f"run {attempted} failed its check: {chk.detail}")
            continue
        if warm:
            if attempted == 1:
                log(f"check: {chk.detail}")
        elif tracing:
            vals = spans.layer_values(tr.totals())
            vals["trace.run_s"] = run.run_s
            vals["trace.span_count"] = len(tr.spans)
            vals["trace.unattributed_s"] = run.run_s - tr.top_level_s()
            traced.append(vals)
            last_tracer = tr
            if timed:  # the untraced run just before this one
                pairs.append((timed[-1]["run_s"], run.run_s))
        else:
            timed.append({"run_s": run.run_s, "setup_s": run.setup_s,
                          "step_s": run.step_s, "steps": run.steps,
                          "rel_error": chk.rel_error})
        del run  # a run's matrices must not outlive it (peak_rss_mb)

    if not timed or (trace and not pairs):
        raise RuntimeError(f"no successful timed run of {name}")

    if trace:
        metrics = spans.median_values(traced)
        metrics["problems.reference_s"] = reference_s
        # adjacent runs share the machine's state, which drifted by tens
        # of percent within a minute on that guest, so overhead is taken
        # pairwise
        metrics["trace.overhead_s"] = statistics.median(
            t - u for u, t in pairs)
        # per-layer self times plus trace.unattributed_s add up to the
        # traced run exactly; this is their share of the untraced run
        metrics["trace.accounted_frac"] = statistics.median(
            t / u for u, t in pairs)
        units = ([(n, u) for n, u, _, _ in spans.LAYER_METRICS]
                 + TRACE_METRICS)
    else:
        best, top = ((min, max) if wl.fastest
                     else (statistics.median, statistics.median))
        metrics = {
            "run_s": best(r["run_s"] for r in timed),
            "setup_s": best(r["setup_s"] for r in timed),
            "steps_per_s": top(r["steps"] / r["step_s"] for r in timed),
            "rel_error": statistics.median(r["rel_error"] for r in timed),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    log(f"workload {name}  seed {seed}  trace {int(trace)}  "
        f"attempted {attempted} ({warmup_runs} warm-up)  failed {failed}  "
        f"failed_frac {failed / attempted:g}")
    log(f"timed runs {len(timed)}, traced runs {len(traced)}; "
        "run_s quartiles " + " / ".join(
            f"{x:.4f}" for x in _quartiles([r["run_s"] for r in timed])))
    for key, unit in units:
        log(f"  {key:30s} {metrics[key]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
    }
    extra = {"meta": metadata(name, seed, int(trace)), "runs": timed}
    if trace:
        extra["traced_runs"] = traced
        extra["spans"] = last_tracer.dump()
    return result, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sincint  # noqa: F401
    except ImportError as exc:
        print(f"cannot import sincint from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    try:
        result, extra = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, **extra}, indent=1))
    print("meta " + json.dumps(extra["meta"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
