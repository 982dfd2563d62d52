"""Tests of the benchmark itself: references, tracing, workloads, output.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from sincint import (
    DenseBackend,
    SecondOrderIVP,
    gautschi_integrate,
    laplacian_1d,
    laplacian_2d,
    make_filters,
)

ROOT = Path(__file__).resolve().parents[2]


def _quiet(*_args):
    pass


@pytest.mark.parametrize("dim", [1, 2])
def test_dst_reference_equals_dense_backend(dim):
    rng = np.random.default_rng(7)
    n, scale, h, steps = (40, 1e4, 0.01, 12) if dim == 1 else (64, 49.0, 0.01, 12)
    A = scale * (laplacian_1d(n) if dim == 1 else laplacian_2d(n))
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    ivp = SecondOrderIVP(A=A, y0=y0, y1=y1, tf=steps * h)
    dense = gautschi_integrate(ivp, h, DenseBackend()).final
    ref = (workloads.dst_reference_1d if dim == 1
           else workloads.dst_reference_2d)(scale, y0, y1, h, steps)
    assert np.linalg.norm(ref - dense) <= 1e-12 * np.linalg.norm(dense)


def _entry_points():
    return [(owner, attr, getattr(owner, attr), attr in vars(owner))
            for owner, attr, _, _ in spans._layer_entry_points()]


def test_wrappers_restore_originals():
    before = _entry_points()
    A = laplacian_1d(20)
    engine = make_filters(A, 0.1, DenseBackend())
    tr = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            tr.watch(engine)
            for owner, attr, original, _ in before:
                assert getattr(owner, attr) is not original
            assert "psi" in vars(engine)
            1 / 0
    for owner, attr, original, own in before:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own
    assert "psi" not in vars(engine) and "sigma" not in vars(engine)


def test_self_times_exclude_children():
    tr = spans.Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("b"):
            pass
    a, b1, b2 = tr.spans
    assert b1.parent == 0 and b2.parent == 0
    assert a.self_s == pytest.approx(a.duration - b1.duration - b2.duration)
    assert tr.totals()["b"]["calls"] == 2
    assert tr.top_level_s() == a.duration


def test_traced_counts_match_hand_count_on_lap2d():
    # order 4096, E family at tol 1e-10 gives degree 8: the psi and
    # sigma pole sets have 9 distinct values each and share the origin,
    # so 17 LUs; each space has 18 columns, i.e. 17 solves, and the
    # space never breaks down at this order.
    wl = workloads.Lap2dRatKrylov(seed=0)
    wl.reference()
    tr = spans.Tracer()
    with tr.installed():
        r = wl.run(tr)
    assert wl.check(r).ok
    m = spans.layer_values(tr.totals())
    steps = wl.steps
    assert m["bounds.degree"] == 8
    assert m["krylov.lu_count"] == 17
    assert m["krylov.solve_calls"] == 34 + 17 * steps
    assert m["krylov.build_space_calls"] == 2 + steps
    assert m["krylov.space_dim_sum"] == 18 * (2 + steps)
    assert m["krylov.breakdowns"] == 0
    assert m["integrators.psi_calls"] == 1 + steps
    assert m["integrators.sigma_calls"] == 1
    assert m["integrators.rhs_calls"] == 1 + steps
    assert m["integrators.step_calls"] == steps
    # the layers' self times and the unattributed rest make up the run
    layers = sum(v for k, v in m.items() if k.endswith("_s"))
    unattributed = r.run_s - tr.top_level_s()
    assert layers + unattributed == pytest.approx(r.run_s, rel=1e-9)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke_at_reduced_size(name, trace):
    result, extra = run.measure(name, seed=3, seconds=0, trace=trace,
                                small=True, log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    assert extra["meta"]["seed"] == 3
    assert extra["meta"]["blas_threads"] == run.BLAS_THREADS
    if trace:
        counts = [{k: v for k, v in r.items() if k.endswith(
            ("_count", "_calls", "_nnz", "_sum", "breakdowns", "degree"))}
            for r in extra["traced_runs"]]
        assert all(c == counts[0] for c in counts)
        assert extra["spans"]


def test_traced_counts_repeat_exactly():
    result, extra = run.measure("synthetic-converge", seed=5, seconds=2,
                                trace=True, log=_quiet)
    runs = extra["traced_runs"]
    assert len(runs) >= 2
    for key in ("krylov.lu_count", "krylov.solve_calls", "krylov.breakdowns",
                "krylov.space_dim_sum", "bounds.degree"):
        assert len({r[key] for r in runs}) == 1, key


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(n, u) for n, u, _, _ in spans.LAYER_METRICS]
            + run.TRACE_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fem-wave",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
