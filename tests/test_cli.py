"""Command-line harness: backend grammar, subcommands, exit codes."""

import argparse
import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio

import sincint.integrators as integrators_module
import sincint.krylov as krylov_module
from sincint import cli
from sincint.cli import main, parse_backend
from sincint.densefun import sinc_apply_dense
from sincint.expsum import expsum_sinc
from sincint.integrators import (
    BlowUpError,
    DenseBackend,
    ExpSumBackend,
    RationalKrylovBackend,
)
from sincint.problems import laplacian_1d

_ROOT = Path(__file__).resolve().parents[1]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBackendGrammar:
    def test_dense(self):
        assert parse_backend("dense") == DenseBackend()

    def test_fixed_degree(self):
        b = parse_backend("ratkrylov:Lbar:n6")
        assert b == RationalKrylovBackend(family="Lbar", n=6)

    def test_tolerance_mode(self):
        b = parse_backend("ratkrylov:E:1e-10")
        assert b == RationalKrylovBackend(family="E", tol=1e-10)

    def test_raw_pole_flag(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_backend("ratkrylov:E:n4:raw")

    def test_expsum(self):
        assert parse_backend("expsum:8") == ExpSumBackend(nu=8)
        # the older spelling names the same backend
        assert parse_backend("expsum:8:8:dense") == ExpSumBackend(nu=8)
        assert parse_backend("expsum:8:12:dense") == ExpSumBackend(nu=8)

    @pytest.mark.parametrize("text", [
        "bogus", "ratkrylov", "ratkrylov:E", "ratkrylov:Q:n4",
        "ratkrylov:E:n4:fancy", "expsum:8:12", "expsum:a:b", "dense:extra",
        "expsum:8:x:dense",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_backend(text)


def _documented_backends():
    """Every --backend value in README.md, and every backend spec string
    in the experiment scripts and the benchmark workloads."""
    specs = set(re.findall(r"--backend\s+([^\s`]+)",
                           (_ROOT / "README.md").read_text()))
    for path in [*(_ROOT / "scripts").glob("*.py"),
                 *(_ROOT / "perfbench").glob("*.py")]:
        specs.update(re.findall(
            r"[\"'](dense|(?:ratkrylov|expsum):[^\"']+)[\"']",
            path.read_text()))
    return sorted(specs)


class TestDocumentedBackends:
    def test_found_specs_of_every_kind(self):
        kinds = {s.split(":")[0] for s in _documented_backends()}
        assert kinds == {"dense", "ratkrylov", "expsum"}

    @pytest.mark.parametrize("spec", _documented_backends())
    def test_parses(self, spec):
        parse_backend(spec)


class TestPolesCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["poles", "--family", "E", "--n", "2",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        rows = _rows(out)
        assert len(rows) == 5
        again = tmp_path / "q.csv"
        main(["poles", "--family", "E", "--n", "2", "--out", str(again),
              "--quiet"])
        assert out.read_text() == again.read_text()

    def test_values_match_library(self, tmp_path):
        from sincint.poles import poles_Lbar

        out = tmp_path / "p.csv"
        main(["poles", "--family", "Lbar", "--n", "3", "--out", str(out),
              "--quiet"])
        got = [complex(float(r["re"]), float(r["im"])) for r in _rows(out)]
        assert np.allclose(got, poles_Lbar(3).values)


class TestMatrixCommand:
    def test_matrix_market_roundtrip(self, tmp_path):
        out = tmp_path / "lap.mtx"
        rc = main(["matrix", "--name", "lap1d", "--n", "16",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        back = sio.mmread(out).tocsr()
        assert (back != laplacian_1d(16)).nnz == 0


class TestBenchCommands:
    def test_pole_benchmark_small(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["poles-bench", "--matrix", "lap1d", "--families", "E,L",
                   "--n-max", "3", "--small", "--out", str(out), "--quiet"])
        assert rc == 0
        rows = _rows(out)
        assert rows and set(rows[0]) == {
            "matrix", "family", "n", "k", "rel_error", "seconds", "stagnated"}
        assert {r["family"] for r in rows} == {"E", "L"}
        errs = [float(r["rel_error"]) for r in rows if r["family"] == "E"]
        assert errs[-1] < errs[0]

    def test_expsum_benchmark_small(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["expsum-bench", "--matrix", "lap1d", "--nu-max", "6",
                   "--small", "--out", str(out), "--quiet"])
        assert rc == 0
        rows = _rows(out)
        assert list(rows[0]) == ["matrix", "nu", "rel_error", "seconds"]
        assert [int(r["nu"]) for r in rows] == list(range(1, 7))
        assert float(rows[-1]["rel_error"]) < float(rows[0]["rel_error"])

    def test_expsum_benchmark_dense_decomposes_once(self, tmp_path,
                                                    monkeypatch):
        calls = []
        real = cli.sym_eigendecomposition

        def counted(A):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(cli, "sym_eigendecomposition", counted)
        out = tmp_path / "e.csv"
        rc = main(["expsum-bench", "--matrix", "lap1d",
                   "--nu-max", "4", "--small", "--out", str(out), "--quiet"])
        assert rc == 0
        assert calls == [(256, 256)]
        # the errors are those of the public routes, each of which
        # decomposes A on its own
        A = laplacian_1d(256)
        v = np.random.default_rng(42).standard_normal(256)
        v /= np.linalg.norm(v)
        y_ref = sinc_apply_dense(A, v)
        want = ["%.6e" % (np.linalg.norm(
                    expsum_sinc(A, v, nu)
                    - y_ref) / np.linalg.norm(y_ref))
                for nu in range(1, 5)]
        assert [r["rel_error"] for r in _rows(out)] == want


class TestConvergeCommand:
    def test_schema_and_monotone_degrees(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["converge", "--N", "20", "--T", "0.5",
                   "--h-list", "0.1,0.05,0.025",
                   "--backend", "ratkrylov:E:1e-10",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        rows = _rows(out)
        assert set(rows[0]) == {"h", "degree", "rel_error", "observed_order",
                                "seconds"}
        degrees = [int(r["degree"]) for r in rows]
        assert degrees == sorted(degrees, reverse=True)
        errs = [float(r["rel_error"]) for r in rows]
        assert errs[-1] < errs[0]
        assert rows[0]["observed_order"] == ""
        assert 1.5 <= float(rows[-1]["observed_order"]) <= 2.5

    def test_ci_smoke_builds_krylov_spaces(self, monkeypatch, capsys):
        """The arguments of the CI smoke of the rational route: at these
        steps E degree 8 keeps near poles, so the run builds spaces
        rather than only Chebyshev expansions.  The synthetic operator
        of order 20 is stored dense, so its shifts are factored by
        LAPACK, never by SuperLU."""
        spaces, orders, superlu = [], [], []
        build_space = integrators_module.build_space
        lu_factor = krylov_module.sla.lu_factor
        splu = krylov_module.spla.splu

        def counted_space(*args, **kwargs):
            spaces.append(1)
            return build_space(*args, **kwargs)

        def counted_lu(M, *args, **kwargs):
            orders.append(M.shape[0])
            return lu_factor(M, *args, **kwargs)

        def counted_splu(M, *args, **kwargs):
            superlu.append(M.shape[0])
            return splu(M, *args, **kwargs)

        monkeypatch.setattr(integrators_module, "build_space", counted_space)
        monkeypatch.setattr(krylov_module.sla, "lu_factor", counted_lu)
        monkeypatch.setattr(krylov_module.spla, "splu", counted_splu)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["converge", "--h-list", "0.5,0.25", "--T", "1",
                       "--backend", "ratkrylov:E:n8", "--quiet"])
        assert rc == 0
        assert len(spaces) > 0
        assert orders and set(orders) == {20}
        assert superlu == []


class TestWaveCommand:
    def test_ci_smoke_factors_dense_lus(self, monkeypatch, tmp_path):
        """The arguments of the CI smoke of the dense LU route: at m = 8
        the FEM operator of order 49 is stored dense, and E degree 4 at
        h = 0.1 keeps near poles, so the run factors with LAPACK."""
        orders = []
        original = krylov_module.sla.lu_factor

        def counted(M, *args, **kwargs):
            orders.append(M.shape[0])
            return original(M, *args, **kwargs)

        monkeypatch.setattr(krylov_module.sla, "lu_factor", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["wave", "--m", "8", "--h", "0.1", "--T", "0.5",
                       "--backend", "ratkrylov:E:n4", "--quiet",
                       "--out-prefix", str(tmp_path / "wave")])
        assert rc == 0
        assert orders and set(orders) == {49}

    def test_writes_solution_and_energy(self, tmp_path):
        rc = main(["wave", "--m", "8", "--h", "0.05", "--T", "0.5",
                   "--out-prefix", str(tmp_path / "w"), "--quiet"])
        assert rc == 0
        sol = _rows(tmp_path / "w_solution.csv")
        en = _rows(tmp_path / "w_energy.csv")
        assert set(sol[0]) == {"vertex", "x", "y", "u"}
        assert set(en[0]) == {"t", "E"}
        assert len(sol) == 81
        assert len(en) == 11
        E = np.array([float(r["E"]) for r in en])
        assert np.all(E > 0)
        assert E[-1] / E[0] == pytest.approx(1.0, abs=0.05)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poles", "--family", "E"])
        assert exc.value.code == 2

    def test_wave_small_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wave", "--small"])
        assert exc.value.code == 2

    def test_guard_violation_is_3(self, tmp_path, capsys):
        rc = main(["poles", "--family", "E", "--n", "0",
                   "--out", str(tmp_path / "x.csv"), "--quiet"])
        assert rc == 3
        assert "error=guard" in capsys.readouterr().err

    def test_invalid_expsum_is_usage_error(self, capsys):
        for spec, why in (("expsum:8:12", "expected expsum:NU"),
                          ("expsum:8:0:dense", "K must be a positive integer"),
                          ("expsum:0", "nu must be a positive integer")):
            with pytest.raises(SystemExit) as exc:
                main(["converge", "--N", "20", "--h-list", "0.5",
                      "--backend", spec, "--quiet"])
            assert exc.value.code == 2
            assert why in capsys.readouterr().err

    def test_zero_ratkrylov_degree_is_usage_error(self, capsys):
        """Refused by the descriptor, as expsum:0 is."""
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--N", "20", "--h-list", "0.5",
                  "--backend", "ratkrylov:E:n0", "--quiet"])
        assert exc.value.code == 2
        assert "degree must be a positive integer" in capsys.readouterr().err

    def test_empty_step_list_is_3(self, capsys):
        assert main(["converge", "--h-list", ",", "--quiet"]) == 3
        assert "error=guard: empty --h-list" in capsys.readouterr().err

    def test_tolerance_mode_without_bound_is_3(self, capsys):
        rc = main(["converge", "--N", "8", "--h-list", "0.5",
                   "--backend", "ratkrylov:pade-sinc:1e-8", "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error=guard" in err and "fixed degree" in err

    def test_step_that_misses_the_window_builds_no_engine(self, monkeypatch,
                                                          capsys):
        built = []
        original = cli.make_filters

        def counted(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "make_filters", counted)
        rc = main(["converge", "--h-list", "0.3",
                   "--backend", "ratkrylov:E:n4", "--quiet"])
        assert rc == 3
        assert "does not divide the window" in capsys.readouterr().err
        assert built == []

    def test_io_failure_is_5(self, tmp_path, capsys):
        rc = main(["poles", "--family", "E", "--n", "1",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv"),
                   "--quiet"])
        assert rc == 5
        assert "error=io" in capsys.readouterr().err

    def test_out_of_memory_is_3(self, monkeypatch, capsys):
        def boom(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "cmd_converge", boom)
        rc = main(["converge", "--h-list", "1e-12", "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error=guard: out of memory: Unable to allocate" in err

    def test_numerical_failure_is_4(self, monkeypatch, capsys):
        import sincint.cli as cli

        def boom(args):
            raise BlowUpError("solution norm left the representable range")

        monkeypatch.setattr(cli, "cmd_poles", boom)
        rc = main(["poles", "--family", "E", "--n", "1", "--quiet"])
        assert rc == 4
        assert "error=numerical" in capsys.readouterr().err
