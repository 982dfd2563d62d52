"""One guard per input condition, the same on every route: the operator
check, the real-vector check, the integer-count guard, exact conjugate
closure, the step-size check, the tolerance-mode degree ceiling, the
finite time window and real problem data."""

import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from sincint.bounds import expsum_bound, sinc_family_bound
from sincint import cli
from sincint.cli import main, parse_backend
from sincint.expsum import expsum_sinc, expsum_sinc2
from sincint.integrators import (DenseBackend, ExpSumBackend,
                                 RationalKrylovBackend, SecondOrderIVP,
                                 gautschi_integrate, make_filters)
from sincint.krylov import ShiftedSolveCache, build_space, sinc_apply
from sincint.poles import (PoleSet, poles_E, poles_L, poles_Lbar,
                           poles_pade_exp)
from sincint.problems import laplacian_1d, synthetic_problem
from sincint.special import sinc_approx_exp_pade, sinc_approx_hyp_sym

_BACKENDS = ["dense", "expsum:8", "ratkrylov:E:n4", "ratkrylov:E:1e-10"]


def _with_entry(value, storage):
    """100 * laplacian_1d(16) with value at (5, 5), sparse or dense."""
    A = (100.0 * laplacian_1d(16)).tolil()
    A[5, 5] = value
    return A.tocsr() if storage == "sparse" else A.toarray()


class TestNonFiniteOperator:
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("spec", _BACKENDS)
    def test_every_engine_refuses(self, spec, value, storage):
        A = _with_entry(value, storage)
        with pytest.raises(ValueError, match="non-finite"):
            make_filters(A, 0.1, parse_backend(spec))

    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_cache_refuses(self, value, storage):
        with pytest.raises(ValueError, match="non-finite"):
            ShiftedSolveCache(_with_entry(value, storage))


class TestOperatorShapeAndDtype:
    @pytest.mark.parametrize("to_storage", [np.asarray, sp.csr_matrix],
                             ids=["dense", "sparse"])
    def test_cache_names_nonsquare_shape(self, to_storage):
        with pytest.raises(ValueError, match=r"square.*\(3, 4\)"):
            ShiftedSolveCache(to_storage(np.ones((3, 4))))

    @pytest.mark.parametrize("spec", ["ratkrylov:E:n4", "ratkrylov:E:1e-10"])
    def test_krylov_engine_refuses_complex_matrix(self, spec):
        A = laplacian_1d(16).astype(np.complex128)
        with pytest.raises(ValueError, match="complex"):
            make_filters(A, 0.1, parse_backend(spec))


_COUNT_GUARDS = {
    "sinc_approx_exp_pade": lambda n: sinc_approx_exp_pade(n, 1.0),
    "sinc_approx_hyp_sym": lambda n: sinc_approx_hyp_sym(n, 1.0),
    "poles_pade_exp": lambda n: poles_pade_exp(n).values,
    "poles_E": lambda n: poles_E(n).values,
    "poles_L": lambda n: poles_L(n).values,
    "poles_Lbar": lambda n: poles_Lbar(n).values,
    "sinc_family_bound": lambda n: sinc_family_bound("E", n, 2.0),
    "expsum_bound": lambda n: expsum_bound(n, 2.0),
    "ExpSumBackend": lambda n: ExpSumBackend(n),
    "RationalKrylovBackend": lambda n: RationalKrylovBackend("E", n=n),
    "expsum_sinc": lambda n: expsum_sinc(laplacian_1d(8), np.ones(8), n),
    "expsum_sinc2": lambda n: expsum_sinc2(laplacian_1d(8), np.ones(8), n),
}


class TestCountGuard:
    @pytest.mark.parametrize("name", list(_COUNT_GUARDS))
    def test_numpy_integer_accepted(self, name):
        fn = _COUNT_GUARDS[name]
        assert np.array_equal(fn(np.int64(3)), fn(3))

    @pytest.mark.parametrize("name", list(_COUNT_GUARDS))
    @pytest.mark.parametrize("bad", [3.0, -1, "3", True])
    def test_non_integer_refused(self, name, bad):
        with pytest.raises(ValueError, match="integer"):
            _COUNT_GUARDS[name](bad)


class TestExactConjugateClosure:
    def test_roundoff_partners_are_not_closed(self):
        z = -0.5 + 2.0j
        near = PoleSet((z, z.conjugate() * (1.0 + 1e-15)))
        assert not near.is_conjugate_closed()
        assert PoleSet((z, z.conjugate())).is_conjugate_closed()

    def test_products_of_a_near_conjugate_set_are_complex(self):
        z = -0.5 + 2.0j
        near = PoleSet((z, z.conjugate() * (1.0 + 1e-15)))
        A = laplacian_1d(16)
        v = np.linspace(1.0, 2.0, 16)
        y = sinc_apply(A, v, near)
        assert y.dtype == np.complex128


class TestTolerance:
    def test_cli_refuses_a_nan_tolerance_with_exit_3(self, capsys):
        rc = main(["converge", "--h-list", "0.1",
                   "--backend", "ratkrylov:E:nan", "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error=guard: tolerance must be positive, got nan" in err


class TestNonFiniteSeed:
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_build_space_refuses(self, value):
        v = np.ones(16)
        v[5] = value
        with pytest.raises(ValueError, match="seed vector must be finite and nonzero"):
            build_space(laplacian_1d(16), v, poles_E(4))


class TestSpaceArguments:
    @pytest.mark.parametrize("seed,k,message", [
        (np.ones(15), None, "seed length 15 does not match order 16"),
        (np.ones(16), 0, "space dimension must be >= 1, got 0"),
    ], ids=["seed-length", "k-0"])
    def test_build_space_refuses(self, seed, k, message):
        with pytest.raises(ValueError, match=message):
            build_space(laplacian_1d(16), seed, poles_E(4), k=k)


class TestDegreeCeiling:
    def test_cli_reports_the_ceiling_with_exit_3(self, capsys):
        # converge counts the steps first, so h divides the window
        rc = main(["converge", "--h-list", "0.15", "--T", "0.45",
                   "--backend", "ratkrylov:E:1e-12", "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error=guard" in err
        for part in ("degree 29", "tol=1e-12", "zmax=", "up to degree 20",
                     "smaller h", "fixed degree"):
            assert part in err


_BAD_STEPS = [0.0, -0.1, np.nan, np.inf]


class TestStepSize:
    """A step that is not finite and positive is refused by make_filters
    before any engine is built, on every backend."""

    @pytest.mark.parametrize("h", _BAD_STEPS, ids=["0", "-0.1", "nan", "inf"])
    @pytest.mark.parametrize("spec", _BACKENDS)
    def test_every_engine_refuses(self, spec, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step size h must be "
                               "finite and positive"):
                make_filters(100.0 * laplacian_1d(16), h, parse_backend(spec))

    @pytest.mark.parametrize("argv", [
        ["wave", "--m", "4", "--h", "0"],
        ["wave", "--m", "4", "--h", "nan", "--backend", "ratkrylov:E:1e-10"],
        ["converge", "--h-list", "0"],
        ["converge", "--h-list", "inf", "--backend", "dense"],
    ], ids=["wave-0", "wave-nan-tol", "converge-0", "converge-inf"])
    def test_cli_exits_3_naming_the_step(self, argv, capsys):
        assert main(argv + ["--quiet"]) == 3
        err = capsys.readouterr().err
        assert "error=guard: step size h must be finite and positive" in err


def _ivp(**data):
    return SecondOrderIVP(**{"A": laplacian_1d(4), "y0": np.ones(4),
                             "y1": np.zeros(4), **data})


class TestTimeWindow:
    """A window that is not finite is refused when the problem is made,
    and a step count span / h that is not finite when the steps are
    counted, before the count is rounded to an integer."""

    @pytest.mark.parametrize("t0,tf", [(0.0, np.inf), (-np.inf, 1.0),
                                       (0.0, np.nan)],
                             ids=["tf-inf", "t0-inf", "tf-nan"])
    def test_problem_refuses(self, t0, tf):
        with pytest.raises(ValueError, match="time window must be finite"):
            _ivp(t0=t0, tf=tf)

    @pytest.mark.parametrize("real", [float, np.float64])
    def test_step_count_that_overflows_is_refused(self, real):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="step count that is not finite"):
                gautschi_integrate(_ivp(tf=real(1e300)), real(1e-300),
                                   DenseBackend())

    @pytest.mark.parametrize("argv,message", [
        (["converge", "--T", "inf"], "time window must be finite"),
        (["wave", "--m", "4", "--T", "inf"], "time window must be finite"),
        (["converge", "--T", "1e300", "--h-list", "1e-300"],
         "step count that is not finite"),
    ], ids=["converge-inf", "wave-inf", "converge-overflow"])
    def test_cli_exits_3(self, argv, message, tmp_path, capsys):
        if argv[0] == "wave":
            argv = argv + ["--out-prefix", str(tmp_path / "wave")]
        assert main(argv + ["--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error=guard: ") and message in err
        assert list(tmp_path.iterdir()) == []


class TestRealProblemData:
    """A complex A, y0, y1 or forcing value is refused, not cast to
    float64 with its imaginary part dropped."""

    @pytest.mark.parametrize("name,what", [("A", "matrix"), ("y0", "y0"),
                                           ("y1", "y1")])
    def test_problem_refuses(self, name, what):
        data = {"A": laplacian_1d(4), "y0": np.ones(4), "y1": np.zeros(4)}
        with pytest.raises(ValueError, match=f"{what} must be real"):
            _ivp(**{name: data[name] * (1.0 + 1.0j)})

    def test_complex_forcing_is_refused(self):
        ivp = _ivp(forcing=lambda t: np.full(4, 1j * np.cos(t)))
        with pytest.raises(ValueError, match="forcing must be real"):
            gautschi_integrate(ivp, 0.1, DenseBackend())

    def test_cli_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "synthetic_problem", functools.partial(
            synthetic_problem, forcing_scale=0.5j))
        assert main(["converge", "--h-list", "0.1", "--quiet"]) == 3
        assert "error=guard: forcing must be real" in capsys.readouterr().err
