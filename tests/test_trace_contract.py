"""The benchmark tracer's name contract with the package.

perfbench/spans.py wraps the package's layer entry points by attribute
name, in the namespaces that call them.  These tests load that module
as it is and check that every name still resolves and that each filter
route still reaches the layers the per-layer metrics are read from.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sincint.cli import parse_backend
from sincint.integrators import (
    SecondOrderIVP,
    gautschi_init,
    gautschi_step,
    make_filters,
)
from sincint.problems import laplacian_1d

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves(spans):
    for owner, attr, name, _attrs in spans._layer_entry_points():
        assert callable(getattr(owner, attr, None)), (owner, attr, name)


_KRYLOV_SOLVES = {"krylov.build_space", "krylov.lu", "krylov.solve"}

# At the step below, h^2 A has zmax about 16.  There tol mode selects E
# degree 17, whose poles all lie far from the spectrum, so each filter
# is its Chebyshev expansion: no Krylov space, no LU and no shifted
# solve; the poles of degree 4 are near, and its products build spaces,
# factor and solve.
ROUTES = {
    "dense": {"densefun.eigh"},
    "expsum:6:6:dense": {"densefun.eigh"},
    "expsum:6": {"densefun.eigh"},
    "ratkrylov:E:1e-8": {"expsum.spectral_radius", "bounds.select"},
    "ratkrylov:E:n4": {"krylov.apply_function"} | _KRYLOV_SOLVES,
}


@pytest.mark.parametrize("spec", sorted(ROUTES))
def test_route_reaches_its_layers(spans, spec):
    # order 80 is stored sparse, so degree 4 factors with SuperLU,
    # which the tracer wraps
    A = 100.0 * laplacian_1d(80)
    rng = np.random.default_rng(0)
    ivp = SecondOrderIVP(A=A, y0=rng.standard_normal(80),
                         y1=rng.standard_normal(80))
    h = 0.2
    tr = spans.Tracer()
    with tr.installed():
        engine = make_filters(A, h, parse_backend(spec))
        tr.watch(engine)
        state = gautschi_init(ivp, h, engine)
        for _ in range(2):
            state = gautschi_step(state, ivp, engine)
    names = {s.name for s in tr.spans}
    common = {"integrators.psi", "integrators.sigma", "integrators.rhs"}
    assert names == ROUTES[spec] | common
    totals = tr.totals()
    assert totals["integrators.psi"]["calls"] == 3
    assert totals["integrators.sigma"]["calls"] == 1
