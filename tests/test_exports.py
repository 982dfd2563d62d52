"""Every exported name resolves, and the removed helpers stay removed."""

import importlib
import inspect
import pkgutil

import pytest

import sincint
from sincint.fem import TriMesh
from sincint.krylov import RationalKrylovSpace
from sincint.problems import spectral_interval

_MODULES = sorted(m.name for m in pkgutil.iter_modules(sincint.__path__))
_REMOVED = {"fem": ("save_mesh", "load_mesh"),
            "densefun": ("funm_sym", "expm_i_dense"),
            "special": ("gauss_legendre", "QuadratureRule", "Polynomial",
                        "laguerre_coeffs", "poly_roots"),
            "poles": ("scale_poles", "square_poles")}


def test_package_exports_resolve():
    assert [n for n in sincint.__all__ if not hasattr(sincint, n)] == []


@pytest.mark.parametrize("name", _MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"sincint.{name}")
    exports = getattr(module, "__all__", ())
    assert [n for n in exports if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(_REMOVED))
def test_removed_helpers_are_gone(name):
    module = importlib.import_module(f"sincint.{name}")
    for helper in _REMOVED[name]:
        assert not hasattr(module, helper)
        assert not hasattr(sincint, helper)
        assert helper not in sincint.__all__


def test_removed_members_are_gone():
    assert not hasattr(TriMesh, "n_triangles")
    assert not hasattr(RationalKrylovSpace, "project")
    assert list(inspect.signature(spectral_interval).parameters) == ["A"]
