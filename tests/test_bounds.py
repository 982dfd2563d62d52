"""A-priori bound formulas: frozen values, monotonicity, selection."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sincint.bounds import expsum_bound, select_pole_count, sinc_family_bound


class TestFrozenValues:
    def test_exp_family(self):
        assert sinc_family_bound("E", 1, 1.0) == pytest.approx(1 / 6, rel=1e-12)
        assert sinc_family_bound("E", 2, 1.0) == pytest.approx(1 / 360, rel=1e-12)

    def test_hyp_families(self):
        assert sinc_family_bound("L", 1, 1.0) == pytest.approx(2 / 9, rel=1e-12)
        assert sinc_family_bound("Lbar", 1, 1.0) == pytest.approx(1 / 90, rel=1e-12)

    def test_quadrature(self):
        assert expsum_bound(1, 2.0) == pytest.approx(math.pi / 2, rel=1e-12)
        assert expsum_bound(2, 2.0) == pytest.approx(math.pi / 24, rel=1e-12)

    def test_zero_argument(self):
        assert sinc_family_bound("E", 3, 0.0) == 0.0
        assert expsum_bound(5, 0.0) == 0.0


class TestShape:
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=1e-3, max_value=30.0))
    def test_decreasing_in_degree_eventually(self, n, z):
        # once 2n exceeds e*z/2 the ratio of consecutive bounds is < 1;
        # rather than pin the onset, check the bound at n+20 is smaller
        b1 = sinc_family_bound("E", n, z)
        b2 = sinc_family_bound("E", min(n + 20, 64), z)
        if n + 20 <= 64:
            assert b2 < b1 or b2 == 0.0

    @given(st.sampled_from(["E", "L", "Lbar"]),
           st.integers(min_value=1, max_value=30),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_monotone_in_z(self, family, n, z1, z2):
        lo, hi = sorted((z1, z2))
        assert sinc_family_bound(family, n, lo) <= sinc_family_bound(family, n, hi)

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.1, max_value=16.0))
    def test_quadrature_bound_positive(self, nu, rho):
        assert expsum_bound(nu, rho) > 0.0

    def test_large_degree_large_z_does_not_overflow(self):
        val = sinc_family_bound("L", 64, 1e6)
        assert val > 0 and math.isinf(val)


class TestSelection:
    def test_frozen_selections(self):
        assert select_pole_count("E", 0.0, 1e-8) == 1
        assert select_pole_count("E", 1.0, 0.2) == 1
        assert select_pole_count("E", 1.0, 0.01) == 2

    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    def test_monotone_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        assert (select_pole_count("E", lo, 1e-8)
                <= select_pole_count("E", hi, 1e-8))

    def test_returned_degree_meets_and_predecessor_misses(self):
        for zmax in (0.5, 3.0, 12.0):
            n = select_pole_count("Lbar", zmax, 1e-10)
            assert sinc_family_bound("Lbar", n, zmax) <= 1e-10
            if n > 1:
                assert sinc_family_bound("Lbar", n - 1, zmax) > 1e-10

    def test_saturation_raises(self):
        with pytest.raises(ValueError, match="no degree"):
            select_pole_count("E", 1e4, 1e-12)


class TestValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            sinc_family_bound("X", 1, 1.0)

    @pytest.mark.parametrize("family", ["pade-sinc"])
    def test_family_without_bound_says_give_degree(self, family):
        with pytest.raises(ValueError,
                           match=f"{family}.*no a-priori bound.*fixed degree n"):
            select_pole_count(family, 1.0, 1e-8)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            sinc_family_bound("E", 0, 1.0)
        with pytest.raises(ValueError):
            sinc_family_bound("E", 65, 1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sinc_family_bound("E", 1, -1.0)
        with pytest.raises(ValueError):
            expsum_bound(0, 1.0)
        with pytest.raises(ValueError):
            expsum_bound(2, -1.0)
        with pytest.raises(ValueError):
            select_pole_count("E", 1.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan],
                             ids=["0", "-1e-8", "nan"])
    def test_tolerance_that_is_not_positive_is_refused_as_such(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            select_pole_count("E", 1.0, tol)
