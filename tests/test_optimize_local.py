"""Tests for the local optimization algorithms (line search, Powell, Nelder-Mead, compass)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.local import (
    bracket_minimum,
    compass_search,
    get_local_minimizer,
    golden_section,
    minimize_scalar,
    nelder_mead,
    powell,
)

LOCAL_MINIMIZERS = [powell, nelder_mead, compass_search]


def quadratic(x):
    x = np.atleast_1d(x)
    return float((x[0] - 3.0) ** 2)


def paper_equation_1(x):
    """f(x1, x2) = (x1-3)^2 + (x2-5)^2 with minimum point (3, 5)."""
    x = np.atleast_1d(x)
    return float((x[0] - 3.0) ** 2 + (x[1] - 5.0) ** 2)


def piecewise_flat(x):
    """The Fig. 2(a) objective: flat for x <= 1, quadratic beyond."""
    x = float(np.atleast_1d(x)[0])
    return 0.0 if x <= 1.0 else (x - 1.0) ** 2


def far_threshold(x):
    """Zero only beyond a large threshold -- needs the expanding bracket."""
    x = float(np.atleast_1d(x)[0])
    return 0.0 if x >= 1.0e12 else (1.0e12 - x) ** 2 / 1.0e24


class TestLineSearch:
    def test_bracket_contains_minimum(self):
        low, mid, high, _ = bracket_minimum(lambda t: (t - 7.0) ** 2, t0=0.0, step=1.0)
        assert low <= 7.0 <= high

    def test_golden_section_refines(self):
        t, f, _ = golden_section(lambda t: (t - 7.0) ** 2, 0.0, 20.0)
        assert t == pytest.approx(7.0, abs=1e-5)
        assert f == pytest.approx(0.0, abs=1e-9)

    def test_minimize_scalar_handles_nan(self):
        t, f, _ = minimize_scalar(lambda t: float("nan") if t < 0 else (t - 2.0) ** 2, t0=1.0)
        assert f == pytest.approx(0.0, abs=1e-8)

    def test_minimize_scalar_travels_far(self):
        t, f, _ = minimize_scalar(far_threshold, t0=0.0, step=1.0)
        assert f == 0.0
        assert t >= 1.0e12

    @given(target=st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_scalar_minimum_found_anywhere(self, target):
        t, f, _ = minimize_scalar(lambda t: (t - target) ** 2, t0=0.0, step=1.0)
        assert f <= 1e-6 * max(1.0, target * target)


class TestLocalMinimizers:
    @pytest.mark.parametrize("minimize", LOCAL_MINIMIZERS)
    def test_quadratic_1d(self, minimize):
        result = minimize(quadratic, np.array([10.0]))
        assert result.fun == pytest.approx(0.0, abs=1e-6)
        assert result.x[0] == pytest.approx(3.0, abs=1e-2)

    @pytest.mark.parametrize("minimize", LOCAL_MINIMIZERS)
    def test_paper_equation_1_in_2d(self, minimize):
        result = minimize(paper_equation_1, np.array([0.0, 0.0]), max_iterations=200)
        assert result.fun == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("minimize", LOCAL_MINIMIZERS)
    def test_flat_region_is_a_minimum(self, minimize):
        result = minimize(piecewise_flat, np.array([6.0]))
        assert result.fun == 0.0
        assert result.x[0] <= 1.0 + 1e-9

    @pytest.mark.parametrize("minimize", LOCAL_MINIMIZERS)
    def test_result_counts_evaluations(self, minimize):
        result = minimize(quadratic, np.array([5.0]))
        assert result.nfev > 0
        assert result.nit >= 1

    def test_powell_handles_nan_objective(self):
        def nan_for_negative(x):
            x = float(np.atleast_1d(x)[0])
            return float("nan") if x < -10.0 else (x - 1.0) ** 2

        result = powell(nan_for_negative, np.array([5.0]))
        assert math.isfinite(result.fun)
        assert result.fun == pytest.approx(0.0, abs=1e-6)

    def test_powell_from_an_infinite_start_raises_no_numpy_warning(self):
        # Lines from x0 = (inf, 0) run to t = inf, where inf * 0 is NaN.
        def flattening(x):
            return 1.0 / (1.0 + abs(float(x[1])))

        x0 = np.array([math.inf, 0.0])
        with np.errstate(all="ignore"):
            expected = powell(flattening, x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = powell(flattening, x0)
        assert result.x.tobytes() == expected.x.tobytes()
        assert (result.fun, result.nfev) == (expected.fun, expected.nfev)

    def test_registry_lookup(self):
        assert get_local_minimizer("powell") is powell
        assert get_local_minimizer("Nelder-Mead") is nelder_mead
        with pytest.raises(ValueError):
            get_local_minimizer("gradient-descent")
