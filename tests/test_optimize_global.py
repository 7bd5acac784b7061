"""Tests for MCMC ingredients and basin-hopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figure2 import FIGURE2B_MINIMA, figure2b_objective
from repro.optimize.basinhopping import basinhopping
from repro.optimize.local.line_search import minimize_scalar
from repro.optimize.mcmc import metropolis_accept, propose_perturbation
from repro.optimize.result import OptimizeResult, evaluate_counted


def multimodal(x):
    return figure2b_objective(float(np.atleast_1d(x)[0]))


class TestMetropolis:
    def test_always_accepts_improvement(self, rng):
        assert metropolis_accept(rng, f_current=5.0, f_proposed=1.0)

    def test_never_accepts_nan(self, rng):
        assert not metropolis_accept(rng, 1.0, float("nan"))

    def test_acceptance_probability_matches_exponential(self, rng):
        """Worse proposals are accepted with probability exp(-gap/T) (Lem. 2.1 flavour)."""
        gap = 1.0
        trials = 4000
        accepted = sum(
            metropolis_accept(rng, 0.0, gap, temperature=1.0) for _ in range(trials)
        )
        expected = np.exp(-gap)
        assert accepted / trials == pytest.approx(expected, abs=0.05)

    def test_zero_temperature_is_greedy(self, rng):
        assert not metropolis_accept(rng, 1.0, 2.0, temperature=0.0)


class TestPerturbation:
    def test_shape_and_scale(self, rng):
        x = np.array([1.0, -1000.0])
        samples = np.array([propose_perturbation(rng, x, 0.5) for _ in range(200)])
        assert samples.shape == (200, 2)
        # The second coordinate's spread should be much wider (relative scaling).
        assert samples[:, 1].std() > 50 * samples[:, 0].std()

    def test_handles_non_finite_current_point(self, rng):
        x = np.array([float("inf")])
        proposal = propose_perturbation(rng, x, 1.0)
        assert proposal.shape == (1,)

    @pytest.mark.parametrize("step_size", [1.0, 0.37, 1e300])
    def test_matches_the_array_formula_bit_for_bit(self, step_size):
        """Each coordinate is ``base + z * (step * (1 + |base|))`` with
        ``base`` the coordinate or 0 when it is not finite, rounded exactly
        as the whole-array numpy expression rounds it, and the draw consumes
        the generator's stream the same way."""
        dbl_max = np.finfo(np.float64).max
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, tiny, -tiny, 3 * tiny,
                   np.finfo(np.float64).tiny, dbl_max, -dbl_max,
                   np.nextafter(dbl_max, 0.0), 1.0, -1e-300, 1e16]
        points = [np.array([value]) for value in special]
        points += [np.array(special[i:i + 3]) for i in range(0, len(special), 3)]
        new_rng, old_rng = np.random.default_rng(17), np.random.default_rng(17)
        for x in points:
            base = np.where(np.isfinite(x), x, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = base + old_rng.normal(size=x.shape) * (
                    step_size * (1.0 + np.abs(base)))
            got = propose_perturbation(new_rng, x, step_size)
            assert got.shape == x.shape and got.dtype == np.float64
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), x
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestBasinhopping:
    def test_escapes_local_minimum(self, rng):
        # Start near the local (non-global) basin of the Fig. 2(b) objective.
        result = basinhopping(multimodal, np.array([6.0]), n_iter=25, step_size=2.0, rng=rng)
        assert result.fun == pytest.approx(0.0, abs=1e-6)
        assert min(abs(result.x[0] - m) for m in FIGURE2B_MINIMA) < 1e-2

    def test_callback_stops_early(self, rng):
        calls = []

        def callback(x, f, accepted):
            calls.append(f)
            return True  # stop immediately

        result = basinhopping(multimodal, np.array([6.0]), n_iter=50, rng=rng, callback=callback)
        assert result.message == "stopped by callback"
        assert len(calls) == 1
        assert result.nit == 0

    def test_zero_iterations_is_pure_local_minimization(self, rng):
        result = basinhopping(lambda x: float((x[0] - 2) ** 2), np.array([9.0]), n_iter=0, rng=rng)
        assert result.fun == pytest.approx(0.0, abs=1e-8)
        assert result.nit == 0

    def test_accepts_callable_local_minimizer(self, rng):
        calls = []

        def line_minimizer(func, x0, **options):
            """A 1-D local minimizer: one line search from ``x0``."""
            calls.append(options)
            x0 = np.atleast_1d(np.asarray(x0, dtype=float))
            t, f, nfev = minimize_scalar(lambda t: func(x0 + t))
            return OptimizeResult(x=x0 + t, fun=f, nfev=nfev)

        result = basinhopping(
            multimodal, np.array([0.0]), n_iter=10, local_minimizer=line_minimizer, rng=rng,
            local_options={"max_iterations": 7},
        )
        assert result.fun == pytest.approx(0.0, abs=1e-4)
        assert calls and all(options == {"max_iterations": 7} for options in calls)

    def test_deterministic_given_seed(self):
        a = basinhopping(multimodal, np.array([5.0]), n_iter=10, rng=np.random.default_rng(3))
        b = basinhopping(multimodal, np.array([5.0]), n_iter=10, rng=np.random.default_rng(3))
        assert a.fun == b.fun
        assert np.array_equal(a.x, b.x)


class TestOptimizeResult:
    def test_normalizes_x_to_array(self):
        result = OptimizeResult(x=[1.0, 2.0], fun=3)
        assert isinstance(result.x, np.ndarray)
        assert result.fun == 3.0

    def test_better_than(self):
        assert OptimizeResult(x=[0.0], fun=1.0).better_than(OptimizeResult(x=[0.0], fun=2.0))

    def test_evaluate_counted(self):
        wrapped, counter = evaluate_counted(lambda x: x * 2)
        assert wrapped(3) == 6
        assert wrapped(4) == 8
        assert counter[0] == 2
