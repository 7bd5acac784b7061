"""Tests for the local-minimizer registry and configuration validation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import cover
from repro.optimize.local import (
    available_local_minimizers,
    get_local_minimizer,
    powell,
    register_local_minimizer,
    unregister_local_minimizer,
)
from tests import sample_programs as sp

#: ``CoverMeConfig`` fields that once chose an alternative search or tuned
#: one; each is now a constant at its one consumer.  ``backend``,
#: ``step_size`` and ``start_scale`` have tests of their own below.
REMOVED_FIELDS = (
    "start_strategy", "verbose", "zero_tolerance", "batch_size", "epsilon",
    "temperature", "local_max_iterations",
)


class TestLocalMinimizerRegistry:
    def test_known_names_present(self):
        assert available_local_minimizers() == ("powell",)
        assert get_local_minimizer("POWELL") is powell  # lookup is case-insensitive

    def test_unknown_name_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown local minimizer 'compass'; known: powell"):
            get_local_minimizer("compass")

    def test_register_replace_and_unregister(self):
        try:
            register_local_minimizer("probe-plain", powell)
            assert get_local_minimizer("probe-plain") is powell
            with pytest.raises(ValueError, match="already registered"):
                register_local_minimizer("probe-plain", powell)
            register_local_minimizer("probe-plain", powell, replace=True)
        finally:
            unregister_local_minimizer("probe-plain")
        assert "probe-plain" not in available_local_minimizers()

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            register_local_minimizer("probe-bad", "not callable")

    def test_register_local_minimizer(self):
        try:

            @register_local_minimizer("probe-lm")
            def probe_lm(func, x0, **options):
                from repro.optimize.local.powell import powell

                return powell(func, x0, **options)

            config = CoverMeConfig(n_start=6, seed=1, local_minimizer="probe-lm")
            result = cover(sp.single_branch, config)
            assert result.branch_coverage == 1.0
        finally:
            unregister_local_minimizer("probe-lm")

    def test_replacing_powell_serves_later_runs(self):
        """A minimizer registered over ``powell`` is looked up when each
        basin-hopping run starts, so a wrapper sees every local search."""
        calls = {"n": 0}

        def counting(func, x0, **options):
            calls["n"] += 1
            return powell(func, x0, **options)

        try:
            register_local_minimizer("powell", counting, replace=True)
            result = cover(sp.single_branch, CoverMeConfig(n_start=6, seed=1))
        finally:
            register_local_minimizer("powell", powell, replace=True)
        assert result.branch_coverage == 1.0
        assert calls["n"] > 0


class TestConfigValidation:
    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_removed_search_options_raise(self, name):
        with pytest.raises(TypeError, match=name):
            CoverMeConfig(**{name: 1})

    def test_rejects_bad_step_size_and_start_scale(self):
        # Both are constants now (basin hopping's step and the scheduler's
        # START_SCALE); passing either fails loudly instead of being ignored.
        with pytest.raises(TypeError, match="step_size"):
            CoverMeConfig(step_size=0.0)
        with pytest.raises(TypeError, match="start_scale"):
            CoverMeConfig(start_scale=0.0)

    def test_rejects_unknown_backend(self):
        # Step 3 has one search; no backend name is known.
        with pytest.raises(TypeError, match="backend"):
            CoverMeConfig(backend="scipy")

    def test_rejects_unknown_local_minimizer(self):
        with pytest.raises(ValueError, match="unknown local minimizer"):
            CoverMeConfig(local_minimizer="bfgs")
        with pytest.raises(ValueError, match="known: powell"):
            CoverMeConfig(local_minimizer="compass")
        with pytest.raises(ValueError, match="non-empty"):
            CoverMeConfig(local_minimizer="")

    def test_rejects_engine_knob_misuse(self):
        with pytest.raises(ValueError, match="native_threads"):
            CoverMeConfig(native_threads=0)
        with pytest.raises(ValueError, match="progress"):
            CoverMeConfig(progress="not callable")


def test_engine_imports_leave_scipy_optimize_unloaded():
    """scipy.optimize doubles a process's resident size; nothing the engine
    or the experiment pipeline imports pulls it in."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import repro.core.coverme, repro.experiments.pipeline\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
