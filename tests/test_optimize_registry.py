"""Tests for the optimizer backend registry and configuration validation."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import cover
from repro.optimize.basinhopping import basinhopping
from repro.optimize.local import (
    available_local_minimizers,
    register_local_minimizer,
    unregister_local_minimizer,
)
from repro.optimize.registry import (
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from tests import sample_programs as sp


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"builtin", "scipy"} <= set(available_backends())
        assert callable(get_backend("builtin"))
        assert callable(get_backend("SCIPY"))  # lookup is case-insensitive

    def test_unknown_backend_error_lists_known(self):
        with pytest.raises(ValueError, match="builtin"):
            get_backend("does-not-exist")

    def test_register_and_unregister(self):
        try:
            register_backend("probe-backend", basinhopping)
            assert get_backend("probe-backend") is basinhopping
            with pytest.raises(ValueError, match="already registered"):
                register_backend("probe-backend", basinhopping)
            register_backend("probe-backend", basinhopping, replace=True)
        finally:
            unregister_backend("probe-backend")
        assert "probe-backend" not in available_backends()

    def test_decorator_form(self):
        try:

            @register_backend("probe-decorated")
            def my_backend(func, x0, **kwargs):
                return basinhopping(func, x0, **kwargs)

            assert get_backend("probe-decorated") is my_backend
        finally:
            unregister_backend("probe-decorated")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            register_backend("probe-bad", "not callable")

    def test_custom_backend_drives_coverme_end_to_end(self):
        calls = {"n": 0}

        def counting_backend(func, x0, **kwargs):
            calls["n"] += 1
            return basinhopping(func, x0, **kwargs)

        try:
            register_backend("probe-counting", counting_backend)
            result = cover(
                sp.single_branch,
                CoverMeConfig(n_start=8, seed=0, backend="probe-counting"),
            )
            assert result.branch_coverage == 1.0
            assert calls["n"] > 0
        finally:
            unregister_backend("probe-counting")


class TestLocalMinimizerRegistry:
    def test_known_names_present(self):
        assert {"powell", "nelder-mead", "compass"} <= set(available_local_minimizers())

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


class TestConfigValidation:
    def test_rejects_bad_step_size_and_start_scale(self):
        with pytest.raises(ValueError, match="step_size"):
            CoverMeConfig(step_size=0.0)
        with pytest.raises(ValueError, match="step_size"):
            CoverMeConfig(step_size=-1.0)
        with pytest.raises(ValueError, match="start_scale"):
            CoverMeConfig(start_scale=0.0)

    def test_rejects_unknown_local_minimizer(self):
        with pytest.raises(ValueError, match="unknown local minimizer"):
            CoverMeConfig(local_minimizer="bfgs")

    def test_scipy_backend_accepts_scipy_method_names(self):
        # The registry only gates the builtin backend's LM names; scipy
        # interprets the name itself, so any scipy.optimize method is fine.
        config = CoverMeConfig(backend="scipy", local_minimizer="L-BFGS-B")
        assert config.local_minimizer == "L-BFGS-B"
        with pytest.raises(ValueError, match="non-empty"):
            CoverMeConfig(backend="scipy", local_minimizer="")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CoverMeConfig(backend="magic")

    def test_accepts_freshly_registered_backend(self):
        try:
            register_backend("probe-config", basinhopping)
            config = CoverMeConfig(backend="probe-config")
            assert config.backend == "probe-config"
        finally:
            unregister_backend("probe-config")

    def test_rejects_engine_knob_misuse(self):
        with pytest.raises(ValueError, match="n_workers"):
            CoverMeConfig(n_workers=0)
        with pytest.raises(ValueError, match="worker mode"):
            CoverMeConfig(worker_mode="fibers")
        with pytest.raises(ValueError, match="start strategy"):
            CoverMeConfig(start_strategy="sobol")
        with pytest.raises(ValueError, match="batch_size"):
            CoverMeConfig(batch_size=0)

    def test_effective_batch_size(self):
        assert CoverMeConfig().effective_batch_size() >= 1
        assert CoverMeConfig(batch_size=3).effective_batch_size() == 3


def test_engine_imports_leave_scipy_optimize_unloaded():
    """scipy.optimize is imported by the scipy backend when it runs, not by
    every process that imports the engine or the experiment pipeline."""
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
