"""Concurrent instrumentation must not corrupt CPython's AST conversion.

CPython 3.11 keeps the recursion counter of ``ast.parse`` and
``compile(tree)`` in interpreter-wide state; two threads converting at once
raise ``SystemError: AST constructor recursion depth mismatch``.  Thread
workers of the engine, ``repro run --mode thread`` and ``repro serve``
instrument and specialize in parallel, so every conversion goes through one
lock (:func:`repro.instrument.ast_pass.parse` and ``compile_tree``).

The check runs in a fresh interpreter with an empty cache directory, so the
instrumentation is cold, and forces thread switches inside the conversions:
a tiny switch interval plus a garbage-collector callback that yields.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import gc, sys, threading, time
    from repro.experiments.runner import instrument_case
    from repro.fdlibm.suite import BENCHMARKS

    errors = []

    def worker():
        try:
            for case in BENCHMARKS:
                instrument_case(case).specialize(0)
        except BaseException as exc:
            errors.append(repr(exc))

    gc.set_threshold(50, 5, 5)
    gc.callbacks.append(lambda phase, info: time.sleep(0))
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(len(errors), errors[:1])
    """
)


def test_threads_instrument_the_suite_cold_without_system_error(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NATIVE_CACHE=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(" ", 1)[0] == "0", proc.stdout
