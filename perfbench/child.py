"""One measured process of the benchmark (started by ``run.py``).

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED BENCH_DIR``, where
MODE is one of

* ``pass`` -- set up (import the program and instrument every case), run
  one timed pass of the workload, then check its outputs and report
  per-case rows and the wall-clock instant set-up finished (``run.py``
  subtracts its spawn instant, so interpreter start-up is included);
* ``trace`` -- the same pass with the per-layer tracing installed;
* ``warm`` -- one untimed native pass, waiting for its background kernel
  compiles (the ``suite-native`` warm-state protocol).

The last line of standard output is one JSON object.  Measured processes
pin themselves, and so the pipeline's worker processes they start, to one
CPU, so the speed probe (``workloads.SpeedProbe``) measures the CPU the
work runs on; ``pipeline-2proc``, whose two workers need both CPUs, and the
warm pass, whose background compiles may use the other CPU, are not
pinned.  The process runs under ``if __name__ == "__main__"`` because
process workers (forkserver or spawn) import the main module.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

#: Speed-probe samples taken right after set-up.
SETUP_PROBES = 10


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _metadata(seed: int) -> dict:
    import platform

    import numpy

    from repro.instrument.native.cache import cc_version
    from workloads import N_ITER, N_START, coverme_seeds, native_disk_count

    return {
        "seed": seed,
        "coverme_seeds": coverme_seeds(seed),
        "n_start": N_START,
        "n_iter": N_ITER,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc_version(),
        "kernel_count": native_disk_count(),
    }


def _run_pass(workload: str, seed: int, bench_dir: Path, prepared: dict, probe, tracer=None) -> dict:
    import workloads

    if workload in workloads.PIPELINE_WORKERS:
        store_dir = bench_dir / "stores" / f"{workload}-seed{seed}"
        return workloads.run_pipeline(workload, seed, prepared, store_dir, probe)
    from repro.instrument.native.cache import background_compile_stats

    compiled_before = background_compile_stats()["compiled"]
    disk_before = workloads.native_disk_count()
    snapshots = []
    on_case = None
    if tracer is not None:
        def on_case(row):
            snapshots.append(tracer.totals()["counts"])
    out = workloads.run_suite(workload, seed, prepared, on_case=on_case, probe=probe)
    out["rss_mb"] = workloads.rss_self_mb()
    # Kernels built while the timed pass ran (0 when the on-disk cache was
    # warm); the background worker may still be compiling, so drain first.
    workloads.drain_background_compiles()
    out["native_compiles"] = max(
        background_compile_stats()["compiled"] - compiled_before,
        workloads.native_disk_count() - disk_before,
    )
    if tracer is not None:
        _per_case_native(out["rows"], snapshots)
    return out


def _per_case_native(rows: list, snapshots: list) -> None:
    """Per-case native bail ratios from the traced counter snapshots."""
    previous: dict = {}
    ok_rows = [row for row in rows if "error" not in row]
    for row, counts in zip(ok_rows, snapshots):
        calls = counts.get("native.scalar", 0) - previous.get("native.scalar", 0)
        bails = counts.get("native.scalar_bails", 0) - previous.get("native.scalar_bails", 0)
        row["native_scalar_calls"] = calls
        row["native_bail_ratio"] = bails / calls if calls else 0.0
        previous = counts


def _warm(seed: int) -> dict:
    """One untimed native pass, then wait until its background compiles
    have landed."""
    import workloads

    workloads.run_suite("suite-native", seed, workloads.prepare("suite-native"))
    workloads.drain_background_compiles()
    return {"kernel_count": workloads.native_disk_count()}


def main(argv: list[str]) -> int:
    mode, workload, seed, bench_dir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "warm":
        _emit(_warm(seed))
        return 0
    pipeline = workload.startswith("pipeline-")
    if workload != "pipeline-2proc":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    if mode == "trace":
        # Installed before set-up so the instrumentation of every case is
        # traced too.
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        if pipeline:
            import multiprocessing

            # Forkserver workers import worker_trace before forking, so the
            # wrappers (and the per-job dump) run inside every worker.
            multiprocessing.set_forkserver_preload(["worker_trace"])
    import workloads

    prepared = workloads.prepare(workload)
    t_ready = time.time()
    setup_probe = workloads.SpeedProbe()
    for _ in range(SETUP_PROBES):
        setup_probe.sample()
    probe = workloads.SpeedProbe()
    root_before = tracer.main.root_time if tracer is not None else 0.0
    t_pass = time.perf_counter()
    out = _run_pass(workload, seed, bench_dir, prepared, probe, tracer)
    out["pass_wall_s"] = time.perf_counter() - t_pass
    out["speed_factor"] = out["suite_ref_s"] / out["suite_s"]
    out["setup_speed_factor"] = setup_probe.factor()
    if tracer is not None:
        out["trace"] = tracer.totals()
        # Probes run on the main thread between units of work, outside spans.
        out["trace_unattributed_s"] = (
            out["pass_wall_s"] - (tracer.main.root_time - root_before) - probe.spent
        )
        out["service_events"] = tracer.service_events
    workloads.check_cases(out["rows"])
    out["t_ready"] = t_ready
    out["meta"] = _metadata(seed)
    _emit(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
