"""Evaluation throughput of the tiered execution runtime.

The paper's bet is that minimizing the representing function is cheap because
each evaluation "is just an execution of the instrumented program"; the
engine issues millions of them.  This bench measures evaluations/sec of
``FOO_R`` under each :class:`~repro.instrument.runtime.ExecutionProfile` on
branch-dense Fdlibm functions and asserts the runtime guarantees:

* the compile-time ``PENALTY_SPECIALIZED`` tier is at least 6x faster than
  the recording ``FULL_TRACE`` profile (geometric mean over the workload);
* the machine-code ``PENALTY_NATIVE`` tier is at least 2x faster than the
  batched kernel (a per-row loop over the specialized variant) at 1024-row
  batches (the gate self-skips when no C compiler is present;
  ``REPRO_FORCE_NATIVE_BENCH=1`` forces it, e.g. in CI where a toolchain is
  guaranteed);
* the threaded ``sp_batch_mt`` entry at 4096-row batches is at least 1.5x
  faster at 4 threads than at 1 (geomean over the workload), with the sweep
  asserted bit-identical across thread counts -- this gate additionally
  self-skips on machines with fewer than 4 cores, where the speedup cannot
  physically materialize (``REPRO_FORCE_NATIVE_BENCH=1`` forces it too);
* all profiles compute bit-identical objective values;
* the epoch protocol builds exactly one variant per program and
  performs zero mask rebinds while the saturation mask is unchanged.

The measured numbers are written to ``BENCH_eval_throughput.json`` (in
``REPRO_BENCH_OUTPUT_DIR`` or the working directory) with one row per
profile per function, so CI can track the perf trajectory across PRs; the
CI job fails if a geomean regresses below its gate.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.native.cache import cc_available, finish_background_compiles
from repro.instrument.runtime import ExecutionProfile, Runtime

#: Branch-dense workload: functions whose conditionals (not their arithmetic)
#: dominate execution time, i.e. where the per-conditional runtime tax is
#: actually measurable.
WORKLOAD_FUNCTIONS = (
    "floor",
    "nextafter",
    "ieee754_fmod",
    "ieee754_pow",
    "ieee754_rem_pio2",
    "expm1",
)
SPECIALIZED_TARGET_SPEEDUP = 6.0
NATIVE_VS_BATCHED_TARGET = 2.0
POINTS = 150
#: Rows per call when timing the batched tiers: large enough that the native
#: kernel's per-call ctypes constant does not dominate.  Values are still
#: asserted bit-identical on the exact scalar point set.
BATCH_POINTS = 1024
#: Rows per call for the multi-threaded sweep: large enough that the
#: per-thread chunks amortize pthread create/join.
MT_BATCH_POINTS = 4096
MT_THREAD_SWEEP = (1, 2, 4)
MT_VS_SINGLE_TARGET = 1.5
REPEATS = 6


def _workload_cases():
    by_name = {case.function.split("(")[0]: case for case in BENCHMARKS}
    return [(name, by_name[name]) for name in WORKLOAD_FUNCTIONS if name in by_name]


def _prepared(case):
    """Instrument one case and partially saturate its tracker.

    A handful of seed executions produce the realistic mid-search state: some
    conditionals fully saturated (penalty fast path keeps r), some half
    saturated (distance computed), some untouched.
    """
    rng = np.random.default_rng(7)
    program = instrument_case(case)
    tracker = SaturationTracker(program)
    for _ in range(6):
        x = tuple(rng.normal(scale=100.0, size=program.arity))
        _, _, record = program.run(x, runtime=Runtime())
        tracker.add_execution(record)
    points = [rng.normal(scale=10.0, size=program.arity) for _ in range(POINTS)]
    return program, tracker, points


def _throughput(program, tracker, points, profile) -> tuple[float, list[float], object]:
    representing = RepresentingFunction(program, tracker, profile=profile)
    values = [representing(x) for x in points]  # warm-up + value capture
    # timeit.repeat practice: the fastest repeat is the best estimate of the
    # runtime's capability; slower repeats measure scheduler noise, not code.
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for x in points:
            representing(x)
        best = min(best, time.perf_counter() - started)
    return len(points) / best, values, representing


def _batched_throughput(program, tracker, points) -> tuple[float, list[float]]:
    """One batched-kernel call over the whole point set, timed like _throughput.

    Returns the rate and the per-row values (for the bit-identity assertion
    against the scalar tiers).
    """
    representing = RepresentingFunction(
        program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
    )
    X = np.ascontiguousarray(points, dtype=np.float64)
    values = representing.evaluate_batch(X)  # bit-identity capture + warm-up
    X_large = np.ascontiguousarray(
        np.random.default_rng(11).normal(scale=10.0, size=(BATCH_POINTS, program.arity))
    )
    representing.evaluate_batch(X_large)
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        representing.evaluate_batch(X_large)
        best = min(best, time.perf_counter() - started)
    # Epoch protocol holds for the batched tier too: the mask never changed,
    # so exactly one kernel was built/looked up across all repeats.
    assert representing.batch_respecializations == 1
    return BATCH_POINTS / best, [float(v) for v in values]


def _native_batched_throughput(program, tracker, points) -> tuple[float, list[float]]:
    """The native kernel over the same 1024-row batch as the batched tier.

    Asserts along the way that the native tier actually served (zero
    degradations to the batched kernel) and followed the epoch protocol
    (one kernel build for the unchanged mask).
    """
    # Pre-warm the kernel through the blocking path: the respecialization
    # assertion below counts swaps, and under the non-blocking default the
    # first call would serve the specialized tier while cc runs.
    program.native_kernel(tracker.saturated_mask)
    representing = RepresentingFunction(
        program, tracker, profile=ExecutionProfile.PENALTY_NATIVE
    )
    X = np.ascontiguousarray(points, dtype=np.float64)
    values = representing.evaluate_batch(X)  # bit-identity capture + warm-up
    X_large = np.ascontiguousarray(
        np.random.default_rng(11).normal(scale=10.0, size=(BATCH_POINTS, program.arity))
    )
    representing.evaluate_batch(X_large)
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        representing.evaluate_batch(X_large)
        best = min(best, time.perf_counter() - started)
    assert representing.native_respecializations == 1
    assert representing.batch_respecializations == 0, (
        "native tier degraded to the batched kernel during the bench"
    )
    return BATCH_POINTS / best, [float(v) for v in values]


def _native_mt_throughput(program, tracker) -> dict[int, float]:
    """Thread-sweep of the ``sp_batch_mt`` entry at a 4096-row batch.

    Times the same compiled kernel at each thread count of
    :data:`MT_THREAD_SWEEP` and asserts every sweep point computes
    bit-identical values -- the fixed-order OR-merge is the mt entry's core
    contract, so a divergence here is a correctness bug, not noise.
    """
    kernel = program.native_kernel(tracker.saturated_mask)
    X = np.ascontiguousarray(
        np.random.default_rng(13).normal(scale=10.0, size=(MT_BATCH_POINTS, program.arity))
    )
    reference = None
    rates: dict[int, float] = {}
    for n_threads in MT_THREAD_SWEEP:
        r = kernel(X, n_threads=n_threads)  # warm-up + identity capture
        bits = r.view(np.uint64).tolist()
        if reference is None:
            reference = bits
        else:
            assert bits == reference, (
                f"n_threads={n_threads} diverges bitwise from single-thread"
            )
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel(X, n_threads=n_threads)
            best = min(best, time.perf_counter() - started)
        rates[n_threads] = MT_BATCH_POINTS / best
    return rates


def _geomean(ratios: list[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def test_eval_throughput_and_profile_equivalence(bench_report_dir):
    cases = _workload_cases()
    assert cases, "workload functions missing from the suite"

    per_function: dict[str, dict[str, float]] = {}
    specialized_ratios = []
    batched_vs_specialized = []
    native_vs_batched = []
    mt_vs_single = []
    force_native = os.environ.get("REPRO_FORCE_NATIVE_BENCH") == "1"
    native_available = cc_available() or force_native
    # The mt gate needs real parallelism to pass: skip it below 4 cores
    # unless forced (CI runners guarantee 4 vCPUs and set the force flag).
    mt_available = native_available and ((os.cpu_count() or 1) >= 4 or force_native)
    # Earlier benches run the native default and may have queued kernel
    # builds; a ``cc`` running beside the timed loops would skew the ratios.
    finish_background_compiles()
    for name, case in cases:
        program, tracker, points = _prepared(case)
        if cc_available():
            program.native_kernel(tracker.saturated_mask)  # built now, not while timing
        rates: dict[str, float] = {}
        values_by_profile = {}
        for profile in ExecutionProfile:
            rates[profile.value], values_by_profile[profile], representing = _throughput(
                program, tracker, points, profile
            )
            if profile is ExecutionProfile.PENALTY_SPECIALIZED:
                # Epoch protocol: the mask never changed during the timing
                # loop, so the program's one variant was built once and the
                # wrapper bound it to the mask once.
                assert representing.respecializations == 1, name
                assert program.specialization_builds == 1, name
        # Bit-identical objective values across all profiles.
        reference = values_by_profile[ExecutionProfile.FULL_TRACE]
        for profile, values in values_by_profile.items():
            assert values == reference, f"{name}: {profile.value} diverges from full-trace"
        full_rate = rates[ExecutionProfile.FULL_TRACE.value]
        specialized_rate = rates[ExecutionProfile.PENALTY_SPECIALIZED.value]
        specialized_ratio = specialized_rate / full_rate
        per_function[name] = {**rates, "specialized_vs_full_trace": specialized_ratio}
        specialized_ratios.append(specialized_ratio)
        batched_rate, batched_values = _batched_throughput(program, tracker, points)
        assert batched_values == reference, f"{name}: batched diverges from full-trace"
        per_function[name]["penalty-batched"] = batched_rate
        per_function[name]["batched_vs_specialized"] = batched_rate / specialized_rate
        batched_vs_specialized.append(batched_rate / specialized_rate)
        if native_available:
            native_rate, native_values = _native_batched_throughput(
                program, tracker, points
            )
            assert native_values == reference, (
                f"{name}: native diverges from full-trace"
            )
            native_ratio = native_rate / batched_rate
            per_function[name]["penalty-native-batch"] = native_rate
            per_function[name]["native_vs_batched"] = native_ratio
            native_vs_batched.append(native_ratio)
            if mt_available:
                mt_rates = _native_mt_throughput(program, tracker)
                mt_ratio = mt_rates[MT_THREAD_SWEEP[-1]] / mt_rates[1]
                per_function[name]["native-mt"] = {
                    str(k): v for k, v in mt_rates.items()
                }
                per_function[name]["mt_vs_single_thread"] = mt_ratio
                mt_vs_single.append(mt_ratio)

    specialized_geomean = _geomean(specialized_ratios)
    batched_geomean = _geomean(batched_vs_specialized)
    native_geomean = _geomean(native_vs_batched) if native_vs_batched else None
    mt_geomean = _geomean(mt_vs_single) if mt_vs_single else None
    report = {
        "workload": [name for name, _ in cases],
        "points_per_function": POINTS * (REPEATS + 1),
        "evals_per_sec": per_function,
        "specialized_vs_full_trace_geomean": specialized_geomean,
        "batched_vs_specialized_geomean": batched_geomean,
        "native_vs_batched_geomean": native_geomean,
        "native_available": native_available,
        "mt_vs_single_thread_geomean": mt_geomean,
        "mt_thread_sweep": list(MT_THREAD_SWEEP),
        "mt_batch_points": MT_BATCH_POINTS,
        "mt_available": mt_available,
        "mt_target_speedup": MT_VS_SINGLE_TARGET,
        "specialized_target_speedup": SPECIALIZED_TARGET_SPEEDUP,
        "native_target_speedup": NATIVE_VS_BATCHED_TARGET,
    }
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (bench_report_dir / "BENCH_eval_throughput.json").write_text(payload)
    out_dir = os.environ.get("REPRO_BENCH_OUTPUT_DIR")
    if out_dir:  # CI sets this to collect the artifact across PRs
        (Path(out_dir) / "BENCH_eval_throughput.json").write_text(payload)
    print(
        f"\nspecialized vs full-trace: geomean {specialized_geomean:.2f}x "
        f"over {len(specialized_ratios)} functions"
    )
    print(
        f"batched vs specialized: geomean {batched_geomean:.2f}x "
        f"over {len(batched_vs_specialized)} functions"
    )
    if native_geomean is not None:
        print(
            f"native vs batched: geomean {native_geomean:.2f}x "
            f"over {len(native_vs_batched)} functions"
        )
    if mt_geomean is not None:
        print(
            f"native mt {MT_THREAD_SWEEP[-1]} threads vs 1: geomean "
            f"{mt_geomean:.2f}x over {len(mt_vs_single)} functions "
            f"at {MT_BATCH_POINTS}-row batches"
        )
    for name, stats in per_function.items():
        batched_note = ""
        if "penalty-batched" in stats:
            batched_note = (
                f"batched {stats['penalty-batched']:>11,.0f}/s "
                f"{stats['batched_vs_specialized']:.2f}x  "
            )
        if "penalty-native-batch" in stats:
            batched_note = (
                f"native {stats['penalty-native-batch']:>12,.0f}/s "
                f"{stats['native_vs_batched']:.2f}x  "
            ) + batched_note
        if "mt_vs_single_thread" in stats:
            batched_note = f"mt {stats['mt_vs_single_thread']:.2f}x  " + batched_note
        print(
            f"  {name:20s} {batched_note}"
            f"native-scalar {stats['penalty-native']:>10,.0f}/s  "
            f"specialized {stats['penalty-specialized']:>10,.0f}/s  "
            f"full-trace {stats['full-trace']:>9,.0f}/s  "
            f"({stats['specialized_vs_full_trace']:.2f}x)"
        )
    assert specialized_geomean >= SPECIALIZED_TARGET_SPEEDUP, (
        f"expected >= {SPECIALIZED_TARGET_SPEEDUP}x specialized vs full-trace, "
        f"measured {specialized_geomean:.2f}x"
    )
    if native_geomean is None:
        # No C compiler on this runner (and the run was not forced): the
        # native tier degraded to the batched kernel by design.  CI sets
        # REPRO_FORCE_NATIVE_BENCH=1 so the gate cannot silently vanish
        # where a toolchain is guaranteed.
        print("native gate skipped: no C compiler (set REPRO_FORCE_NATIVE_BENCH=1 to force)")
    else:
        assert native_geomean >= NATIVE_VS_BATCHED_TARGET, (
            f"expected >= {NATIVE_VS_BATCHED_TARGET}x native vs batched, "
            f"measured {native_geomean:.2f}x"
        )
    if mt_geomean is None:
        # Fewer than 4 cores (or no native tier at all): the threaded entry
        # cannot demonstrate parallel speedup here.  CI runs with 4 vCPUs
        # and REPRO_FORCE_NATIVE_BENCH=1, so the gate cannot silently vanish
        # where the hardware supports it.
        print(
            "mt gate skipped: <4 cores or no C compiler "
            "(set REPRO_FORCE_NATIVE_BENCH=1 to force)"
        )
    else:
        assert mt_geomean >= MT_VS_SINGLE_TARGET, (
            f"expected >= {MT_VS_SINGLE_TARGET}x mt ({MT_THREAD_SWEEP[-1]} threads) "
            f"vs single-thread at {MT_BATCH_POINTS}-row batches, "
            f"measured {mt_geomean:.2f}x"
        )


def test_memoized_start_reduces_executions():
    """The bit-pattern memo cuts true executions without changing the result."""
    from repro.optimize.basinhopping import basinhopping
    from repro.optimize.memo import BitPatternMemo

    name, case = _workload_cases()[0]
    outcomes = {}
    for memoize in (False, True):
        program, tracker, _ = _prepared(case)
        representing = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_SPECIALIZED
        )
        result = basinhopping(
            BitPatternMemo(representing, arity=program.arity) if memoize else representing,
            np.full(program.arity, 2.5),
            n_iter=4,
            rng=np.random.default_rng(3),
            local_options={"max_iterations": 40},
        )
        key = (float(result.fun), tuple(float(v) for v in result.x))
        outcomes[memoize] = (key, representing.evaluations, result.nfev)

    (key_plain, execs_plain, nfev_plain) = outcomes[False]
    (key_memo, execs_memo, nfev_memo) = outcomes[True]
    assert key_memo == key_plain, "memoization changed the search result"
    assert nfev_memo == nfev_plain, "memoization changed the trajectory"
    assert execs_memo < execs_plain, "memo served no repeated evaluations"
    print(
        f"\n{name}: {execs_plain} executions unmemoized -> {execs_memo} memoized "
        f"({100.0 * (1 - execs_memo / execs_plain):.0f}% served from cache)"
    )
