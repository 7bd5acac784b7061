"""End-to-end time-to-coverage benchmark on the 40 Fdlibm suite entries.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-specialized --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one report

Workloads (see ``workloads.py``): ``suite-native``, ``suite-specialized``,
``pipeline-1proc`` and ``pipeline-2proc``.  ``BENCHMARK.json`` gates the
first three; ``pipeline-2proc`` runs the same way on request, but its
timings follow a seed-dependent split of the jobs between its two workers
and spread by about 0.3 of their median across seeds on a 2-vCPU host,
beyond any usable regression bound.  Every measured pass runs in a fresh
child process (``child.py``), so in-process caches are cold exactly as in
a ``repro run`` process; timed passes repeat until ``--seconds`` have been
measured and at least ``MIN_PASSES`` have run, and each timing is the
median over the passes, set-up time included.

``--trace 0`` reports the end-to-end metrics: ``suite_s``, ``case_p50_s``,
``case_p75_s``, ``coverage_pct``, ``setup_s`` and ``peak_rss_mb``
(``fail_rate`` is printed and carried by the result's ``attempted`` and
``failed`` counts).  ``case_p50_s`` and ``case_p75_s`` are quantiles
over every CoverMe run of the pass (each case once per CoverMe seed).
Timings are reported at a reference CPU speed: a speed probe sampled while
each pass runs (``workloads.SpeedProbe``) rescales them, because a shared
host's vCPU speed moves by up to 1.5x within seconds; the measured wall
times and speed factors are printed and kept in the result file.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, including the tracing overhead.

Every run checks its outputs: each case's inputs are replayed on a freshly
instrumented program and must reproduce the reported covered set, each case
must have done its fixed work, and the per-case digests must agree with any
other workload already run on the same seed and program source in this
checkout.  Results, with per-case rows and run metadata, are written to
``.bench_build/perfbench/results/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, native_kernels  # noqa: E402  (stdlib-only import)

ROOT = Path.cwd()
BENCH_DIR = ROOT / ".bench_build" / "perfbench"
NATIVE_CACHE = BENCH_DIR / "native-kernels"

#: Timed passes per run, at least (more while ``--seconds`` have not passed).
MIN_PASSES = 3
CHILD_TIMEOUT_S = 600

E2E_UNITS = {
    "suite_s": "s",
    "case_p50_s": "s",
    "case_p75_s": "s",
    "coverage_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "instrument.calls": "count",
    "instrument.s": "s",
    "runtime.fast_runs": "count",
    "engine.starts": "count",
    "engine.batches": "count",
    "engine.accepted_ratio": "ratio",
    "engine.start_s": "s",
    "engine.reduce_s": "s",
    "engine.prime_calls": "count",
    "engine.prime_s": "s",
    "optimize.local_calls": "count",
    "optimize.line_searches": "count",
    "optimize.local_s": "s",
    "optimize.self_s": "s",
    "memo.lookups": "count",
    "memo.hit_ratio": "ratio",
    "representing.evals": "count",
    "representing.s": "s",
    "representing.harvest_calls": "count",
    "representing.harvest_s": "s",
    "representing.respecializations": "count",
    "specialize.builds": "count",
    "specialize.build_s": "s",
    "specialize.variant_runs": "count",
    "batch.builds": "count",
    "batch.build_s": "s",
    "batch.rows": "count",
    "native.kernel_requests": "count",
    "native.kernel_s": "s",
    "native.emit_s": "s",
    "native.compiles": "count",
    "native.scalar_calls": "count",
    "native.scalar_s": "s",
    "native.bail_ratio": "ratio",
    "native.pending_calls": "count",
    "service.jobs": "count",
    "service.queue_wait_p50_s": "s",
    "service.exec_p50_s": "s",
    "service.cached_ratio": "ratio",
    "service.warm_pass_s": "s",
    "store.puts": "count",
    "store.put_s": "s",
    "store.gets": "count",
    "store.get_s": "s",
    "store.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: The counter that shows whether a layer did any work in the traced pass.
LAYER_WORK = {
    "instrument": ("instrument.calls",),
    "instrument.runtime": ("runtime.fast_runs",),
    "instrument.specialize": ("specialize.builds", "specialize.variant_runs"),
    "instrument.batch": ("batch.rows",),
    "instrument.native": ("native.kernel_requests", "native.scalar_calls"),
    "core.representing": ("representing.evals", "representing.harvest_calls"),
    "optimize": ("optimize.local_calls",),
    "optimize.memo": ("memo.lookups",),
    "engine": ("engine.starts",),
    "engine.prime_chunk": ("engine.prime_calls",),
    "service": ("service.jobs",),
    "store": ("store.puts", "store.gets"),
}


class BenchError(RuntimeError):
    """A child process failed; the run ends without a result line."""


# -- child processes ------------------------------------------------------------


def child_env(trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    # Kernels from every seed stay on disk: no FIFO pruning between runs.
    env["REPRO_NATIVE_CACHE_MAX"] = "1000000"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill a child's process group, reap the child, and wait until the
    rest of its group (e.g. forkserver workers) has gone too."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    finally:
        proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(args: list, env: dict, timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, float]:
    """Run ``child.py`` with ``args``; return (its JSON result, spawn instant).

    Its output goes to files (no pipe can fill up); the result is the last
    line of its standard output.
    """
    logs = BENCH_DIR / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    name = "-".join(str(a) for a in args if not isinstance(a, Path))
    out_path, err_path = logs / f"{name}.out", logs / f"{name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t_spawn = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *[str(a) for a in args]],
            stdout=out, stderr=err, env=env, cwd=str(ROOT), start_new_session=True,
        )
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} timed out after {timeout:.0f}s") from None
    finally:
        _reap_group(proc)
    lines = out_path.read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err_path.read_text().strip().splitlines()[-15:])
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), t_spawn


def ensure_native_warm(seed: int, source: str) -> dict:
    """The warm-state protocol for ``suite-native``, untimed and out of process.

    One native pass over the suite in one process, waiting until its
    background compiles have landed.  (One process only: the program's
    cache prune races with a concurrent build in another process and can
    kill the background compile thread.)  Seeded trajectories are the same
    whichever tier serves an evaluation, so that pass requests every kernel
    the timed pass will; the timed pass then proves it by compiling nothing
    (``native_compiles == 0``, checked as part of correctness).  A seed
    already warmed in this checkout for the same program ``source`` digest
    is skipped while every kernel recorded for it is still on disk; a
    changed program may request other kernels, so it warms again.
    """
    stamp = BENCH_DIR / "native-warm" / f"{source}-seed{seed}.json"
    if stamp.exists():
        kernels = json.loads(stamp.read_text())["kernels"]
        if all((NATIVE_CACHE / f"{digest}.so").exists() for digest in kernels):
            return {"skipped": True, "kernel_counts": [len(kernels)]}
    before = len(native_kernels(NATIVE_CACHE))
    run_child(["warm", "suite-native", seed, BENCH_DIR], child_env())
    kernels = native_kernels(NATIVE_CACHE)
    stamp.parent.mkdir(parents=True, exist_ok=True)
    stamp.write_text(json.dumps({"kernels": kernels}))
    return {"skipped": False, "kernel_counts": [before, len(kernels)]}


# -- checks and metadata ------------------------------------------------------------


def source_revision() -> dict:
    """Git revision when available, plus a digest of the program's and the
    benchmark's sources (the key of every state kept across runs)."""
    revision = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    hasher = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        hasher.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_revision": revision, "source_sha256": hasher.hexdigest()[:16]}


def check_digests(workload: str, seed: int, source: str, rows: list) -> list[str]:
    """Compare per-case digests with other workloads run on this seed here,
    on the same program ``source`` digest.

    Returns the keys of mismatching cases and records this workload's
    digests for later runs.  ``digest`` is compared across all workloads,
    ``full_digest`` (which adds the infeasible set) across the suite ones.
    """
    path = BENCH_DIR / "digests" / f"{source}-seed{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    mine = {row["case"]: {k: row.get(k) for k in ("digest", "full_digest")} for row in rows}
    mismatched = set()
    for other, digests in known.items():
        if other == workload:
            continue
        for case, theirs in digests.items():
            ours = mine.get(case, {})
            for key in ("digest", "full_digest"):
                if ours.get(key) and theirs.get(key) and ours[key] != theirs[key]:
                    mismatched.add(case)
    if all(entry["digest"] for entry in mine.values()):
        known[workload] = mine
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return sorted(mismatched)


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def case_row(row: dict) -> dict:
    keep = ("case", "wall_s", "coverage_pct", "evaluations", "native_bail_ratio",
            "submit_to_done_s", "queue_wait_s", "digest", "ok", "error")
    return {k: row[k] for k in keep if k in row}


# -- one workload ------------------------------------------------------------------


def _digests(out: dict) -> list:
    return [row.get("digest") for row in out["rows"]]


def _pass_failures(out: dict, workload: str) -> list[str]:
    problems = [f"{row['case']}: {row.get('error', 'output check failed')}"
                for row in out["rows"] if not row.get("ok")]
    if workload == "suite-native" and out.get("native_compiles", 0):
        problems.append(f"not warm: {out['native_compiles']} kernels compiled during the timed pass")
    return problems


def run_untraced(workload: str, seed: int, seconds: int, source: str) -> dict:
    warm = ensure_native_warm(seed, source) if workload == "suite-native" else None
    setups = []
    passes = []
    t_measure = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t_measure < seconds:
        out, t_spawn = run_child(["pass", workload, seed, BENCH_DIR], child_env())
        setups.append((out["t_ready"] - t_spawn) * out["setup_speed_factor"])
        passes.append(out)
    rows = passes[0]["rows"]
    coverage = statistics.fmean(row.get("coverage_pct", 0.0) for row in rows)
    # Timings at the reference speed (see ``workloads.SpeedProbe``); the
    # per-case quantiles are over every CoverMe run (case and seed).
    quartiles = [
        _quartiles([run["wall_ref_s"] for row in out["rows"] for run in row.get("runs", [])
                    if run.get("wall_ref_s") is not None])
        for out in passes
    ]
    metrics = {
        "suite_s": statistics.median(out["suite_ref_s"] for out in passes),
        "case_p50_s": statistics.median(q[1] for q in quartiles),
        "case_p75_s": statistics.median(q[2] for q in quartiles),
        "coverage_pct": coverage,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(out["rss_mb"] for out in passes),
    }
    problems = [p for out in passes for p in _pass_failures(out, workload)]
    if any(_digests(out) != _digests(passes[0]) for out in passes):
        problems.append("passes of one seed disagree")
    mismatched = check_digests(workload, seed, source, rows)
    problems += [f"{case}: digest differs from another workload on seed {seed}" for case in mismatched]
    attempted = len(rows) * len(passes)
    failed = sum(1 for out in passes for row in out["rows"] if not row.get("ok"))
    failed += len(mismatched)
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "meta": passes[0]["meta"],
        "details": {
            "passes": len(passes),
            "raw_suite_s": [out["suite_s"] for out in passes],
            "speed_factors": [out["speed_factor"] for out in passes],
            "setup_s_samples": setups,
            "native_warm": warm,
            "native_compiles": [out.get("native_compiles", 0) for out in passes],
            "warm_pass_s": [out.get("warm_pass_s") for out in passes],
            "makespan_s": [out.get("makespan_s") for out in passes],
            "cases": [case_row(row) for row in rows],
        },
    }


def _collect_worker_traces(trace_dir: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob("worker-*.json"))]


def layer_metrics(traced: dict, untraced_suite_s: float) -> dict:
    """Per-layer metrics from the traced pass's span and counter tables."""
    from tracing import merge_totals

    totals = merge_totals([traced["trace"], *traced.get("worker_traces", [])])
    c, t, st = totals["counts"], totals["times"], totals["self_times"]

    def ratio(num, den):
        return num / den if den else 0.0

    jobs = [e for e in traced.get("service_events", []) if not e["cached"]]
    events = traced.get("service_events", [])
    queue_waits = [e["events"]["running"] - e["events"]["queued"] for e in jobs if "running" in e["events"]]
    execs = [e["events"]["done"] - e["events"]["running"] for e in jobs if "running" in e["events"]]
    native_calls = c.get("native.scalar", 0) + c.get("native.batch_rows", 0)
    native_bails = c.get("native.scalar_bails", 0) + c.get("native.batch_bails", 0)
    return {
        "instrument.calls": c.get("instrument", 0),
        "instrument.s": t.get("instrument", 0.0),
        "runtime.fast_runs": c.get("runtime.fast_runs", 0),
        "engine.starts": c.get("engine.starts", 0),
        "engine.batches": c.get("engine.run_batch", 0),
        "engine.accepted_ratio": ratio(c.get("engine.accepted", 0), c.get("engine.starts", 0)),
        "engine.start_s": t.get("engine.start", 0.0),
        "engine.reduce_s": t.get("engine.run", 0.0) - t.get("engine.run_batch", 0.0),
        "engine.prime_calls": c.get("engine.primed_chunks", 0),
        "engine.prime_s": t.get("engine.prime", 0.0),
        "optimize.local_calls": c.get("optimize.local", 0),
        "optimize.line_searches": c.get("optimize.line_searches", 0),
        "optimize.local_s": t.get("optimize.local", 0.0),
        "optimize.self_s": st.get("optimize.local", 0.0),
        "memo.lookups": c.get("memo.lookup", 0),
        "memo.hit_ratio": 1.0 - ratio(c.get("memo.misses", 0), c.get("memo.lookup", 0))
        if c.get("memo.lookup", 0) else 0.0,
        "representing.evals": c.get("representing.call", 0),
        "representing.s": t.get("representing.call", 0.0),
        "representing.harvest_calls": c.get("representing.harvest", 0),
        "representing.harvest_s": t.get("representing.harvest", 0.0),
        "representing.respecializations": c.get("representing.respecializations", 0),
        "specialize.builds": c.get("specialize.builds", 0),
        "specialize.build_s": t.get("specialize.build_s", 0.0),
        "specialize.variant_runs": c.get("specialize.variant_runs", 0),
        "batch.builds": c.get("batch.build", 0),
        "batch.build_s": t.get("batch.build", 0.0),
        "batch.rows": c.get("batch.rows", 0),
        "native.kernel_requests": c.get("native.build", 0),
        "native.kernel_s": t.get("native.build", 0.0),
        "native.emit_s": t.get("native.emit", 0.0) + t.get("native.render", 0.0),
        "native.compiles": c.get("native.compiles", 0),
        "native.scalar_calls": c.get("native.scalar", 0),
        "native.scalar_s": t.get("native.scalar", 0.0),
        "native.bail_ratio": ratio(native_bails, native_calls),
        "native.pending_calls": c.get("native.pending_calls", 0),
        "service.jobs": c.get("service.submit", 0),
        "service.queue_wait_p50_s": statistics.median(queue_waits) if queue_waits else 0.0,
        "service.exec_p50_s": statistics.median(execs) if execs else 0.0,
        "service.cached_ratio": ratio(sum(1 for e in events if e["cached"]), len(events)),
        "service.warm_pass_s": traced.get("warm_pass_s") or 0.0,
        "store.puts": c.get("store.put", 0),
        "store.put_s": t.get("store.put", 0.0),
        "store.gets": c.get("store.get", 0),
        "store.get_s": t.get("store.get", 0.0),
        "store.bytes": traced.get("store_bytes", 0),
        "trace.overhead_ratio": ratio(traced["suite_ref_s"], untraced_suite_s),
        "trace.unattributed_s": traced["trace_unattributed_s"],
    }


def run_traced(workload: str, seed: int, source: str) -> dict:
    warm = ensure_native_warm(seed, source) if workload == "suite-native" else None
    untraced, _ = run_child(["pass", workload, seed, BENCH_DIR], child_env())
    trace_dir = BENCH_DIR / "trace-workers"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*"):
        stale.unlink()
    traced, _ = run_child(["trace", workload, seed, BENCH_DIR], child_env(trace_dir))
    traced["worker_traces"] = _collect_worker_traces(trace_dir)
    metrics = layer_metrics(traced, untraced["suite_ref_s"])
    idle = [layer for layer, keys in LAYER_WORK.items() if not any(metrics[k] for k in keys)]
    problems = [p for out in (untraced, traced) for p in _pass_failures(out, workload)]
    if _digests(traced) != _digests(untraced):
        problems.append("tracing changed the results")
    if workload.startswith("pipeline-") and not traced["worker_traces"]:
        problems.append("no worker traces were collected")
    mismatched = check_digests(workload, seed, source, untraced["rows"])
    problems += [f"{case}: digest differs from another workload on seed {seed}" for case in mismatched]
    attempted = len(untraced["rows"]) + len(traced["rows"])
    failed = sum(1 for out in (untraced, traced) for row in out["rows"] if not row.get("ok"))
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": attempted,
        "failed": min(failed + len(mismatched), attempted),
        "problems": problems,
        "meta": traced["meta"],
        "details": {
            "idle_layers": idle,
            "raw_untraced_suite_s": untraced["suite_s"],
            "raw_traced_suite_s": traced["suite_s"],
            "speed_factors": [untraced["speed_factor"], traced["speed_factor"]],
            "native_warm": warm,
            "workers_traced": len(traced["worker_traces"]),
            "cases": [case_row(row) for row in traced["rows"]],
        },
    }


# -- reporting ------------------------------------------------------------------


def write_result(result: dict, seed: int, trace: int, revision: dict) -> Path:
    path = BENCH_DIR / "results" / f"{result['workload']}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    body = dict(result)
    body["meta"] = {**result["meta"], **revision}
    path.write_text(json.dumps(body, indent=1, sort_keys=True))
    return path


def print_report(result: dict, units: dict, path: Path) -> None:
    workload = result["workload"]
    meta = result["meta"]
    print(f"== {workload} (seed {meta['seed']}, nproc {meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, cc {meta['cc']!r}, kernels on disk {meta['kernel_count']})")
    for name, value in result["metrics"].items():
        print(f"{workload:<18s} {name:<32s} {value:>14.6g} {units[name]}")
    fail_rate = result["failed"] / result["attempted"]
    print(f"{workload:<18s} {'fail_rate':<32s} {fail_rate:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} cases)")
    raw = result["details"].get("raw_suite_s")
    if raw:
        print(f"{workload:<18s} timings above are at the reference speed; measured suite_s "
              f"{statistics.median(raw):.3f} s at speed factor "
              f"{statistics.median(result['details']['speed_factors']):.3f}")
    makespans = [m for m in result["details"].get("makespan_s", []) if m is not None]
    if makespans:
        print(f"{workload:<18s} measured cold-pass makespan {statistics.median(makespans):.3f} s")
    for layer in result["details"].get("idle_layers", []):
        print(f"{workload:<18s} layer {layer}: no work on this workload")
    for problem in result["problems"]:
        print(f"{workload:<18s} PROBLEM {problem}")
    print(f"{workload:<18s} per-case rows and metadata: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    revision = source_revision()
    source = revision["source_sha256"]
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in selected:
            if args.trace:
                result = run_traced(workload, args.seed, source)
            else:
                result = run_untraced(workload, args.seed, args.seconds, source)
            path = write_result(result, args.seed, args.trace, revision)
            print_report(result, units, path)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": value, "unit": units[name]}
                   for r in results for name, value in r["metrics"].items()}
    line = {
        "correct": all(not r["problems"] and r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
