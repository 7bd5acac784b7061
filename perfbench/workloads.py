"""The benchmark's workloads over the 40 Fdlibm suite entries.

Every workload runs all of :data:`repro.fdlibm.suite.BENCHMARKS` in Table 2
order, each case once per CoverMe seed of :func:`coverme_seeds` (``SUB_SEEDS``
seeds derived from the benchmark seed), with ``n_start=N_START``,
``n_iter=5``, Powell as the local minimizer and no wall-clock budget
anywhere, so the work done is a pure function of the benchmark seed.  A
case's time, evaluations and coverage are those of its ``SUB_SEEDS`` runs
together: the work of one short run varies a lot with its seed, the work of
several much less.  The program is driven only through its public entry
points:

* ``suite-specialized`` / ``suite-native`` -- a serial
  ``CoverMe(instrument_case(case), CoverMeConfig(...)).run()`` per case under
  ``eval_profile="penalty-specialized"`` / ``"penalty-native"``;
* ``pipeline-1proc`` / ``pipeline-2proc`` -- the ``repro run --jobs N
  --mode process`` front door with one or two process workers:
  ``run_specs`` over a CoverMe-only suite spec with the shipped ``default``
  profile minus its time budget, into a fresh ``RunStore``, then the same
  plan again against the now-warm store.  With one worker ``suite_s`` is
  the cold pass's wall time; with two it is the workers' mean busy time
  (see :func:`run_pipeline`).  Per-case times are job executions; the
  makespan and submit-to-done times are reported beside them.

Each pass returns per-case rows; :func:`check_cases` then replays every
case's inputs through :class:`repro.coverage.branch.BranchCoverage` on a
freshly instrumented program (the independent output check) and computes
the per-case digests that must agree across workloads for one seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path

N_START = 10
N_ITER = 5
#: CoverMe seeds per benchmark seed (each case runs once per seed).
SUB_SEEDS = 6

WORKLOADS = ("suite-native", "suite-specialized", "pipeline-1proc", "pipeline-2proc")
SUITE_PROFILES = {"suite-specialized": "penalty-specialized", "suite-native": "penalty-native"}
#: Process workers of each pipeline workload.
PIPELINE_WORKERS = {"pipeline-1proc": 1, "pipeline-2proc": 2}


# -- set-up -----------------------------------------------------------------


def prepare(workload: str) -> dict:
    """Import the program and instrument every case (the set-up phase).

    For the pipeline the per-process instrumentation cache that key
    building uses is filled instead; its process workers start with the
    first job.
    """
    from repro.fdlibm.suite import BENCHMARKS

    cases = list(BENCHMARKS)
    if workload in PIPELINE_WORKERS:
        from repro.experiments.pipeline import instrument_for_lookup

        programs = [instrument_for_lookup(case) for case in cases]
    else:
        from repro.core.coverme import CoverMe  # noqa: F401  (import cost is set-up)
        from repro.experiments.runner import instrument_case

        programs = [instrument_case(case) for case in cases]
    return {"cases": cases, "programs": programs}


def coverme_seeds(seed: int) -> list[int]:
    """The CoverMe seeds of one benchmark seed (disjoint across seeds)."""
    return [seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]


# -- suite workloads ----------------------------------------------------------


def suite_config(seed: int, eval_profile: str):
    from repro.core.config import CoverMeConfig

    return CoverMeConfig(
        n_start=N_START,
        n_iter=N_ITER,
        local_minimizer="powell",
        seed=seed,
        time_budget=None,
        max_evaluations=None,
        eval_profile=eval_profile,
        native_threads=1,
    )


def run_suite(workload: str, seed: int, prepared: dict, on_case=None, probe=None) -> dict:
    """One timed serial pass over the suite; returns rows plus ``suite_s``
    (the pass's wall time minus the speed probes run between cases).

    With a ``probe``, a sample is taken before every case and after the
    last, and each case's and run's time is also given at the reference
    speed (``wall_ref_s``), scaled by the two samples around the case;
    ``suite_ref_s`` is the sum over cases.
    """
    from repro.core.coverme import CoverMe

    configs = [suite_config(s, SUITE_PROFILES[workload]) for s in coverme_seeds(seed)]
    rows = []
    t_pass = time.perf_counter()
    for case, program in zip(prepared["cases"], prepared["programs"]):
        if probe is not None:
            probe.sample()
        row = {"case": case.key, "n_branches": program.n_branches, "runs": []}
        t0 = time.perf_counter()
        try:
            for config in configs:
                t_run = time.perf_counter()
                coverme = CoverMe(program, config)
                result = coverme.run()
                row["runs"].append({
                    "seed": config.seed,
                    "wall_s": time.perf_counter() - t_run,
                    "inputs": [list(x) for x in result.inputs],
                    "covered": sorted([b.conditional, b.outcome] for b in result.covered),
                    "infeasible": sorted([b.conditional, b.outcome] for b in result.infeasible),
                    "evaluations": result.evaluations,
                    "starts_used": result.n_starts_used,
                    "fixed_work": (
                        config.time_budget is None
                        and config.max_evaluations is None
                        and (result.n_starts_used == N_START or coverme.tracker.all_saturated())
                    ),
                })
        except Exception as exc:  # a failed case is counted, not fatal
            row.update(wall_s=time.perf_counter() - t0, error=repr(exc))
            rows.append(row)
            continue
        row["wall_s"] = time.perf_counter() - t0
        row["evaluations"] = sum(run["evaluations"] for run in row["runs"])
        rows.append(row)
        if on_case is not None:
            on_case(row)
    out = {"rows": rows}
    if probe is not None:
        probe.sample()
        for row, before, after in zip(rows, probe.samples, probe.samples[1:]):
            factor = probe.factor([before, after])
            row["wall_ref_s"] = row["wall_s"] * factor
            for run in row["runs"]:
                run["wall_ref_s"] = run["wall_s"] * factor
        out["suite_ref_s"] = sum(row["wall_ref_s"] for row in rows)
    out["suite_s"] = time.perf_counter() - t_pass - (probe.spent if probe is not None else 0.0)
    return out


# -- pipeline workload --------------------------------------------------------


def pipeline_profiles(seed: int) -> list:
    from repro.experiments.runner import PROFILES

    return [
        dataclasses.replace(
            PROFILES["default"], n_start=N_START, n_iter=N_ITER, coverme_time_budget=None, seed=s
        )
        for s in coverme_seeds(seed)
    ]


def _span(events: dict, first: str, last: str):
    return events[last] - events[first] if first in events and last in events else None


def _outcome_run(seed: int, outcome) -> dict:
    events = {}
    for event in outcome.events:
        events.setdefault(event["event"], event["t"])
    summary = outcome.summary
    # wall_s is the job's execution (running -> done), the counterpart of a
    # suite run's time; with all 40 jobs of a seed admitted up front,
    # submit -> done is mostly queueing behind earlier jobs.
    return {
        "seed": seed,
        "n_branches": summary.n_branches,
        "wall_s": _span(events, "running", "done"),
        "submit_to_done_s": _span(events, "queued" if "queued" in events else "cache-hit", "done"),
        "queue_wait_s": _span(events, "queued", "running"),
        "cached": outcome.cached,
        "inputs": [list(x) for x in summary.inputs],
        "covered_count": summary.covered_branches,
        "evaluations": outcome.evaluations,
        "budget_fingerprint": outcome.key.budget_fingerprint,
    }


def _sum_or_none(values):
    return None if any(v is None for v in values) else sum(values)


def _pipeline_pass(profiles, n_workers: int, store_dir: Path, prepared: dict, probe=None) -> tuple:
    """``run_specs`` once per profile (CoverMe seed) through one service;
    returns (wall seconds, per-case rows, extras).

    With a ``probe``, a sample is taken before every ``run_specs`` call and
    after the last, while the workers are idle; ``extras["factors"]`` holds
    each call's speed factor, from the two samples around it.
    """
    from repro.experiments.pipeline import ExperimentSpec, run_specs
    from repro.service import CoverageService
    from repro.store import RunStore

    outcomes: list[dict] = []  # one {case key: outcome} per profile

    class RecordingService(CoverageService):
        """The pipeline's own service, keeping each resolved job outcome."""

        def wait(self, job, timeout=None):
            outcome = super().wait(job, timeout=timeout)
            outcomes[-1][outcome.key.case_key] = outcome
            return outcome

    spec = ExperimentSpec(name="perfbench-coverme", title="CoverMe on the suite", tools=("CoverMe",))
    store = RunStore(store_dir)
    t0 = time.perf_counter()
    service = RecordingService(
        store=store, worker_mode="process", n_workers=n_workers, resume=True
    )
    try:
        for profile in profiles:
            outcomes.append({})
            if probe is not None:
                probe.sample()
            run_specs(
                [spec], profile, store=store, n_workers=n_workers,
                worker_mode="process", service=service,
            )
        if probe is not None:
            probe.sample()
        wall = time.perf_counter() - t0 - (probe.spent if probe is not None else 0.0)
        extra = {"rss_mb": rss_tree_mb()}
        if probe is not None:
            extra["factors"] = [probe.factor([a, b]) for a, b in zip(probe.samples, probe.samples[1:])]
    finally:
        service.close(close_store=False)
        store.close()
    rows = []
    for case in prepared["cases"]:
        runs = [_outcome_run(p.seed, by_case[case.key]) for p, by_case in zip(profiles, outcomes)]
        rows.append({
            "case": case.key,
            "n_branches": runs[0]["n_branches"],
            "runs": runs,
            "wall_s": _sum_or_none([run["wall_s"] for run in runs]),
            "submit_to_done_s": _sum_or_none([run["submit_to_done_s"] for run in runs]),
            "queue_wait_s": _sum_or_none([run["queue_wait_s"] for run in runs]),
            "evaluations": sum(run["evaluations"] for run in runs),
        })
    return wall, rows, extra


def run_pipeline(workload: str, seed: int, prepared: dict, store_dir: Path, probe=None) -> dict:
    """Cold pass into a fresh store, then the same plan against it (warm)."""
    from repro.baselines.harness import Budget

    if store_dir.exists():
        shutil.rmtree(store_dir)
    profiles = pipeline_profiles(seed)
    n_workers = PIPELINE_WORKERS[workload]
    cold_s, rows, cold_extra = _pipeline_pass(profiles, n_workers, store_dir, prepared, probe)
    warm_s, warm_rows, _ = _pipeline_pass(profiles, n_workers, store_dir, prepared)
    no_budget = Budget().fingerprint()
    for row, warm_row in zip(rows, warm_rows):
        for profile, run, warm in zip(profiles, row["runs"], warm_row["runs"]):
            run["fixed_work"] = (
                profile.coverme_time_budget is None and run["budget_fingerprint"] == no_budget
            )
            run["warm_cached"] = warm["cached"]
            run["warm_same"] = (
                _hex_inputs(warm["inputs"]) == _hex_inputs(run["inputs"])
                and warm["evaluations"] == run["evaluations"]
            )
    # With one worker suite_s is the cold pass's wall time: admission,
    # payload transport and store writes are all on its path.  With two it
    # is the workers' mean busy time, and the makespan is kept as its own
    # field: `repro run` routes jobs to the workers by fingerprint hash (one
    # shard each), so the makespan follows that seed-dependent split -- it
    # swung from 18 s to 28 s across seeds whose total work differed by a
    # few percent -- rather than the work done.
    busy_s = sum(row["wall_s"] for row in rows if row["wall_s"] is not None)
    suite_s = cold_s if n_workers == 1 else busy_s / n_workers
    suite_ref_s = None
    if probe is not None:
        # Each job is scaled by the factor of its run_specs call; the pass
        # by the jobs' time-weighted factor.
        factors = cold_extra["factors"]
        for row in rows:
            for run, factor in zip(row["runs"], factors):
                run["wall_ref_s"] = run["wall_s"] * factor
            row["wall_ref_s"] = sum(run["wall_ref_s"] for run in row["runs"])
        suite_ref_s = suite_s * sum(row["wall_ref_s"] for row in rows) / busy_s
    return {
        "suite_s": suite_s,
        "suite_ref_s": suite_ref_s,
        "makespan_s": cold_s,
        "warm_pass_s": warm_s,
        "rows": rows,
        "rss_mb": cold_extra["rss_mb"],
        "store_bytes": (store_dir / "runs.jsonl").stat().st_size,
    }


# -- checks -------------------------------------------------------------------


def _hex_inputs(inputs) -> list:
    return [[float(v).hex() for v in x] for x in inputs]


def _check_run(program, run: dict) -> bool:
    """Replay one run's inputs; True when the run passes every check."""
    from repro.coverage.branch import BranchCoverage

    replay = BranchCoverage(program)
    replay.run_all(run["inputs"])
    replayed = sorted([b.conditional, b.outcome] for b in replay.covered & program.all_branches)
    if "covered" in run:
        matches = replayed == run["covered"]
    else:
        matches = len(replayed) == run["covered_count"]
    run["replayed"] = replayed
    run["replay_matches"] = matches
    return bool(matches and run.get("fixed_work", False) and run.get("warm_same", True)
                and run.get("warm_cached", True))


def check_cases(rows: list) -> None:
    """Replay each run's inputs on a fresh program and fill in the digests.

    Sets, per case, ``ok`` (for every run: the replayed covered set equals
    the reported one, fixed work was done; and no exception),
    ``coverage_pct`` (the mean over its runs), ``digest`` (every run's
    inputs, covered set and evaluations: comparable across all workloads)
    and, where the workload reports it, ``full_digest`` (the same plus the
    infeasible sets: comparable across the suite workloads; the pipeline's
    stored record does not carry the infeasible set).
    """
    from repro.experiments.runner import instrument_case
    from repro.fdlibm.suite import case_by_key

    for row in rows:
        if "error" in row:
            row["ok"] = False
            continue
        try:
            program = instrument_case(case_by_key(row["case"]))
            row["ok"] = all([_check_run(program, run) for run in row["runs"]])
        except Exception as exc:
            row["ok"] = False
            row["error"] = f"replay failed: {exc!r}"
            continue
        row["coverage_pct"] = statistics.fmean(
            100.0 * len(run["replayed"]) / row["n_branches"] for run in row["runs"]
        )
        cores = [
            {"seed": run["seed"], "inputs": _hex_inputs(run["inputs"]),
             "covered": run["replayed"], "evaluations": run["evaluations"]}
            for run in row["runs"]
        ]
        row["digest"] = _sha({"case": row["case"], "runs": cores})
        if all("infeasible" in run for run in row["runs"]):
            full = [{**core, "infeasible": run["infeasible"]}
                    for core, run in zip(cores, row["runs"])]
            row["full_digest"] = _sha({"case": row["case"], "runs": full})


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- machine speed --------------------------------------------------------------


def _probe_work() -> float:
    """A fixed slice of interpreter work (float arithmetic, dict stores,
    small numpy operations: the mix the optimizer loop runs on); returns
    its duration."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(12000):
        total += (i * 0.5) % 7.0
        table[i & 63] = total
    vector = np.arange(4.0)
    for _ in range(200):
        vector = vector + 1.0
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the CPU speed a pass actually ran at.

    On a shared host a vCPU's speed moves by up to 1.5x within seconds
    (the same pass measured 23 s and 40 s half an hour apart), so timings
    are also reported at a reference speed: multiplied by ``PROBE_REF_S /
    median(samples)`` over the samples taken around them.  Measured
    processes are pinned to one CPU (``child.py``), so the probe measures
    the CPU the work runs on.  Samples are taken between units of work,
    when nothing contends with them: between the suite's cases, and
    between the pipeline's ``run_specs`` calls.  Each sample is the
    fastest of ``REPEATS`` probe runs, which filters out interrupts.
    """

    #: A typical ``_probe_work`` duration on the reference host (it only
    #: fixes the unit of the rescaled timings): a 2-vCPU Intel Xeon VM,
    #: Python 3.11.7, numpy 2.4.6.
    PROBE_REF_S = 0.003
    REPEATS = 3

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds spent probing

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(min(_probe_work() for _ in range(self.REPEATS)))
        self.spent += time.perf_counter() - t0

    def factor(self, samples=None) -> float:
        return self.PROBE_REF_S / statistics.median(self.samples if samples is None else samples)


# -- process measurements -------------------------------------------------------


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def _children_of() -> dict:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def rss_tree_mb() -> float:
    """Peak resident set (VmHWM) of this process plus all its descendants."""
    children = _children_of()
    total = 0
    todo = [os.getpid()]
    while todo:
        pid = todo.pop()
        total += _vm_hwm_kb(pid)
        todo.extend(children.get(pid, []))
    return total / 1024.0


def rss_self_mb() -> float:
    return _vm_hwm_kb(os.getpid()) / 1024.0


def native_kernels(directory: Path) -> list[str]:
    """Digests of the compiled kernels in an on-disk cache directory
    (hidden ``.<digest>.*.so`` names are builds still in flight)."""
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.so") if not p.name.startswith("."))


def native_disk_count() -> int:
    from repro.instrument.native.cache import native_cache_dir

    return len(native_kernels(native_cache_dir()))


def drain_background_compiles(stall_s: float = 60.0) -> None:
    """Wait until no background kernel build is pending; raise if builds
    stop landing for ``stall_s`` (the compile thread has died)."""
    from repro.instrument.native.cache import background_compile_stats

    def landed(stats):
        return stats["compiled"] + stats["failed"]

    stats = background_compile_stats()
    last, last_change = landed(stats), time.monotonic()
    while stats["pending"]:
        if landed(stats) != last:
            last, last_change = landed(stats), time.monotonic()
        elif time.monotonic() - last_change > stall_s:
            raise TimeoutError(f"background kernel compiles stalled with {stats['pending']} pending")
        time.sleep(0.02)
        stats = background_compile_stats()
