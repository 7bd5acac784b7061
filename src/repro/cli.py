"""The unified ``repro`` command line: run, render, inspect and clean
experiment pipelines.

::

    python -m repro run table2 --profile smoke --store .repro-store --resume
    python -m repro run table2 table5 figure5 --profile smoke --store .repro-store
    python -m repro render table2 --profile smoke --store .repro-store
    python -m repro serve --store .repro-store --port 8642
    python -m repro ls --store .repro-store
    python -m repro clean --store .repro-store

``run`` plans the requested specs as one deduplicated job batch, loads
completed (case, tool) jobs from the store, executes and checkpoints the
rest, and prints each spec's rendered artifact.  ``render`` is the read-only
view: it renders purely from stored records and fails (listing the missing
jobs) rather than executing anything.  ``serve`` exposes the same service
layer as a long-running HTTP daemon over the same store (see
:mod:`repro.service.http` for the endpoints).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from repro.experiments.runner import PROFILES
from repro.store import RunStore

DEFAULT_STORE = ".repro-store"


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.pipeline import available_specs

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures through the persistent "
        "experiment pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_arg(p):
        p.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help=f"run-store directory (default: {DEFAULT_STORE})",
        )

    def add_profile_args(p):
        p.add_argument("--profile", choices=sorted(PROFILES), default="smoke")
        p.add_argument("--seed", type=int, default=None, help="override the profile's seed")
        p.add_argument(
            "--cases", type=int, default=None, metavar="N",
            help="limit the run to the first N suite cases",
        )

    run_p = sub.add_parser("run", help="execute specs (resuming from the store) and render them")
    run_p.add_argument("specs", nargs="+", choices=available_specs(), metavar="SPEC")
    add_profile_args(run_p)
    store_group = run_p.add_mutually_exclusive_group()
    store_group.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"run-store directory (default: {DEFAULT_STORE})",
    )
    store_group.add_argument(
        "--ephemeral", action="store_true",
        help="use an in-memory store (no persistence; the legacy one-shot behavior)",
    )
    run_p.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="load completed jobs from the store (the default; --no-resume == --fresh)",
    )
    run_p.add_argument(
        "--fresh", action="store_true",
        help="ignore stored records and re-execute every job (new records overwrite old)",
    )
    run_p.add_argument("--jobs", type=int, default=1, metavar="N", help="case-level workers")
    run_p.add_argument(
        "--mode", choices=("serial", "thread", "process"), default="thread",
        help="worker dispatch mode for --jobs > 1 (all modes, including "
        "process, checkpoint into persistent stores via the service layer)",
    )
    run_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write each rendered artifact to DIR/<spec>_<profile>.txt",
    )

    render_p = sub.add_parser("render", help="render specs purely from stored records")
    render_p.add_argument("specs", nargs="+", choices=available_specs(), metavar="SPEC")
    add_profile_args(render_p)
    add_store_arg(render_p)
    render_p.add_argument("--out", default=None, metavar="DIR")

    ls_p = sub.add_parser("ls", help="list the records in a run store")
    add_store_arg(ls_p)

    clean_p = sub.add_parser("clean", help="drop every record from a run store")
    add_store_arg(clean_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the coverage service as an HTTP daemon (stdlib asyncio)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks an ephemeral port; the actual one is "
        "printed in the 'listening on' line)",
    )
    serve_store = serve_p.add_mutually_exclusive_group()
    serve_store.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"shared result-cache directory (default: {DEFAULT_STORE})",
    )
    serve_store.add_argument(
        "--ephemeral", action="store_true",
        help="serve over an in-memory store (nothing persists across restarts)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1, metavar="N", help="warm service workers"
    )
    serve_p.add_argument(
        "--worker-mode", choices=("thread", "process"), default="thread",
        help="how workers execute jobs (process = persistent worker processes)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max pending admissions before submissions get HTTP 429",
    )
    serve_p.add_argument(
        "--token", default=None,
        help="bearer token required from clients on every route but /healthz",
    )
    serve_p.add_argument(
        "--rate-limit", default=None, metavar="N[/SECONDS]",
        help="per-client sliding-window rate limit, e.g. 100/10 "
        "(100 requests per 10 s); excess requests get 429 + Retry-After",
    )
    native_p = sub.add_parser(
        "native-cache",
        help="inspect or clean the on-disk native-kernel (.so) cache and "
        "its instrumented entries (units, sources and specialized variants)",
    )
    native_sub = native_p.add_subparsers(dest="native_command", required=True)
    native_sub.add_parser(
        "ls", help="count the instrumented entries; list cached native kernels, newest first"
    )
    native_sub.add_parser(
        "clean", help="remove every cached native kernel, instrumented entry and temp file"
    )

    return parser


def _resolve_profile(args):
    profile = PROFILES[args.profile]
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.cases is not None:
        overrides["max_cases"] = args.cases
    return dataclasses.replace(profile, **overrides) if overrides else profile


def _write_out(out_dir: str, name: str, profile_name: str, text: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{name}_{profile_name}.txt"
    target.write_text(text + "\n")
    return target


def _run_or_render(args, execute: bool) -> int:
    from repro.experiments.pipeline import get_spec, run_specs

    profile = _resolve_profile(args)
    ephemeral = execute and getattr(args, "ephemeral", False)
    if not execute and not Path(args.store).exists():
        # render is read-only: do not materialize a store directory for a
        # path that holds no records (likely a typo).
        print(f"error: store {args.store!r} does not exist; run the specs first", file=sys.stderr)
        return 1
    explicit_resume = getattr(args, "resume", None)
    fresh = getattr(args, "fresh", False)
    if explicit_resume and fresh:
        print("error: --resume and --fresh contradict each other", file=sys.stderr)
        return 2
    resume = not fresh if explicit_resume is None else explicit_resume
    store = RunStore(None if ephemeral else args.store)
    specs = [get_spec(name) for name in args.specs]
    try:
        report = run_specs(
            specs,
            profile,
            store=store,
            resume=resume,
            execute=execute,
            n_workers=getattr(args, "jobs", 1),
            worker_mode=getattr(args, "mode", "thread"),
        )
    finally:
        store.close()
    # Rendering is gated per spec, so complete specs still print even when a
    # sibling spec's jobs are absent from the store (render mode).
    for spec in specs:
        if spec.name not in report.rendered:
            continue
        print(report.rendered[spec.name])
        print()
        if args.out:
            _write_out(args.out, spec.name, profile.name, report.rendered[spec.name])
    if report.missing_jobs:
        print(
            f"error: {len(report.missing_jobs)} jobs missing from store "
            f"{args.store!r} for profile {profile.name!r}:",
            file=sys.stderr,
        )
        for job in report.missing_jobs:
            print(f"  {job}", file=sys.stderr)
        print("run them first: repro run " + " ".join(args.specs), file=sys.stderr)
        return 1
    if any(spec.is_suite for spec in specs):
        location = "ephemeral" if not store.persistent else str(store.root)
        print(f"[store: {location}] {report.stats.describe()}")
    return 0


def _ls(args) -> int:
    if not Path(args.store).exists():
        print(f"store {args.store}: does not exist")
        return 0
    store = RunStore(args.store)
    try:
        if len(store) == 0:
            print(f"store {args.store}: empty")
            return 0
        print(f"store {args.store}: {len(store)} records")
        header = f"{'case':<42s}{'tool':<10s}{'profile':<10s}{'seed':>5s}{'lines':>6s}  {'coverage':>8s}  fingerprint"
        print(header)
        for key, payload in store.records():
            summary = payload.get("summary", {})
            n_branches = summary.get("n_branches", 0)
            covered = summary.get("covered_branches", 0)
            percent = 100.0 * covered / n_branches if n_branches else 100.0
            print(
                f"{key.case_key:<42s}{key.tool:<10s}{key.profile_name or '-':<10s}"
                f"{key.seed if key.seed is not None else '-':>5}"
                f"{'yes' if key.measure_lines else 'no':>6s}  {percent:>7.1f}%  "
                f"{key.fingerprint()[:12]}"
            )
    finally:
        store.close()
    return 0


def _clean(args) -> int:
    # Deletes the store files directly (no RunStore) so `clean` also works
    # on stores written by an older/newer schema version.
    root = Path(args.store)
    if not root.exists():
        print(f"store {args.store}: nothing to clean")
        return 0
    dropped = 0
    runs = root / "runs.jsonl"
    if runs.exists():
        dropped = sum(1 for line in runs.read_text(encoding="utf-8").splitlines() if line.strip())
        runs.unlink()
    meta = root / "meta.json"
    if meta.exists():
        meta.unlink()
    print(f"store {args.store}: dropped {dropped} records")
    return 0


def _parse_rate_limit(spec: Optional[str]) -> Optional[tuple[int, float]]:
    if spec is None:
        return None
    count, _, window = spec.partition("/")
    try:
        return int(count), float(window) if window else 1.0
    except ValueError:
        raise SystemExit(f"error: bad --rate-limit {spec!r} (expected N or N/SECONDS)") from None


def _serve(args) -> int:
    # Imported lazily: the service stack (and its instrumentation imports)
    # should not tax `repro ls`-style invocations.
    from repro.service import CoverageService
    from repro.service.http import serve

    store = None if args.ephemeral else args.store
    # The daemon always uses real workers: inline execution would run jobs
    # on the asyncio thread and freeze every other client mid-job.
    service = CoverageService(
        store=store,
        worker_mode=args.worker_mode,
        n_workers=args.workers,
        queue_limit=args.queue_limit,
        resume=True,
    )
    try:
        serve(
            service,
            host=args.host,
            port=args.port,
            token=args.token,
            rate_limit=_parse_rate_limit(args.rate_limit),
        )
    finally:
        service.close()
    return 0


def _native_cache(args) -> int:
    from repro.instrument.native.cache import (
        disk_cache_max,
        native_cache_dir,
        native_cache_entries,
        native_clean_disk_cache,
    )
    from repro.instrument.unit_cache import (
        clean_instrumented_cache,
        instrumented_cache_dir,
        instrumented_cache_info,
    )

    directory = native_cache_dir()
    if args.native_command == "clean":
        removed = native_clean_disk_cache()
        print(f"native cache {directory}: removed {removed} kernels")
        removed = clean_instrumented_cache()
        print(f"instrumented cache {instrumented_cache_dir()}: removed {removed} entries")
        return 0
    instrumented = instrumented_cache_info()
    print(
        f"instrumented cache {instrumented_cache_dir()}: {instrumented['entries']} "
        f"entries, {instrumented['bytes']} bytes total (bound {instrumented['max_entries']})"
    )
    bound = disk_cache_max()
    entries = native_cache_entries()
    if not entries:
        print(f"native cache {directory}: empty (bound {bound})")
        return 0
    total = sum(entry["size"] for entry in entries)
    print(
        f"native cache {directory}: {len(entries)} kernels, "
        f"{total} bytes total (bound {bound})"
    )
    print(f"{'digest':<18s}{'size':>10s}  source")
    for entry in entries:
        print(
            f"{entry['digest'][:16]:<18s}{entry['size']:>10d}  "
            f"{'yes' if entry['has_source'] else 'no'}"
        )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    from repro.store import SchemaVersionError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_or_render(args, execute=True)
        if args.command == "render":
            return _run_or_render(args, execute=False)
        if args.command == "ls":
            return _ls(args)
        if args.command == "clean":
            return _clean(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "native-cache":
            return _native_cache(args)
    except SchemaVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
