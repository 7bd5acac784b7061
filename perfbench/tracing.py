"""Per-layer tracing for the benchmark, installed from outside the program.

:func:`install` wraps the public functions and methods of each layer of the
``repro`` package (instrument, runtime, specialize, batch, native,
representing, optimize, memo, engine, service, store) with counting and
timing wrappers.  Nothing inside ``src/`` changes: the wrappers replace
module attributes, class attributes and the ``powell`` local-minimizer
registry entry at run time, so the traced run executes exactly the
untraced code plus the wrappers.

Spans keep a per-thread stack, so each span's *self* time (its duration
minus the spans it called) is measured where the work happens.  Hot,
tiny functions are wrapped with counters only (no clock reads, no stack
frame) to keep the tracing overhead down.  All state lives in one
:class:`Tracer` object; :meth:`Tracer.totals` merges the per-thread tables.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from types import ModuleType

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("counts", "times", "self_times", "stack", "root_time")

    def __init__(self):
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.self_times = defaultdict(float)
        self.stack: list[list] = []  # [name, child_time] frames
        self.root_time = 0.0


class Tracer:
    """Span and counter tables, one per thread, merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.main = self.state()
        self.service_events: list[dict] = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- wrappers -------------------------------------------------------------

    def span(self, name, func, observe=None, before=None):
        """Time ``func`` as span ``name``; ``observe(st, args, result, dt, token)``
        sees each call's arguments and result, ``before(args)`` runs first and
        returns the token."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            token = before(args) if before is not None else None
            frame = [name, 0.0]
            stack = st.stack
            stack.append(frame)
            t0 = _perf()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                st.counts[name] += 1
                st.times[name] += dt
                st.self_times[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    st.root_time += dt
            if observe is not None:
                observe(st, args, result, dt, token)
            return result

        return wrapper

    def counter(self, name, func, parent_counts=()):
        """Count calls of ``func`` (no clock); ``parent_counts`` maps an
        enclosing span name to an extra counter bumped when it is on top."""
        tracer = self
        parents = dict(parent_counts)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            st.counts[name] += 1
            if parents and st.stack:
                extra = parents.get(st.stack[-1][0])
                if extra is not None:
                    st.counts[extra] += 1
            return func(*args, **kwargs)

        return wrapper

    def generator_span(self, name, func):
        """Time a generator function: only the time spent inside ``next()``."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            st.counts[name] += 1
            gen = func(*args, **kwargs)
            try:
                while True:
                    frame = [name, 0.0]
                    st.stack.append(frame)
                    t0 = _perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = _perf() - t0
                        st.stack.pop()
                        st.times[name] += dt
                        st.self_times[name] += dt - frame[1]
                        if st.stack:
                            st.stack[-1][1] += dt
                        else:
                            st.root_time += dt
                    yield item
            finally:
                gen.close()

        return wrapper

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict:
        """Counts, inclusive times and self times summed over every thread."""
        counts: dict = defaultdict(int)
        times: dict = defaultdict(float)
        self_times: dict = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, value in list(st.counts.items()):
                counts[key] += value
            for key, value in list(st.times.items()):
                times[key] += value
            for key, value in list(st.self_times.items()):
                self_times[key] += value
        return {"counts": dict(counts), "times": dict(times), "self_times": dict(self_times)}


def merge_totals(parts) -> dict:
    """Sum several :meth:`Tracer.totals` tables (e.g. from worker processes)."""
    out = {"counts": defaultdict(int), "times": defaultdict(float), "self_times": defaultdict(float)}
    for part in parts:
        for table in out:
            for key, value in part.get(table, {}).items():
                out[table][key] += value
    return {table: dict(values) for table, values in out.items()}


def _replace_function(module: ModuleType, attr: str, wrapped_factory) -> None:
    """Wrap ``module.attr`` and every ``repro`` module's by-name import of it."""
    original = getattr(module, attr)
    wrapped = wrapped_factory(original)
    for mod in list(sys.modules.values()):
        if not isinstance(mod, ModuleType) or not mod.__name__.startswith("repro"):
            continue
        if mod.__dict__.get(attr) is original:
            setattr(mod, attr, wrapped)


def _replace_method(cls, attr: str, wrapped_factory) -> None:
    setattr(cls, attr, wrapped_factory(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points with ``tracer``."""
    # import_module, not ``import a.b as c``: the ``repro`` package exports an
    # ``instrument`` function that shadows the subpackage attribute.
    from importlib import import_module

    import_module("repro.experiments.pipeline")  # binds every by-name import first
    representing = import_module("repro.core.representing")
    engine_core = import_module("repro.engine.core")
    engine_pool = import_module("repro.engine.pool")
    engine_worker = import_module("repro.engine.worker")
    batch = import_module("repro.instrument.batch")
    c_backend = import_module("repro.instrument.native.c_backend")
    native_cache = import_module("repro.instrument.native.cache")
    emit = import_module("repro.instrument.native.emit")
    native_kernel = import_module("repro.instrument.native.kernel")
    program = import_module("repro.instrument.program")
    runtime = import_module("repro.instrument.runtime")
    line_search = import_module("repro.optimize.local.line_search")
    memo = import_module("repro.optimize.memo")
    service_core = import_module("repro.service.core")
    runstore = import_module("repro.store.runstore")
    from repro.optimize.local import get_local_minimizer, register_local_minimizer

    # instrument: the AST pass + compile behind every instrument() call.
    _replace_function(program, "instrument", lambda f: tracer.span("instrument", f))
    # instrument.runtime: one FastRuntime.begin per fast-runtime execution.
    _replace_method(runtime.FastRuntime, "begin", lambda f: tracer.counter("runtime.fast_runs", f))

    # instrument.specialize: variant builds (true constructions) and runs.
    def before_specialize(args):
        return args[0].specialization_builds

    def observe_specialize(st, args, result, dt, builds_before):
        if args[0].specialization_builds > builds_before:
            st.counts["specialize.builds"] += 1
            st.times["specialize.build_s"] += dt

    _replace_method(
        program.InstrumentedProgram, "specialize",
        lambda f: tracer.span("specialize.lookup", f, observe_specialize, before_specialize),
    )
    _replace_method(
        program.SpecializedVariant, "run",
        lambda f: tracer.counter(
            "specialize.variant_runs", f,
            parent_counts={"native.scalar": "native.scalar_bails", "native.batch": "native.batch_bails"},
        ),
    )

    # instrument.batch: kernel builds and batched rows.
    _replace_function(batch, "build_batch_kernel", lambda f: tracer.span("batch.build", f))

    def observe_batch_call(st, args, result, dt, token):
        st.counts["batch.rows"] += len(args[1])

    _replace_method(batch.BatchKernel, "__call__", lambda f: tracer.span("batch.call", f, observe_batch_call))

    # instrument.native: kernel requests, emission, compiles, scalar/batch calls.
    _replace_function(native_kernel, "build_native_kernel", lambda f: tracer.span("native.build", f))
    _replace_function(emit, "emit_program_ir", lambda f: tracer.span("native.emit", f))
    _replace_function(c_backend, "render_c", lambda f: tracer.span("native.render", f))

    def before_compile(args):
        return (native_cache.native_cache_dir() / f"{args[1]}.so").exists()

    def observe_compile(st, args, result, dt, existed):
        if not existed:
            st.counts["native.compiles"] += 1
            st.times["native.compile_s"] += dt

    _replace_function(
        native_cache, "compile_kernel",
        lambda f: tracer.span("native.compile_call", f, observe_compile, before_compile),
    )
    _replace_method(native_kernel.NativeKernel, "scalar", lambda f: tracer.span("native.scalar", f))

    def observe_native_batch(st, args, result, dt, token):
        st.counts["native.batch_rows"] += len(args[1])

    _replace_method(
        native_kernel.NativeKernel, "__call__", lambda f: tracer.span("native.batch", f, observe_native_batch)
    )

    # core.representing: scalar evaluations, coverage harvests, batches.
    _replace_method(
        representing.RepresentingFunction, "__call__",
        lambda f: tracer.span("representing.call", f),
    )

    def observe_harvest(st, args, result, dt, token):
        rf = args[0]
        st.counts["representing.respecializations"] += rf.respecializations
        st.counts["native.pending_calls"] += rf.native_pending_calls

    _replace_method(
        representing.RepresentingFunction, "evaluate_with_coverage",
        lambda f: tracer.span("representing.harvest", f, observe_harvest),
    )

    def observe_eval_batch(st, args, result, dt, token):
        st.counts["representing.batch_rows"] += len(result)

    _replace_method(
        representing.RepresentingFunction, "evaluate_batch",
        lambda f: tracer.span("representing.batch", f, observe_eval_batch),
    )

    # optimize: Powell (through its registry entry) and its line searches.
    register_local_minimizer(
        "powell", tracer.span("optimize.local", get_local_minimizer("powell")), replace=True
    )
    _replace_function(line_search, "minimize_scalar", lambda f: tracer.counter("optimize.line_searches", f))

    # optimize.memo: lookups, and the misses that fell through to FOO_R.
    def before_memo(args):
        return args[0].misses

    def observe_memo(st, args, result, dt, misses_before):
        if args[0].misses > misses_before:
            st.counts["memo.misses"] += 1

    _replace_method(
        memo.BitPatternMemo, "__call__", lambda f: tracer.span("memo.lookup", f, observe_memo, before_memo)
    )

    # engine: runs, batches, starts, chunk priming.
    def observe_engine_run(st, args, result, dt, token):
        st.counts["engine.starts"] += result.n_starts_used
        st.counts["engine.accepted"] += sum(1 for t in result.traces if t.accepted)

    _replace_method(
        engine_core.SearchEngine, "run", lambda f: tracer.span("engine.run", f, observe_engine_run)
    )
    _replace_method(engine_pool.StartPool, "run_batch", lambda f: tracer.generator_span("engine.run_batch", f))
    _replace_function(engine_worker, "run_start", lambda f: tracer.span("engine.start", f))

    def observe_prime(st, args, result, dt, token):
        if result is not None:
            st.counts["engine.primed_chunks"] += 1

    _replace_function(engine_worker, "prime_chunk", lambda f: tracer.span("engine.prime", f, observe_prime))

    # service: submissions and waits (job events carry queue/exec times).
    _replace_method(service_core.CoverageService, "submit", lambda f: tracer.span("service.submit", f))

    def observe_wait(st, args, result, dt, token):
        events = {e["event"]: e["t"] for e in result.events}
        tracer.service_events.append({"cached": result.cached, "events": events})

    _replace_method(
        service_core.CoverageService, "wait", lambda f: tracer.span("service.wait", f, observe_wait)
    )

    # store: checkpoint writes and result-cache lookups.
    _replace_method(runstore.RunStore, "put", lambda f: tracer.span("store.put", f))
    _replace_method(runstore.RunStore, "get_satisfying", lambda f: tracer.span("store.get", f))
