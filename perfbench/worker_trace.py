"""Tracing inside the pipeline's process workers.

The ``pipeline-*`` workloads execute CoverMe jobs in worker processes
started from a multiprocessing forkserver.  The traced run names this
module as the forkserver's preload module, so the server imports it once
and every worker it forks inherits the installed wrappers.  Importing the
module is therefore its whole purpose: it installs a :class:`Tracer` and
wraps the job entry point so that after each job the worker's cumulative
tables are written to ``$PERFBENCH_TRACE_DIR/worker-<pid>.json`` (one
atomic replace per job), where the traced run collects them.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import repro.service.jobs as _jobs
from tracing import Tracer, install

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")


def _dump(tracer: Tracer) -> None:
    directory = Path(_TRACE_DIR)
    target = directory / f"worker-{os.getpid()}.json"
    tmp = directory / f".worker-{os.getpid()}.tmp"
    tmp.write_text(json.dumps(tracer.totals()))
    os.replace(tmp, target)


def _with_dump(tracer: Tracer, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        finally:
            _dump(tracer)

    return wrapper


if _TRACE_DIR:
    _TRACER = Tracer()
    install(_TRACER)
    _jobs.execute_job_remote = _with_dump(_TRACER, _jobs.execute_job_remote)
