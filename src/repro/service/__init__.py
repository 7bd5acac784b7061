"""Coverage-as-a-service: the job layer every execution path goes through.

``repro run``, :func:`repro.experiments.pipeline.execute_plan` and the
``repro serve`` HTTP daemon all build :class:`JobRequest`\\ s and submit
them to a :class:`CoverageService`, which deduplicates in-flight work,
serves repeats from the shared :class:`~repro.store.RunStore` result
cache, applies bounded admission (backpressure), and hands jobs to a
persistent warm worker pool whose workers all take from one FIFO queue.  See
:mod:`repro.service.core` for the full submission pipeline and
:mod:`repro.service.http` for the daemon's wire protocol.
"""

from repro.service.core import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    CoverageService,
    JobOutcome,
    ServiceClosed,
    ServiceJob,
)
from repro.service.jobs import (
    TOOL_FACTORIES,
    ExecutedJob,
    JobRequest,
    baseline_budget,
    build_job_key,
    coverme_budget,
    derive_budget,
    execute_job,
    profile_fingerprint,
    source_hash,
    tool_fingerprint,
)
from repro.service.queue import AdmissionQueue, QueueClosed, QueueFull
from repro.service.workers import WorkerPool

__all__ = [
    "AdmissionQueue",
    "CoverageService",
    "DONE",
    "ExecutedJob",
    "FAILED",
    "JobOutcome",
    "JobRequest",
    "QUEUED",
    "QueueClosed",
    "QueueFull",
    "RUNNING",
    "ServiceClosed",
    "ServiceJob",
    "TOOL_FACTORIES",
    "WorkerPool",
    "baseline_budget",
    "build_job_key",
    "coverme_budget",
    "derive_budget",
    "execute_job",
    "profile_fingerprint",
    "source_hash",
    "tool_fingerprint",
]
