"""Distributed work-stealing multi-start: shard the start space across
machines while preserving the engine's seeded bit-identity guarantee.

Layering (all over the existing service/engine seams):

* :mod:`repro.distributed.protocol` -- lossless JSON wire forms (hex
  floats, branch masks, mask deltas with digests);
* :mod:`repro.distributed.leases` -- the lease table (one lease per
  engine batch) with TTL expiry and steal-on-reclaim;
* :mod:`repro.distributed.coordinator` -- :class:`LeaseCoordinator` (the
  worker registry + speculative lease issue) and :class:`LeasePool` (the
  ``CoverMeConfig.pool_factory`` adapter the engine runs on);
* :mod:`repro.distributed.worker` -- the pull-based worker loop over
  either transport (HTTP subprocess or in-process thread);
* :mod:`repro.distributed.remote` -- the pipeline's HTTP service adapter
  (``repro run --coordinator URL``).
"""

from repro.distributed.coordinator import LeaseCoordinator, LeasePool
from repro.distributed.leases import Lease, LeaseTable
from repro.distributed.protocol import MaskReceiver, MaskResync, MaskSender
from repro.distributed.remote import RemoteServiceAdapter
from repro.distributed.worker import (
    HTTPTransport,
    InlineTransport,
    run_worker,
    start_inline_workers,
)

__all__ = [
    "LeaseCoordinator",
    "LeasePool",
    "Lease",
    "LeaseTable",
    "MaskReceiver",
    "MaskResync",
    "MaskSender",
    "RemoteServiceAdapter",
    "HTTPTransport",
    "InlineTransport",
    "run_worker",
    "start_inline_workers",
]
