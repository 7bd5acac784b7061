"""Wire protocol of the distributed coordinator/worker layer.

Everything that crosses a machine boundary is JSON, and everything that
must survive the round trip *bit-exactly* is encoded losslessly:

* floats travel as ``float.hex()`` strings (``h2f``/``f2h``), which
  round-trip every finite value, ``inf``/``-inf`` and ``nan`` -- JSON
  number formatting would neither guarantee the last ulp nor carry the
  non-finite values at all;
* branch sets travel as integer masks (:func:`~repro.instrument.runtime.
  branch_mask` / ``branches_from_mask``, bit = ``(conditional << 1) |
  outcome``), an exact round trip;
* the per-lease saturation snapshot uses a **delta scheme**:
  covered/infeasible sets only grow within a run, so the coordinator
  tracks which bits each worker has already seen (:class:`MaskSender`)
  and ships only the newly-set ones, plus a digest of the full mask.  The
  worker ORs the delta into its accumulator (:class:`MaskReceiver`) and
  verifies the digest; any mismatch (worker restart, a stolen lease
  carrying an older snapshot the sender could not express as a delta)
  raises :class:`MaskResync`, and the worker re-acquires with
  ``resync=true`` -- the coordinator then resets its sender state and
  re-sends the full mask.  Correctness never depends on the delta path:
  the digest gates every decode;
* start parameters must carry exactly the :class:`StartParams` fields:
  :func:`decode_params` names any unknown or missing field in a
  ``ValueError`` (e.g. one sent by a coordinator from before a field was
  removed), instead of failing inside the dataclass constructor, and
  ``StartParams`` itself refuses an unknown ``eval_profile`` by name, so a
  lease never fails deep inside a start.

The coordinator keys result validation on its *own* lease objects (which
hold the original frozensets), so wire fidelity matters only for
worker-side execution -- but execution is exactly where bit-identity is
earned, hence the hex floats.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional

from repro.engine.worker import StartParams, StartResult, StartTask
from repro.instrument.runtime import BranchId, branch_mask, branches_from_mask

#: StartParams fields that are floats on the wire (hex-encoded).
_PARAM_FLOATS = ("step_size", "temperature", "zero_tolerance", "epsilon", "deadline")


class MaskResync(Exception):
    """A mask delta did not reproduce the sender's full mask (digest
    mismatch).  The receiver must re-acquire with ``resync`` set."""


def f2h(value: float) -> str:
    """Lossless float -> string (handles nan and +/-inf)."""
    return float(value).hex()


def h2f(text: str) -> float:
    """Inverse of :func:`f2h`."""
    return float.fromhex(text)


def mask_digest(mask: int) -> str:
    """Short content digest of a branch mask (gates every delta decode)."""
    return hashlib.sha256(hex(mask).encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# StartParams / StartResult
# ---------------------------------------------------------------------------


def encode_params(params: StartParams) -> dict:
    data = dataclasses.asdict(params)
    for name in _PARAM_FLOATS:
        if data[name] is not None:
            data[name] = f2h(data[name])
    return data


def decode_params(data: dict) -> StartParams:
    params_fields = dataclasses.fields(StartParams)
    known = {f.name for f in params_fields}
    required = {
        f.name
        for f in params_fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown start parameter(s): {', '.join(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise ValueError(f"missing start parameter(s): {', '.join(missing)}")
    fields = dict(data)
    for name in _PARAM_FLOATS:
        if fields.get(name) is not None:
            fields[name] = h2f(fields[name])
    return StartParams(**fields)


def encode_result(result: StartResult) -> dict:
    return {
        "index": result.index,
        "x0": [f2h(v) for v in result.x0],
        "x_star": [f2h(v) for v in result.x_star],
        "value": f2h(result.value),
        "covered": hex(branch_mask(result.covered)),
        "last_conditional": result.last_conditional,
        "last_outcome": result.last_outcome,
        "evaluations": result.evaluations,
        "skipped": result.skipped,
    }


def decode_result(data: dict) -> StartResult:
    return StartResult(
        index=int(data["index"]),
        x0=tuple(h2f(v) for v in data["x0"]),
        x_star=tuple(h2f(v) for v in data["x_star"]),
        value=h2f(data["value"]),
        covered=branches_from_mask(int(data["covered"], 16)),
        last_conditional=data.get("last_conditional"),
        last_outcome=data.get("last_outcome"),
        evaluations=int(data.get("evaluations", 0)),
        skipped=bool(data.get("skipped", False)),
    )


# ---------------------------------------------------------------------------
# Mask delta scheme (send only newly-set bits)
# ---------------------------------------------------------------------------


class MaskSender:
    """Coordinator-side per-(worker, run, kind) delta encoder.

    Tracks the bits the peer is known to hold; a mask that is a superset of
    them ships as a delta, anything else (only possible when a stolen lease
    carries an older snapshot) falls back to the full mask.
    """

    def __init__(self) -> None:
        self.known = 0

    def encode(self, mask: int) -> dict:
        if self.known & ~mask:
            payload = {"full": hex(mask), "new": None, "digest": mask_digest(mask)}
        else:
            payload = {"full": None, "new": hex(mask & ~self.known), "digest": mask_digest(mask)}
        self.known = mask
        return payload

    def reset(self) -> None:
        self.known = 0


class MaskReceiver:
    """Worker-side accumulator; the digest check gates every decode."""

    def __init__(self) -> None:
        self.acc = 0

    def decode(self, payload: dict) -> int:
        if payload.get("full") is not None:
            self.acc = int(payload["full"], 16)
        else:
            self.acc |= int(payload["new"], 16)
        if mask_digest(self.acc) != payload["digest"]:
            raise MaskResync("mask delta did not reproduce the sender's snapshot")
        return self.acc

    def reset(self) -> None:
        self.acc = 0


# ---------------------------------------------------------------------------
# Lease payloads
# ---------------------------------------------------------------------------


def encode_lease(
    lease,
    params: StartParams,
    covered_payload: dict,
    infeasible_payload: dict,
    case_key: Optional[str],
    ttl: float,
) -> dict:
    """The acquire-response body handed to a worker.

    Tasks share the lease's snapshot, so the masks are encoded once at
    lease level; tasks carry only their index and hex-encoded start point.
    """
    return {
        "lease": lease.id,
        "run": lease.run_id,
        "batch": lease.batch_index,
        "case": case_key,
        "ttl": ttl,
        "params": encode_params(params),
        "covered": covered_payload,
        "infeasible": infeasible_payload,
        "tasks": [{"index": t.index, "x0": [f2h(v) for v in t.x0]} for t in lease.tasks],
    }


def decode_lease_tasks(
    payload: dict,
    covered: frozenset[BranchId],
    infeasible: frozenset[BranchId],
) -> list[StartTask]:
    """Rebuild the lease's :class:`StartTask` list from the wire form.

    ``covered``/``infeasible`` are the snapshot sets already decoded from
    the lease's mask payloads (the caller owns the :class:`MaskReceiver`
    state, which is per run and kind).
    """
    return [
        StartTask(
            index=int(t["index"]),
            x0=tuple(h2f(v) for v in t["x0"]),
            covered=covered,
            infeasible=infeasible,
        )
        for t in payload["tasks"]
    ]
