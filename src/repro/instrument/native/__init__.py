"""Native C emission tier (the ``PENALTY_NATIVE`` profile).

This package compiles the specialized units the scalar specializer
(:mod:`repro.instrument.specialize`) builds from the lowered IR and a
saturation mask down to machine code:

* :mod:`repro.instrument.native.emit` -- the backend-agnostic emitter core.
  It walks the *specialized* units (probes already resolved against the mask)
  into a small typed IR with explicit float64/int64 semantics, spelling out
  everything CPython does implicitly: fdlibm word intrinsics as uint64
  bit-casts, int64 wrap-around, guarded truncation, exception-to-freeze
  semantics and the NaN-per-direction distance constants -- then slices
  away every value that reaches no test.
* :mod:`repro.instrument.native.c_backend` -- the C99 backend.  Renders the
  IR into a translation unit exposing a scalar entry point, batch
  ``for``-loop entry points, the ``sp_meta`` shape constant and the
  ``sp_bail_reasons`` texts.
* :mod:`repro.instrument.native.cache` -- compiler discovery, out-of-process
  compilation via the system ``cc`` and a content-addressed, FIFO-bounded
  shared-object cache on disk, loaded with :mod:`ctypes`.
* :mod:`repro.instrument.native.kernel` -- :class:`NativeKernel`, the
  runtime object the representing function dispatches to, with a per-row
  fallback onto the scalar :class:`SpecializedVariant` for inputs the native
  code cannot replicate bit-exactly (``sp_bail``; the variant is built at
  the first bail).  A kernel already on disk is loaded by digest without
  re-emitting its C source; its exported ``sp_meta`` constant supplies the
  shape and rejects stale or foreign shared objects.

``r`` stays bit-identical to the scalar ``PENALTY_SPECIALIZED`` tier: every
construct either compiles to arithmetic proven to match CPython's, freezes
the row exactly where the scalar tier would swallow an exception, or bails
the row out to the scalar variant.  Machines without a C compiler degrade to
``PENALTY_SPECIALIZED`` with a one-time warning.
"""

from repro.instrument.native.cache import (
    NativeCompiling,
    NativeUnavailable,
    background_compile_stats,
    background_ready,
    cc_available,
    disk_cache_max,
    native_cache_dir,
    native_cache_entries,
    native_clean_disk_cache,
    opt_tier,
)
from repro.instrument.native.kernel import (
    NativeKernel,
    build_native_kernel,
    clear_native_cache,
    native_cache_info,
)

__all__ = [
    "NativeCompiling",
    "NativeKernel",
    "NativeUnavailable",
    "background_compile_stats",
    "background_ready",
    "build_native_kernel",
    "cc_available",
    "clear_native_cache",
    "disk_cache_max",
    "native_cache_dir",
    "native_cache_entries",
    "native_cache_info",
    "native_clean_disk_cache",
    "opt_tier",
]
