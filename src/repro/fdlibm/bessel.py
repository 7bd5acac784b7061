"""The Bessel leaf values of :mod:`repro.fdlibm.e_j0` and :mod:`repro.fdlibm.e_j1`.

``j0``, ``j1``, ``y0`` and ``y1`` are the C library's functions of one
double, bound with :mod:`ctypes`.  glibc's and FreeBSD msun's versions
descend from fdlibm's own ``e_j0.c``/``e_j1.c``.  They are looked up in the
process's own symbol table, where CPython on Linux and macOS already has
libm loaded, and else in glibc's libm.  A C call cannot raise, which is
what the native emitter's ``OPAQUE_CALLS`` allowlist requires of them.
"""

from __future__ import annotations

import ctypes

#: Where to look for a function the process's own symbol table lacks.
LIBM_SONAME = "libm.so.6"


def _bind(name: str):
    for library in (None, LIBM_SONAME):
        try:
            func = ctypes.CDLL(library)[name]
        except (OSError, AttributeError):
            continue
        func.argtypes = (ctypes.c_double,)
        func.restype = ctypes.c_double
        return func
    raise ImportError(f"the C library has no {name}(double)")


j0 = _bind("j0")
j1 = _bind("j1")
y0 = _bind("y0")
y1 = _bind("y1")
