"""Python port of the Fdlibm 5.3 benchmark programs (Sun Microsystems).

The paper evaluates CoverMe on 40 functions of the Freely Distributable Math
Library.  Each module of this package ports one of the benchmarked C files,
keeping the *branch structure* of the original intact: the same high/low-word
bit tests, the same thresholds and the same nesting of conditionals.  Where
the original evaluates a long polynomial (straight-line code with no
branches), the port may compute the value with an equivalent closed form --
this does not change the coverage problem CoverMe has to solve, which depends
only on the conditionals.

:mod:`repro.fdlibm.suite` registers the 40 benchmark entries of Table 2, and
:mod:`repro.fdlibm.excluded` documents the functions the paper excludes
(Table 4).
"""

from repro._exports import lazy_exports
from repro.fdlibm import bits

# The suite resolves on first use, so importing one port (the native
# emitter imports :mod:`repro.fdlibm.bessel`) loads no other.
__getattr__ = lazy_exports(__name__, {
    "repro.fdlibm.suite": ("BENCHMARKS", "BenchmarkCase", "get_case", "iter_cases"),
})

__all__ = ["BENCHMARKS", "BenchmarkCase", "bits", "get_case", "iter_cases"]
