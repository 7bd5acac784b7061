"""Tests of the native machine-code penalty tier (``instrument/native/``).

The contract under test is cross-tier bit-identity: for any program, any
saturation mask and any input row -- NaN, infinities, denormals, huge-int
word patterns included -- the native scalar entry point, the native batch
entry point (serial *and* threaded, ``n_threads`` in {1, 2, 4}), the scalar
``PENALTY_SPECIALIZED`` variant and the generic
:class:`~repro.instrument.runtime.FastRuntime` must compute the same ``r``
bit-for-bit and the same covered-branch sets, and the suite entries must
do so without bailing outside their by-design bail sites (``scalb`` only).
On top of that sit emitter semantics the suite exposed (tuple swaps,
adopted helpers resolved against their own module globals,
``math.erf``/``math.erfc`` as libm calls, dead values sliced away with
their freeze guards kept, ``int(math.floor(x)) & C`` exact beyond int64,
bail reasons counted per site), the kernel/digest caches (including the ``-O3`` flag tier and
the helper digest), the warm path (a kernel already on disk loads by digest
without emitting C, its shape read from the exported ``sp_meta``; the
specialized bail target is built only at the first bail), the stale/corrupt shared-object fallback (rejected, rebuilt,
bit-identical), the disk cache's tolerance of concurrent builders' temp
files (and the pruning of killed builds' stale ones), the background
compiler (kernel absent: the specialized tier serves, no warning, and the
kernel swaps in once ``cc`` lands; a queued kernel is emitted once; a main
process or a forkserver pool worker finishes its queued builds before it
exits, a process worker's job before it returns, and a forked child does
not wait for its parent's), the
``NativeUnavailable`` degradation
(no compiler: one warning per program, identical results through the
specialized tier), the ``repro native-cache`` CLI and the engine-level
identity of ``penalty-native`` vs ``penalty-specialized`` runs across
worker pools.  The fused native Powell search (``local_min.py``) must match
``powell(BitPatternMemo(...))`` bit for bit, memo counters included, and
fall back to the Python search -- library compiling or failed, arity above
7 -- with identical results; exceptions in its bail callback propagate,
its C memo is freed per start, and native chunks are not primed.

Every test that needs a C compiler self-skips when none is present, so the
suite passes on compiler-less machines with the degradation tests carrying
the load there.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import dataclasses
import importlib.util
import inspect
import json
import math
import multiprocessing
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.branch_distance import DEFAULT_EPSILON
from repro.core.config import CoverMeConfig
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine import pool as pool_module
from repro.engine import worker as worker_module
from repro.engine.core import SearchEngine
from repro.engine.worker import StartParams, StartTask, run_start
from repro.experiments.pipeline import _TOOL_FP_EXCLUDE, tool_fingerprint
from repro.experiments.runner import instrument_case
from repro.fdlibm import bessel as _special
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.native import cache as cache_module
from repro.instrument.native import kernel as kernel_module
from repro.instrument.native import local_min
from repro.instrument.native.cache import (
    COMPILE_TIMEOUT_S,
    DISK_CACHE_MAX,
    NativeCompiling,
    NativeUnavailable,
    _prune_disk_cache,
    _reset_background_for_tests,
    _reset_cc_probe_for_tests,
    background_compile_stats,
    cc_available,
    compile_kernel,
    compile_kernel_background,
    disk_cache_max,
    find_cc,
    native_cache_dir,
    native_cache_entries,
    native_clean_disk_cache,
    wait_for_background,
)
from repro.instrument.native.c_backend import render_c
from repro.instrument.native.emit import covered_words, emit_program_ir
from repro.instrument import unit_cache
from repro.instrument.native.kernel import (
    build_native_kernel,
    clear_native_cache,
    helper_digest,
    kernel_digest,
    native_cache_info,
)
from repro.instrument.program import (
    SpecializedVariant,
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import BranchId, ExecutionProfile, branch_mask
from repro.instrument.signature import ProgramSignature
from repro.optimize.local.powell import powell
from repro.optimize.memo import DEFAULT_MAX_ENTRIES, BitPatternMemo
from tests import sample_programs as sp
from tests.test_specialize import PARITY_TARGETS, _run_fast

requires_cc = pytest.mark.skipif(
    not cc_available(), reason="no C compiler (cc/gcc/clang) on PATH"
)


def _bits(value: float) -> bytes:
    return struct.pack("=d", value)


def _from_word(bits: int) -> float:
    return struct.unpack("=d", struct.pack("=Q", bits))[0]


#: Adversarial scalar inputs: signed zeros, NaN (quiet and the signaling
#: 0x7ff0000000000001 word pattern), infinities, near-overflow magnitudes,
#: denormals down to the smallest, doubles beyond int64 (``int(x)``
#: cannot be replicated in an int64 lane -- the native code must bail) and
#: doubles whose ``int`` squares leave int64.
_ADVERSARIAL = (
    0.0,
    -0.0,
    2.0,
    -7.5,
    float("nan"),
    float("inf"),
    -float("inf"),
    1e308,
    -1e308,
    5e-324,
    -5e-324,
    1e-320,
    1e19,
    -1e19,
    4e9,  # int(x) * int(x) leaves int64
    -4e9,
    2.0 ** 62,
    -(2.0 ** 62),
    _from_word(0x7FF0000000000001),  # signaling-NaN word pattern
    _from_word(0x000FFFFFFFFFFFFF),  # largest denormal
    _from_word(0x7FEFFFFFFFFFFFFF),  # DBL_MAX
)

#: Programs whose loops never terminate on +inf input (in every tier alike).
_NO_INF = (sp.loop_program, sp.while_else_loop)


def _adversarial_rows(rng, target, arity: int, n_random: int) -> np.ndarray:
    specials = [
        s
        for s in _ADVERSARIAL
        if not (target in _NO_INF and s == float("inf"))
    ]
    rows = [rng.normal(scale=5.0, size=arity) for _ in range(n_random)]
    rows += [[s] * arity for s in specials]
    return np.ascontiguousarray(rows, dtype=np.float64)


def _assert_native_parity(program, mask: int, X: np.ndarray) -> list:
    """Native scalar == native batch == specialized == FastRuntime, row for row.

    The batch check runs the threaded entry at ``n_threads`` in {1, 2, 4}:
    every thread count, and a repeated call, must produce bit-identical
    ``r`` rows.  The coverage harvest of a native row
    (:meth:`NativeKernel.coverage`) covers every branch it took (the
    FastRuntime set); a bailed row harvests ``None``.  Returns the indices
    of the rows the scalar entry bailed on."""
    kernel = program.native_kernel(mask)
    r_batch = kernel(X)
    r_bits = r_batch.view(np.uint64)
    for n_threads in (2, 4):
        r_mt = kernel(X, n_threads=n_threads)
        context = (program.name, hex(mask), n_threads)
        assert np.array_equal(r_bits, r_mt.view(np.uint64)), context
    r_again = kernel(X, n_threads=2)
    assert np.array_equal(r_bits, r_again.view(np.uint64))
    bailed = []
    for i, row in enumerate(X):
        args = row.tolist()
        r_sp = program.run_specialized(args, mask)
        bails = kernel.bails
        r_native = kernel.scalar(args)
        row_bailed = kernel.bails > bails
        if row_bailed:
            bailed.append(i)
        _, r_fast, cov_fast = _run_fast(program, mask, args)
        context = (program.name, hex(mask), args)
        assert _bits(r_native) == _bits(r_sp) == _bits(r_fast), context
        assert _bits(float(r_batch[i])) == _bits(r_sp), context
        harvest = kernel.coverage(args)
        if row_bailed:
            assert harvest is None, context
        else:
            assert _bits(harvest[0]) == _bits(r_fast), context
            assert harvest[1] == cov_fast, context
    return bailed


@requires_cc
class TestSampleFormParity:
    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_bit_identical_over_random_masks(self, target):
        program = instrument(target)
        rng = np.random.default_rng(41)
        n_bits = 2 * program.n_conditionals
        for trial in range(3):
            mask = int(rng.integers(0, 1 << n_bits)) if trial else 0
            X = _adversarial_rows(rng, target, program.arity, n_random=4)
            _assert_native_parity(program, mask, X)

    def test_all_saturated_mask(self):
        for target in (sp.paper_foo, sp.nested_boolean, sp.chained_comparison):
            program = instrument(target)
            rng = np.random.default_rng(43)
            X = _adversarial_rows(rng, target, program.arity, n_random=2)
            _assert_native_parity(program, (1 << (2 * program.n_conditionals)) - 1, X)

    def test_multi_unit_program_with_instrumented_helper(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        rng = np.random.default_rng(47)
        X = _adversarial_rows(rng, sp.calls_helper, program.arity, n_random=4)
        for mask in (0, 1, 5):
            _assert_native_parity(program, mask, X)


#: Suite entries that pass ``int()`` of an input-sized double on to a
#: comparison: rows with an input beyond int64 bail by design (Python
#: promotes to a big int there).
_BIG_INT_ENTRIES = {"ieee754_scalb"}

#: Magnitudes around and far beyond int64: ``rem_pio2``'s large-argument
#: path masks ``int(math.floor(...))`` of them (cos, sin, tan, the Bessel
#: entries), which must stay native.
_HUGE = tuple(sign * 2.0 ** e for e in (62, 64, 100, 1000) for sign in (1, -1))


@requires_cc
class TestFdlibmSuiteParity:
    @pytest.mark.parametrize("case", BENCHMARKS, ids=lambda c: c.function.split("(")[0])
    def test_bit_identical_row_for_row(self, case):
        """Parity on every suite entry, which a bail must not be able to
        fake: a bailed row is served by the specialized tier itself."""
        name = case.function.split("(")[0]
        program = instrument_case(case)
        rng = np.random.default_rng(53)
        n_bits = 2 * program.n_conditionals
        rows = [rng.uniform(-50, 50, size=program.arity) for _ in range(6)]
        rows += [[s] * program.arity for s in _ADVERSARIAL + _HUGE]
        X = np.ascontiguousarray(rows, dtype=np.float64)
        for trial in range(2):
            mask = int(rng.integers(0, 1 << min(n_bits, 62))) if trial else 0
            bailed = _assert_native_parity(program, mask, X)
            if name in _BIG_INT_ENTRIES:
                assert all(np.max(np.abs(X[i])) >= 2.0 ** 63 for i in bailed), (
                    name, X[bailed].tolist())
            else:
                assert program.native_kernel(mask).bails == 0, (name, hex(mask))


def trunc_overflows(x):
    k = int(x)
    if k > 10:
        return 1.0
    return 0.0


@requires_cc
class TestRuntimeBail:
    def test_int64_overflow_rows_fall_back_per_row(self):
        """``int()`` of a double >= 2**63 hits a native bail site: those rows
        are transparently redone on the scalar specialized variant while the
        rest of the batch stays native, values and coverage identical."""
        program = instrument(trunc_overflows)
        X = np.ascontiguousarray([[2.5], [1e19], [-3.0], [-1e19]], dtype=np.float64)
        _assert_native_parity(program, 0, X)
        kernel = program.native_kernel(0)
        assert kernel.loaded.bail_sites >= 1

    def test_bail_reasons_are_counted_per_site(self, private_cache):
        """A bailing row reports its bail site; the kernel counts the site's
        reason, read from the shared object itself on a warm load."""
        program = _warm_program(trunc_overflows)
        kernel = program.native_kernel(0)
        kernel.scalar([1e19])
        kernel.scalar([2.5])
        kernel(np.array([[-1e19], [3.0], [2.0 ** 1000]]))
        assert kernel.bails == 3
        assert kernel.bail_reasons == {"int() beyond int64": 3}

    def test_swallowed_exceptions_freeze_like_the_scalar_tier(self):
        # raises_for_small raises for |x| < 1: the native code must freeze
        # (keep r and coverage, stop executing) exactly where the scalar
        # tier swallows the exception.
        program = instrument(sp.raises_for_small)
        X = np.ascontiguousarray(
            [[0.5], [-0.25], [2.0], [float("nan")]], dtype=np.float64
        )
        _assert_native_parity(program, 0, X)


def swap_ordered(x, y):
    a = x
    b = y
    if b > a:
        a, b = b, a
    if a - b > 3.0:
        return 1.0
    return 0.0


@requires_cc
class TestTupleAssignment:
    def test_swap_reads_the_whole_right_hand_side_first(self):
        """``a, b = b, a`` evaluates both elements before either store; a
        kernel that stored ``a`` first would see ``a - b == 0`` at
        ``(1, 5)`` and take the other branch."""
        program = instrument(swap_ordered)
        rows = [[1.0, 5.0], [5.0, 1.0], [2.0, 2.5], [-3.0, 4.0], [4.0, -3.0]]
        rows += [[s, -s] for s in _ADVERSARIAL]
        X = np.ascontiguousarray(rows, dtype=np.float64)
        for mask in range(1 << (2 * program.n_conditionals)):
            assert _assert_native_parity(program, mask, X) == [], hex(mask)
            assert program.native_kernel(mask).bails == 0, hex(mask)


def bessel_leaf_dead(x):
    z = float(_special.j0(x))
    if x > 1.0:
        return z
    return -z


def bessel_leaf_tested(x):
    if x > 4.0:
        z = float(_special.j0(x))
        if z > 0.0:
            return 1.0
    return 0.0


def dead_quotient(x):
    if x > 1.0:
        y = 1.0
    else:
        y = -1.0
    q = y / (x - 2.0)
    if x < 3.0:
        return q
    return 0.0


def _kernel_ir(program):
    return emit_program_ir(program.units, program.name, program.arity,
                           program.n_conditionals, program.entry.__globals__)


_SLICE_ROWS = (0.5, 1.5, 2.0, 2.5, 3.0, 4.5, 6.0, 9.75, -2.0)


@requires_cc
class TestDeadValueSlice:
    """Values that reach no test, ``r`` or coverage write are deleted from
    the kernel; what could freeze or bail stays where it was."""

    def _rows(self):
        rows = [[v] for v in _SLICE_ROWS + _ADVERSARIAL]
        return np.ascontiguousarray(rows, dtype=np.float64)

    def test_dead_opaque_call_does_not_bail(self):
        program = instrument(bessel_leaf_dead)
        assert not any("j0" in reason for reason in _kernel_ir(program).bail_reasons)
        for mask in range(1 << (2 * program.n_conditionals)):
            assert _assert_native_parity(program, mask, self._rows()) == [], hex(mask)
            assert program.native_kernel(mask).bails == 0, hex(mask)

    def test_opaque_call_bails_once_its_value_reaches_a_test(self):
        program = instrument(bessel_leaf_tested)
        X = self._rows()
        for mask in (0, 1, 4):
            bailed = _assert_native_parity(program, mask, X)
            assert bailed == [i for i, row in enumerate(X) if row[0] > 4.0], hex(mask)
            assert set(program.native_kernel(mask).bail_reasons) == {
                "unsupported callable repro.fdlibm.bessel.j0"}

    def test_dead_division_by_zero_still_freezes_at_the_same_point(self):
        program = instrument(dead_quotient)
        ir = _kernel_ir(program)
        assert ir.freeze_sites == 1 and ir.bail_sites == 0
        assert ") / (" not in render_c(ir)  # the quotient is gone
        X = self._rows()
        for mask in range(1 << (2 * program.n_conditionals)):
            assert _assert_native_parity(program, mask, X) == [], hex(mask)
            # At x == 2 the scalar tiers swallow ZeroDivisionError after the
            # first conditional: same r, same single covered branch.
            _, r_fast, cov_fast = _run_fast(program, mask, [2.0])
            r_native, cov_native, _last = program.native_kernel(mask).coverage([2.0])
            assert (_bits(r_native), cov_native) == (_bits(r_fast), cov_fast)
            assert cov_fast == 0b10


def floor_low_bits(x):
    n = int(math.floor(x))
    n &= 0x7FFFFFFF
    if n > 0x3FFFFFFF:
        return 1.0
    m = math.floor(-x) & 0xFFFFFFFFFFFF
    if m < 0x800000000000:
        return 2.0
    return 0.0


def wide_sum_low_bits(x):
    n = int(x) + 1
    if (n * 3 - 7) & 0xFFFFFFFF > 0x7FFFFFFF:
        return 1.0
    return 0.0


def wide_sum_tested(x):
    n = int(x) + 1
    if n > 10:
        return 1.0
    return 0.0


#: Inputs whose ``int(x) + 1`` fits int64 while ``3 * (int(x) + 1)`` may
#: not, then inputs beyond int64 (the last six).
_WIDE_SUM_ROWS = (5.0, -3e9, 4e9, 2.0 ** 62, -(2.0 ** 62), 3.0e18,
                  1e19, -1e19, 2.0 ** 64, -(2.0 ** 64), 2.0 ** 100, -(2.0 ** 100))


@requires_cc
class TestHugeIntMask:
    def test_int_arithmetic_keeps_exact_low_bits_and_bails_when_tested(self):
        """Int ``+ - *`` results carry their exact low 64 bits and an
        overflow flag: ``& C`` of them runs natively at any magnitude,
        and a comparison of one beyond int64 bails -- also when the
        int64 operation itself did not overflow (``int(2**64) + 1``)."""
        X = np.ascontiguousarray([[v] for v in _WIDE_SUM_ROWS], dtype=np.float64)
        masked = instrument(wide_sum_low_bits)
        for mask in (0, 1, 2):
            assert _assert_native_parity(masked, mask, X) == [], hex(mask)
        tested = instrument(wide_sum_tested)
        beyond = [i for i, v in enumerate(_WIDE_SUM_ROWS) if abs(v) >= 2.0 ** 63]
        for mask in (0, 1, 2):
            assert _assert_native_parity(tested, mask, X) == beyond, hex(mask)


    def test_floor_and_mask_match_cpython_beyond_int64(self):
        """``int(math.floor(x)) & C`` runs natively for any magnitude: the
        masked low bits reach the branch distances, which must match
        CPython's big-int arithmetic bit for bit."""
        program = instrument(floor_low_bits)
        rng = np.random.default_rng(71)
        rows = []
        for e in range(52, 1024):
            odd = (1 << 52) | int(rng.integers(0, 1 << 51)) << 1 | 1
            for mantissa in (odd, 1 << 52, (1 << 53) - 1):
                value = math.ldexp(mantissa, e - 52)
                rows += [[value], [-value]]
        X = np.ascontiguousarray(rows, dtype=np.float64)
        for mask in (0, 1, 2, 4, 8):
            assert _assert_native_parity(program, mask, X) == [], hex(mask)
            assert program.native_kernel(mask).bails == 0, hex(mask)


def _load_module(path: pathlib.Path, source: str):
    """Import ``source`` as a module from ``path`` (so that
    ``inspect.getsource`` finds its functions), unregistered."""
    path.write_text(textwrap.dedent(source))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A helper whose only return reads ``acc`` before its first store in source
# order: its return arity is only known from the second emitter pass on.
_SHADOW_HELPER = """
    K = 2.0


    def shadow_scale(x):
        n = 0
        while True:
            if n > 0:
                return acc * K
            acc = x + 1.0
            n += 1
"""

_SHADOW_ENTRY = """
    K = 3.0


    def shadow_entry(x):
        y = shadow_scale(x)
        if y > K:
            return 1.0
        return 0.0
"""

_DIGEST_ENTRY = """
    def digest_entry(x):
        y = digest_helper(x)
        if y > 3.0:
            return 1.0
        return 0.0
"""

_HELPER_ROWS = (0.2, 0.6, 1.0, -1.0, -0.5, 3.0, 0.0, -0.0, 1e308, float("nan"),
                float("inf"), 5e-324)


@requires_cc
class TestAdoptedHelpers:
    def test_helper_globals_are_its_own_modules(self, tmp_path):
        """The helper's ``K`` is its own module's 2.0, not the entry
        module's 3.0; the scalar tier runs the helper against its own
        globals and the kernel must agree, without bailing."""
        helper = _load_module(tmp_path / "shadow_helper.py", _SHADOW_HELPER)
        entry = _load_module(tmp_path / "shadow_entry.py", _SHADOW_ENTRY)
        entry.shadow_scale = helper.shadow_scale
        program = instrument(entry.shadow_entry)
        X = np.ascontiguousarray([[v] for v in _HELPER_ROWS], dtype=np.float64)
        for mask in range(1 << (2 * program.n_conditionals)):
            assert _assert_native_parity(program, mask, X) == [], hex(mask)
            assert program.native_kernel(mask).bails == 0, hex(mask)

    @pytest.mark.parametrize("helper_source", (
        "def digest_helper(x):\n    return x * {factor}\n",
        "K = {factor}\n\n\ndef digest_helper(x):\n    return x * K\n",
        "class Scale:\n    K = {factor}\n\n\n"
        "def digest_helper(x):\n    return x * Scale.K\n",
    ), ids=("helper-body", "helper-constant", "helper-class-attribute"))
    def test_helper_module_edit_changes_the_digest_and_the_kernel_rebuilds(
        self, private_cache, counted_emits, tmp_path_factory, helper_source
    ):
        """Two programs with identical units whose helper modules differ,
        in a function body or in a constant the helper reads (a module
        global or a class attribute), must not share a cached kernel."""
        programs = []
        for label, factor in (("a", 2.0), ("b", 4.0)):
            root = tmp_path_factory.mktemp(label)
            helper = _load_module(root / "digest_helper.py",
                                  helper_source.format(factor=factor))
            entry = _load_module(root / "digest_entry.py", _DIGEST_ENTRY)
            entry.digest_helper = helper.digest_helper
            programs.append(instrument(entry.digest_entry))
        first, second = programs
        assert first.units == second.units
        assert helper_digest(first) != helper_digest(second)
        assert kernel_digest(first) != kernel_digest(second)
        assert first.native_kernel(0).digest != second.native_kernel(0).digest
        assert counted_emits == ["digest_entry", "digest_entry"]
        X = np.ascontiguousarray([[v] for v in _HELPER_ROWS], dtype=np.float64)
        for program in programs:
            assert _assert_native_parity(program, 0, X) == []

    def test_helper_walks_shared_across_programs_keep_every_digest(self):
        """Each helper function is walked once per process and shared by
        every program adopting it: the digests of the suite and sample
        programs equal those of walks from scratch, one program at a time."""
        programs = [instrument_case(case) for case in BENCHMARKS]
        programs += [instrument(target) for target in PARITY_TARGETS]
        programs.append(instrument(sp.calls_helper, extra_functions=[sp.helper_goo]))

        def digest(program):
            program.native_helper_digest = None
            return helper_digest(program)

        kernel_module._HELPER_SOURCES.clear()
        shared = [digest(program) for program in programs]
        alone = []
        for program in programs:
            kernel_module._HELPER_SOURCES.clear()
            alone.append(digest(program))
        assert shared == alone

    def test_helper_digest_is_cached_on_the_program(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        digest = helper_digest(program)
        assert program.native_helper_digest == digest
        assert helper_digest(instrument(sp.calls_helper,
                                        extra_functions=[sp.helper_goo])) == digest


def _libm():
    path = ctypes.util.find_library("m")
    if path is None:
        pytest.skip("no C math library")
    libm = ctypes.CDLL(path)
    for name in ("erf", "erfc"):
        fn = getattr(libm, name)
        fn.restype = ctypes.c_double
        fn.argtypes = [ctypes.c_double]
    return libm


class TestLibmErf:
    def test_math_erf_and_erfc_are_the_c_library_bit_for_bit(self):
        """The native tier emits ``math.erf``/``math.erfc`` as C ``erf``/
        ``erfc`` calls, which is exact only while CPython returns the C
        library's bits: random words, signed zeros, subnormals, infinities,
        NaN and fdlibm's interval cut-offs with their neighbours."""
        libm = _libm()
        rng = np.random.default_rng(61)
        words = rng.integers(0, 1 << 64, size=20000, dtype=np.uint64)
        values = words.view(np.float64).tolist()
        values += rng.normal(scale=4.0, size=20000).tolist()
        cut_offs = (0.0, 2.0 ** -28, 2.0 ** -56, 0.84375, 1.25, 1 / 0.35,
                    6.0, 28.0, 5.9215, 27.2)
        for c in cut_offs + _ADVERSARIAL:
            for v in (c, -c):
                values += [v, math.nextafter(v, math.inf),
                           math.nextafter(v, -math.inf)]
        for name in ("erf", "erfc"):
            ours, theirs = getattr(math, name), getattr(libm, name)
            mismatches = [v for v in values
                          if _bits(ours(v)) != _bits(theirs(v))]
            assert mismatches == [], (name, mismatches[:5])

    @requires_cc
    def test_erf_entries_run_natively(self):
        def erf_program(x):
            if math.erf(x) > 0.5:
                return math.erfc(x)
            return 0.0

        program = instrument(erf_program)
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        assert _assert_native_parity(program, 0, X) == []
        assert program.native_kernel(0).bails == 0


@requires_cc
class TestRepresentingFunctionNative:
    def _pair(self, target):
        program = instrument(target)
        # Pre-warm the mask-0 kernel (blocking build): these tests assert
        # exact respecialization counters, which the non-blocking default
        # would smear across the background-compile window.
        program.native_kernel(0)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        return program, native, specialized

    def test_scalar_calls_match_specialized_including_clamp(self):
        _, native, specialized = self._pair(sp.paper_foo)
        for value in _ADVERSARIAL:
            assert _bits(native([value])) == _bits(specialized([value])), value
        assert native.native_respecializations == 1
        assert native.evaluations == len(_ADVERSARIAL)

    def test_evaluate_batch_uses_native_kernel(self):
        _, native, specialized = self._pair(sp.paper_foo)
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        values = native.evaluate_batch(X)
        assert native.batched_calls == 1
        assert native.batch_respecializations == 0  # served natively
        assert native.native_respecializations == 1
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))

    def test_native_threads_change_nothing_but_the_thread_count(self):
        program = instrument(sp.paper_foo)
        program.native_kernel(0)
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        outputs = []
        for n_threads in (1, 2, 4):
            native = RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
                native_threads=n_threads,
            )
            assert native.native_threads == n_threads
            outputs.append(native.evaluate_batch(X).view(np.uint64).tolist())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_config_validates_native_threads(self):
        with pytest.raises(ValueError, match="native_threads"):
            CoverMeConfig(native_threads=0)
        assert CoverMeConfig(native_threads=4).native_threads == 4

    def test_epoch_protocol_respecializes_only_on_mask_flip(self):
        program, native, _ = self._pair(sp.paper_foo)
        tracker = native.tracker
        native([4.0])
        native([4.0])
        assert native.native_respecializations == 1
        _, coverage = native.evaluate_with_coverage([4.0])
        tracker.add_covered(set(coverage.covered))
        if tracker.saturated_mask != 0:
            # The flipped mask rebinds the program's one kernel; nothing
            # is built.
            native([4.0])
            assert native.native_respecializations == 2
            assert native._native_kernel.saturated_mask == tracker.saturated_mask
            assert program.native_kernel_builds == 1

    def test_coverage_harvest_identical_across_profiles(self):
        _, native, specialized = self._pair(sp.nested_branches)
        for args in ([4.0, 1.0], [0.0, -2.0], [float("nan"), 3.0]):
            value_n, cov_n = native.evaluate_with_coverage(args)
            value_s, cov_s = specialized.evaluate_with_coverage(args)
            assert _bits(value_n) == _bits(value_s)
            assert cov_n.covered == cov_s.covered
            assert cov_n.last_conditional == cov_s.last_conditional


@requires_cc
class TestCachesAndDigest:
    def test_digest_sensitive_to_source_and_epsilon_not_mask(self, monkeypatch):
        program = instrument(sp.paper_foo)
        base = kernel_digest(program)
        assert kernel_digest(instrument(sp.paper_foo)) == base
        assert kernel_digest(instrument(sp.three_dimensional)) != base
        # The C bakes in the fixed Def. 4.1 epsilon and is built with fixed
        # flags; the digest covers the values of both.
        monkeypatch.setattr(kernel_module, "DEFAULT_EPSILON", DEFAULT_EPSILON / 2)
        assert kernel_digest(program) != base
        monkeypatch.undo()
        monkeypatch.setattr(kernel_module, "CFLAGS", (*kernel_module.CFLAGS, "-O3"))
        assert kernel_digest(program) != base
        monkeypatch.undo()
        assert kernel_digest(program) == base
        # The digest takes no mask: every mask is served by the one kernel.
        assert list(inspect.signature(kernel_digest).parameters) == ["program"]
        assert program.native_kernel(0).digest == program.native_kernel(3).digest

    @pytest.fixture
    def toolchain_copy(self, tmp_path, monkeypatch):
        """A copy of the instrumenter's and core's modules that the
        toolchain digests read instead of the package's own files."""
        root = tmp_path / "repro"
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        for package in ("instrument", "core"):
            shutil.copytree(src / package, root / package,
                            ignore=shutil.ignore_patterns("__pycache__"))
        unit_cache._modules_digest.cache_clear()
        monkeypatch.setattr(unit_cache, "_HERE", root / "instrument")
        yield root / "instrument"
        unit_cache._modules_digest.cache_clear()

    @pytest.mark.parametrize("name", unit_cache.KERNEL_TOOLCHAIN)
    def test_digest_covers_the_codegen_modules(self, toolchain_copy, name):
        program = instrument(sp.paper_foo)
        base = kernel_digest(program)
        with open(toolchain_copy / name, "ab") as handle:
            handle.write(b"\n# edited\n")
        unit_cache._modules_digest.cache_clear()
        assert kernel_digest(program) != base

    def test_unreadable_codegen_module_reuses_no_kernel(self, toolchain_copy):
        program = instrument(sp.paper_foo)
        base = kernel_digest(program)
        (toolchain_copy / "native" / "emit.py").unlink()
        unit_cache._modules_digest.cache_clear()
        unreadable = kernel_digest(program)
        assert unreadable != base
        assert kernel_digest(program) == unreadable
        # The stand-in is drawn per process, so no other process's kernel
        # is ever found under it.
        probe = "from repro.instrument.native import kernel; print(kernel._PROCESS_TOKEN)"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
        tokens = {
            subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True, timeout=120).stdout.strip()
            for _ in range(2)
        } | {kernel_module._PROCESS_TOKEN}
        assert len(tokens) == 3

    def test_program_kernel_cache_and_build_counter(self):
        program = instrument(sp.paper_foo)
        first = program.native_kernel(0)
        assert program.native_kernel(0) is first
        assert program.native_kernel_builds == 1
        # A new mask rebinds the program's one kernel; nothing is built.
        assert program.native_kernel(3) is first
        assert first.saturated_mask == 3
        assert program.native_kernel_builds == 1

    def test_module_cache_hits_across_program_instances(self):
        clear_native_cache()
        instrument(sp.paper_foo).native_kernel(0)
        misses_before = native_cache_info()["misses"]
        instrument(sp.paper_foo).native_kernel(0)
        info = native_cache_info()
        assert info["misses"] == misses_before
        assert info["hits"] >= 1

    def test_compiled_cache_info_reports_native_and_clear_clears_it(self):
        clear_compiled_cache()
        info = compiled_cache_info()
        assert "native" in info
        assert {"entries", "hits", "misses", "evictions", "disk_entries", "cc"} <= set(
            info["native"]
        )
        instrument(sp.paper_foo).native_kernel(0)
        assert compiled_cache_info()["native"]["entries"] >= 1
        clear_compiled_cache()
        after = compiled_cache_info()["native"]
        assert after["entries"] == 0
        assert after["hits"] == 0 and after["misses"] == 0

    def test_unavailable_programs_are_negatively_cached(self):
        def calls_gamma(x: float) -> float:
            return math.gamma(x) + 0.0

        program = instrument(calls_gamma)
        clear_native_cache()
        with pytest.raises(NativeUnavailable):
            build_native_kernel(program)
        misses = native_cache_info()["misses"]
        with pytest.raises(NativeUnavailable):
            build_native_kernel(program)
        info = native_cache_info()
        assert info["misses"] == misses  # second failure served from cache
        assert info["hits"] >= 1

    def test_run_native_matches_run_specialized(self):
        program = instrument(sp.paper_foo)
        for mask in (0, 0b01, 0b1000):
            r = program.run_native([4.0], mask)
            assert isinstance(r, float)
            assert _bits(r) == _bits(program.run_specialized([4.0], mask))


@requires_cc
class TestBackgroundCompile:
    def test_absent_kernel_serves_specialized_then_swaps_in(
        self, tmp_path, monkeypatch
    ):
        """Kernel absent -> the first native-tier calls run on the
        specialized tier (transient state: no warning) while ``cc`` runs in
        the background; once the build lands the kernel swaps in at the
        next call boundary and the counters account for both phases."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))  # cold disk
        clear_native_cache()
        _reset_background_for_tests()
        program = instrument(sp.paper_foo)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        stats_before = background_compile_stats()
        with warnings.catch_warnings():
            # The compiling state is transient and must not trip the
            # degradation warning machinery.
            warnings.simplefilter("error", RuntimeWarning)
            first = native([4.0])
        assert native.native_respecializations == 0  # no kernel yet
        assert native.native_pending_calls >= 1
        assert native._native_ok  # not latched: this is not a degradation
        assert _bits(first) == _bits(specialized([4.0]))
        pending = native._native_pending
        assert pending is not None
        wait_for_background(pending)
        stats = background_compile_stats()
        assert stats["submitted"] == stats_before["submitted"] + 1
        assert stats["compiled"] == stats_before["compiled"] + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            second = native([4.0])
        assert native.native_respecializations == 1  # swapped in
        assert native._native_pending is None
        assert _bits(second) == _bits(first)
        # The batch path serves from the swapped-in kernel too.
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        values = native.evaluate_batch(X)
        assert native.batch_respecializations == 0
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))
        clear_native_cache()

    def test_background_jobs_deduplicate_by_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        clear_native_cache()
        _reset_background_for_tests()
        program = instrument(sp.nested_boolean)
        submitted_before = background_compile_stats()["submitted"]
        instances = [
            RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
            )
            for _ in range(3)
        ]
        args = [1.0] * program.arity
        pendings = set()
        for representing in instances:
            representing(args)
            pendings.add(representing._native_pending)
        pendings.discard(None)  # a fast build may land mid-loop
        assert len(pendings) <= 1  # all instances share one digest
        stats = background_compile_stats()
        assert stats["submitted"] <= submitted_before + 1  # de-duplicated
        for pending in pendings:
            wait_for_background(pending)
        clear_native_cache()

    def test_queued_kernel_is_emitted_once(
        self, private_cache, counted_emits, monkeypatch
    ):
        """While a kernel's background build is queued, another request for
        it raises ``NativeCompiling`` without emitting its C again."""
        _reset_background_for_tests()
        release = threading.Event()
        real_compile = cache_module.compile_kernel

        def held_compile(c_source, digest):
            release.wait(60)
            return real_compile(c_source, digest)

        monkeypatch.setattr(cache_module, "compile_kernel", held_compile)
        program = instrument(sp.paper_foo)
        try:
            with pytest.raises(NativeCompiling) as first:
                build_native_kernel(program, wait=False)
            with pytest.raises(NativeCompiling) as second:
                build_native_kernel(program, wait=False)
        finally:
            release.set()
        assert second.value.digest == first.value.digest
        assert counted_emits == ["paper_foo"]
        wait_for_background(first.value.digest)
        kernel = build_native_kernel(program, wait=False)
        assert kernel.digest == first.value.digest
        assert counted_emits == ["paper_foo"]  # loaded from disk
        _reset_background_for_tests()

    def test_pruned_done_outcome_is_rebuilt_not_served_stale(
        self, tmp_path, monkeypatch
    ):
        """A recorded "done" outcome whose .so was FIFO-pruned from disk
        must be forgotten and rebuilt, never handed back as a dead path."""
        from repro.instrument.native.cache import (
            NativeCompiling,
            compile_kernel_background,
        )

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        _reset_background_for_tests()
        digest = "ab" * 32
        source = "int sp_dummy_prune(void) { return 7; }\n"
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, digest)
        wait_for_background(digest)
        so_path = tmp_path / f"{digest}.so"
        assert so_path.exists()
        # Simulate the FIFO prune deleting the entry while the "done"
        # outcome is still recorded in the job table.
        so_path.unlink()
        so_path.with_suffix(".c").unlink()
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, digest)  # resubmit, not stale
        wait_for_background(digest)
        assert compile_kernel_background(source, digest) == so_path
        assert so_path.exists()
        _reset_background_for_tests()


def _queue_build_in_worker(cache_dir: str):
    """Request one kernel's background build and return its digest
    (``None`` if it was already built)."""
    os.environ["REPRO_NATIVE_CACHE"] = cache_dir
    try:
        build_native_kernel(instrument(sp.three_dimensional), wait=False)
    except NativeCompiling as exc:
        return exc.digest
    return None


def _assert_build_landed(directory: pathlib.Path, digest) -> None:
    assert digest is not None  # the request really queued a build
    assert (directory / f"{digest}.so").exists()
    assert [p.name for p in directory.iterdir() if p.name.startswith(".")] == []


@requires_cc
class TestBuildsFinishBeforeExit:
    """A process that queued background builds finishes them before it
    exits, so the next process finds the kernels on disk."""

    def test_main_process_drains_at_exit(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from tests.test_native import _queue_build_in_worker
            print(_queue_build_in_worker(sys.argv[1]))
            """
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env,
            cwd=str(root), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        _assert_build_landed(tmp_path, proc.stdout.split()[-1])

    def test_forkserver_pool_worker_drains_at_exit(self, tmp_path):
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            digest = pool.submit(_queue_build_in_worker, str(tmp_path)).result(timeout=300)
        _assert_build_landed(tmp_path, digest)

    def test_forked_child_does_not_wait_for_a_dead_thread(self, tmp_path):
        """The compile thread does not survive ``fork``: a child that exits
        with its parent's build still queued must not block on it."""
        script = textwrap.dedent(
            """
            import os, sys, time
            from repro.instrument.native import cache

            def held_compile(c_source, digest):
                time.sleep(600)

            cache.compile_kernel = held_compile
            try:
                cache.compile_kernel_background("int f(void) { return 0; }", "9a" * 32)
            except cache.NativeCompiling:
                pass
            t0 = time.monotonic()
            pid = os.fork()
            if pid == 0:
                sys.exit(0)  # a normal exit: the inherited exit hooks run
            _, status = os.waitpid(pid, 0)
            print(os.waitstatus_to_exitcode(status), time.monotonic() - t0)
            os._exit(0)  # the parent's own build is held: skip its drain
            """
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_NATIVE_CACHE"] = str(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=str(root),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        exit_code, elapsed = proc.stdout.split()
        assert exit_code == "0"
        assert float(elapsed) < 30

    def test_process_worker_job_finishes_its_builds(self, tmp_path, monkeypatch):
        """A process worker's job returns only once the builds it queued
        have landed: no compiler keeps running under the idle worker."""
        from repro.service import jobs as jobs_module

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        _reset_background_for_tests()
        real_compile = cache_module.compile_kernel

        def slow_compile(c_source, digest):
            time.sleep(0.5)
            return real_compile(c_source, digest)

        digest = "5e" * 32

        def queue_build(request, budget):
            with pytest.raises(NativeCompiling):
                compile_kernel_background("int sp_job_drain(void) { return 3; }\n", digest)
            return jobs_module.ExecutedJob(payload={"queued": digest})

        monkeypatch.setattr(cache_module, "compile_kernel", slow_compile)
        monkeypatch.setattr(jobs_module, "execute_job", queue_build)
        payload, _ = jobs_module.execute_job_remote(None, None)
        assert payload == {"queued": digest}
        assert background_compile_stats()["pending"] == 0
        _assert_build_landed(tmp_path, digest)
        _reset_background_for_tests()


def default_second_arg(x, y=2.0):
    if x > y:
        return 1.0
    return 0.0


def _kernel_outputs(kernel, X: np.ndarray):
    """Bit patterns of ``r`` from the batch entry and from the scalar entry
    row by row, then every row's coverage harvest."""
    rows = X.tolist()
    harvests = [kernel.coverage(row) for row in rows]
    return (
        kernel(X).view(np.uint64).tolist(),
        [_bits(kernel.scalar(row)) for row in rows],
        [None if h is None else (_bits(h[0]), h[1], h[2]) for h in harvests],
    )


@pytest.fixture
def counted_emits(monkeypatch):
    """Count calls of the emitter made by the kernel loader."""
    calls = []
    original = kernel_module.emit_program_ir

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel_module, "emit_program_ir", counting)
    return calls


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """An empty on-disk kernel cache and an empty loaded-kernel cache."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    clear_native_cache()
    yield tmp_path
    clear_native_cache()


def _warm_program(target, mask: int = 0):
    """Build ``target``'s kernel onto disk, then return a fresh program
    whose next kernel request is a disk hit (the loaded-kernel cache is
    emptied, so it goes through the warm load path)."""
    instrument(target).native_kernel(mask)
    clear_native_cache()
    return instrument(target)


_WARM_ROWS = (0.0, -0.0, 2.5, -7.5, 11.0, 1e19, -1e19, 5e-324, float("nan"))


def _rows(program) -> np.ndarray:
    return np.ascontiguousarray(
        [[v] * program.arity for v in _WARM_ROWS], dtype=np.float64
    )


@requires_cc
class TestWarmLoad:
    def test_warm_request_emits_nothing_and_builds_no_variant(
        self, private_cache, counted_emits
    ):
        program = _warm_program(sp.paper_foo)
        kernel = program.native_kernel(0)
        assert counted_emits == ["paper_foo"]  # the cold build only
        assert kernel.loaded.bail_sites == 0  # can never bail
        _kernel_outputs(kernel, _rows(program))
        assert program.specialization_builds == 0

    def test_bail_target_is_built_once_at_the_first_bail(
        self, private_cache, counted_emits
    ):
        program = _warm_program(trunc_overflows)
        kernel = program.native_kernel(0)
        assert len(counted_emits) == 1
        kernel.scalar([2.5])
        kernel(np.array([[-3.0], [4.0]]))
        assert program.specialization_builds == 0  # no bail yet
        r_bail = kernel.scalar([1e19])
        assert program.specialization_builds == 1
        kernel.scalar([-1e19])
        kernel(np.array([[1e19], [2.0]]))
        assert program.specialization_builds == 1  # built once, reused
        assert _bits(r_bail) == _bits(program.run_specialized([1e19], 0))

    @pytest.mark.parametrize(
        "target", (trunc_overflows, sp.raises_for_small, sp.three_dimensional),
        ids=lambda f: f.__name__,
    )
    def test_sp_meta_matches_a_fresh_emission(self, private_cache, target):
        program = _warm_program(target)
        loaded = program.native_kernel(0).loaded
        ir = _kernel_ir(program)
        assert (loaded.arity, loaded.n_words) == (len(ir.entry.params), ir.n_words)
        assert (loaded.bail_sites, loaded.freeze_sites) == (
            ir.bail_sites, ir.freeze_sites)
        if target is trunc_overflows:
            assert loaded.bail_sites >= 1

    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_warm_and_cold_kernels_agree(self, private_cache, counted_emits, target):
        rng = np.random.default_rng(59)
        cold_program = instrument(target)
        X = _adversarial_rows(rng, target, cold_program.arity, n_random=4)
        cold = _kernel_outputs(cold_program.native_kernel(0), X)
        clear_native_cache()
        warm_program = instrument(target)
        warm = _kernel_outputs(warm_program.native_kernel(0), X)
        assert len(counted_emits) == 1  # the warm request did not emit
        assert warm == cold

    def test_second_process_does_not_emit(self, tmp_path):
        """Two processes share one on-disk cache: the second loads every
        kernel by digest, calls the emitter zero times and computes the
        same ``r`` and coverage harvests."""
        script = (
            "import json\n"
            "import numpy as np\n"
            "from repro.instrument.native import kernel as kernel_module\n"
            "from repro.instrument.program import instrument\n"
            "from tests import sample_programs as sp\n"
            "emits = []\n"
            "original = kernel_module.emit_program_ir\n"
            "def counting(*args, **kwargs):\n"
            "    emits.append(args[1])\n"
            "    return original(*args, **kwargs)\n"
            "kernel_module.emit_program_ir = counting\n"
            "results = {}\n"
            "for target in (sp.paper_foo, sp.nested_branches, sp.raises_for_small,\n"
            "               sp.three_dimensional):\n"
            "    program = instrument(target)\n"
            "    kernel = program.native_kernel(0)\n"
            "    X = np.array([[v] * program.arity for v in\n"
            "                  (0.0, -0.0, 0.5, 2.5, -7.5, 1e19, float('nan'))])\n"
            "    r = kernel(X)\n"
            "    scalars = [kernel.scalar(row) for row in X.tolist()]\n"
            "    harvests = [kernel.coverage(row) for row in X.tolist()]\n"
            "    results[target.__name__] = [\n"
            "        [v.hex() for v in r.tolist()], [v.hex() for v in scalars],\n"
            "        [h and [h[0].hex(), h[1], h[2]] for h in harvests]]\n"
            "print(json.dumps({'emits': emits, 'results': results}))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["REPRO_NATIVE_CACHE"] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=str(root),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        cold, warm = runs
        assert len(cold["emits"]) == 4
        assert warm["emits"] == []
        assert warm["results"] == cold["results"]

    def test_entry_wider_than_the_signature_is_unavailable(self, private_cache):
        # The kernel reads one double per entry parameter; an explicit
        # signature of another width must degrade, not misalign rows.
        program = instrument(
            default_second_arg,
            signature=ProgramSignature("default_second_arg", arity=1),
        )
        with pytest.raises(NativeUnavailable, match="arity"):
            build_native_kernel(program)


def _meta_line(c_source: str) -> re.Match:
    match = re.search(r"const long long sp_meta\[5\] = \{ ([^}]*) \};", c_source)
    assert match is not None
    return match


def _with_meta(c_source: str, **changes) -> str:
    """``c_source`` with some ``sp_meta`` fields replaced."""
    match = _meta_line(c_source)
    values = [int(v.rstrip("L")) for v in match.group(1).split(", ")]
    fields = ("abi", "arity", "n_words", "bail_sites", "freeze_sites")
    for name, value in changes.items():
        values[fields.index(name)] = value
    line = "const long long sp_meta[5] = { %s };" % ", ".join(f"{v}LL" for v in values)
    return c_source[: match.start()] + line + c_source[match.end():]


@requires_cc
class TestStaleKernelFallback:
    """A file at ``<digest>.so`` that is not this program's kernel under
    this ABI is rejected, deleted and rebuilt; the rebuilt kernel computes
    exactly what a clean build does and is never loaded with a wrong
    ``n_words``."""

    _CORRUPTIONS = ("truncated", "no_sp_meta", "old_abi", "wrong_n_words",
                    "wrong_arity")

    def _plant(self, corruption, digest, so_bytes, c_source):
        so_path = native_cache_dir() / f"{digest}.so"
        so_path.parent.mkdir(parents=True, exist_ok=True)
        if corruption == "truncated":
            so_path.write_bytes(so_bytes[: len(so_bytes) // 2])
            return
        if corruption == "no_sp_meta":
            # Exports the entry symbols but no shape: loading it blindly
            # would call sp_entry with the wrong signature.
            source = ("int sp_entry(void) { return 0; }\n"
                      "void sp_batch(void) {}\nvoid sp_batch_mt(void) {}\n")
        elif corruption == "old_abi":
            source = _with_meta(c_source, abi=2)
        elif corruption == "wrong_n_words":
            n_words = int(_meta_line(c_source).group(1).split(", ")[2].rstrip("L"))
            source = _with_meta(c_source, n_words=n_words + 1)
        else:
            source = _with_meta(c_source, arity=9)
        assert compile_kernel(source, digest) == so_path

    @pytest.mark.parametrize("corruption", _CORRUPTIONS)
    def test_bad_shared_object_is_rejected_and_rebuilt(
        self, tmp_path, monkeypatch, counted_emits, corruption
    ):
        target = sp.three_dimensional
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "clean"))
        clear_native_cache()
        clean_program = instrument(target)
        clean_kernel = clean_program.native_kernel(0)
        X = _adversarial_rows(np.random.default_rng(61), target,
                              clean_program.arity, n_random=4)
        reference = _kernel_outputs(clean_kernel, X)
        digest = clean_kernel.digest
        so_bytes = clean_kernel.loaded.so_path.read_bytes()
        c_source = clean_kernel.loaded.so_path.with_suffix(".c").read_text()

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "planted"))
        clear_native_cache()
        self._plant(corruption, digest, so_bytes, c_source)
        emits_before = len(counted_emits)
        program = instrument(target)
        kernel = program.native_kernel(0)
        assert len(counted_emits) == emits_before + 1  # rejected: rebuilt
        assert kernel.loaded.n_words == covered_words(program.n_conditionals)
        assert kernel.loaded.arity == program.arity
        assert _kernel_outputs(kernel, X) == reference
        # The rebuilt file replaced the bad one: the next process-level
        # request loads it warm.
        clear_native_cache()
        warm = instrument(target).native_kernel(0)
        assert len(counted_emits) == emits_before + 1
        assert _kernel_outputs(warm, X) == reference
        clear_native_cache()

    def test_background_path_rebuilds_a_bad_file(
        self, tmp_path, monkeypatch, counted_emits
    ):
        """Under the non-blocking request a bad file triggers a background
        rebuild: the specialized tier serves meanwhile, then the rebuilt
        kernel swaps in with identical results."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        clear_native_cache()
        _reset_background_for_tests()
        program = instrument(sp.paper_foo)
        digest = kernel_digest(program)
        self._plant("no_sp_meta", digest, b"", "")
        so_path = native_cache_dir() / f"{digest}.so"
        planted = so_path.read_bytes()
        emits_before = len(counted_emits)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program, SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        first = native([4.0])
        assert native.native_pending_calls == 1
        wait_for_background(native._native_pending)
        second = native([4.0])
        assert native.native_respecializations == 1
        assert _bits(first) == _bits(second) == _bits(specialized([4.0]))
        assert native._native_kernel.loaded.n_words == covered_words(
            program.n_conditionals)
        # The loader read the planted file, rejected it and rebuilt it in
        # place: one emission, and the file at the digest is the new kernel.
        assert native._native_kernel.digest == digest
        assert len(counted_emits) == emits_before + 1
        assert so_path.read_bytes() != planted
        _reset_background_for_tests()
        clear_native_cache()


class TestDiskCacheRace:
    """Builders publish ``<digest>.so`` by renaming a hidden
    ``.<digest>.*.so`` temp file; the cache's listing and pruning must
    neither see nor evict those, nor die on a file renamed or pruned
    between the listing and its ``stat``."""

    @requires_cc
    def test_in_flight_temp_files_are_neither_listed_nor_pruned(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
        in_flight = tmp_path / f".{'cd' * 32}.k3x9q1.so"
        in_flight.write_bytes(b"half-written object")
        now = time.time()
        os.utime(in_flight, (now - 10, now - 10))  # the oldest in FIFO order
        for index in range(2):
            path = compile_kernel(
                f"int sp_dummy{index}(void) {{ return {index}; }}\n",
                f"{index:02d}" * 32,
            )
            os.utime(path, (now - 5 + index, now - 5 + index))
        _prune_disk_cache(tmp_path)
        assert in_flight.exists()  # another builder's file: not evicted
        assert [e["digest"] for e in native_cache_entries()] == ["01" * 32]

    def test_prune_deletes_temp_files_of_killed_builds(self, tmp_path):
        """A temp file older than the compile timeout belongs to no live
        build; a fresh one may, and stays."""
        stale = [tmp_path / f".{'ab' * 32}.x1{suffix}" for suffix in (".c", ".so")]
        fresh = tmp_path / f".{'ab' * 32}.y2.so"
        for path in (*stale, fresh):
            path.write_bytes(b"partial")
        old = time.time() - COMPILE_TIMEOUT_S - 60
        for path in stale:
            os.utime(path, (old, old))
        _prune_disk_cache(tmp_path)
        assert [path.exists() for path in stale] == [False, False]
        assert fresh.exists()

    def test_listing_tolerates_kernels_that_vanish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        for name in ("aa" * 32, "bb" * 32):
            (tmp_path / f"{name}.so").write_bytes(b"\x7fELF")
        vanished = f"{'aa' * 32}.so"
        original_stat = pathlib.Path.stat

        def racing_stat(self, *args, **kwargs):
            # A concurrent prune removes the file after the directory
            # listing but before its stat.
            if self.name == vanished:
                raise FileNotFoundError(str(self))
            return original_stat(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        assert [e["digest"] for e in native_cache_entries()] == ["bb" * 32]
        assert _prune_disk_cache(tmp_path) == 0
        assert native_clean_disk_cache() == 1

    @requires_cc
    def test_background_worker_records_unexpected_errors(
        self, tmp_path, monkeypatch
    ):
        """An unexpected exception in a background build is a ``failed``
        outcome, not a dead worker and a digest pending forever."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        _reset_background_for_tests()
        real_compile = cache_module.compile_kernel

        def vanishing_compile(c_source, digest):
            raise FileNotFoundError("renamed by a concurrent builder")

        monkeypatch.setattr(cache_module, "compile_kernel", vanishing_compile)
        digest = "ef" * 32
        source = "int sp_dummy_bg(void) { return 1; }\n"
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, digest)
        wait_for_background(digest, timeout=30)
        assert background_compile_stats()["failed"] == 1
        with pytest.raises(NativeUnavailable, match="background compile failed"):
            compile_kernel_background(source, digest)
        # The worker keeps serving later jobs.
        monkeypatch.setattr(cache_module, "compile_kernel", real_compile)
        other = "fe" * 32
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, other)
        wait_for_background(other, timeout=60)
        assert compile_kernel_background(source, other).exists()
        _reset_background_for_tests()


class TestCcProbeCache:
    def test_failed_probe_is_cached_per_process(self, tmp_path, monkeypatch):
        """A compiler-less host walks $REPRO_CC/cc/gcc/clang exactly once;
        every later availability check and digest request answers from the
        cached failure without touching the filesystem."""
        import shutil as shutil_module

        program = instrument(sp.paper_foo)
        calls: list[str] = []

        def fake_which(name, *args, **kwargs):
            calls.append(name)
            return None

        monkeypatch.setattr(shutil_module, "which", fake_which)
        monkeypatch.delenv("REPRO_CC", raising=False)
        _reset_cc_probe_for_tests()
        try:
            assert not cc_available()
            probe_calls = len(calls)
            assert probe_calls >= 3  # cc, gcc, clang at least
            for _ in range(3):
                assert not cc_available()
                with pytest.raises(NativeUnavailable, match="no C compiler"):
                    find_cc()
                with pytest.raises(NativeUnavailable):
                    kernel_digest(program)
            assert len(calls) == probe_calls  # no re-probe after the first
        finally:
            _reset_cc_probe_for_tests()


class TestDegradation:
    @pytest.fixture
    def no_cc(self, tmp_path):
        """Hide every C compiler (empty PATH, no REPRO_CC) and re-probe."""
        old_path = os.environ.get("PATH", "")
        old_cc = os.environ.pop("REPRO_CC", None)
        os.environ["PATH"] = str(tmp_path)
        _reset_cc_probe_for_tests()
        clear_native_cache()
        try:
            yield
        finally:
            os.environ["PATH"] = old_path
            if old_cc is not None:
                os.environ["REPRO_CC"] = old_cc
            _reset_cc_probe_for_tests()
            clear_native_cache()

    def test_degrades_to_specialized_with_single_warning(self, no_cc):
        assert not cc_available()
        assert native_cache_info()["cc"] is None
        program = instrument(sp.paper_foo)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        with pytest.warns(RuntimeWarning, match="native tier permanently unavailable"):
            first = native([4.0])
        assert _bits(first) == _bits(specialized([4.0]))
        # Further calls (scalar and batched) stay silent and identical.
        X = np.ascontiguousarray([[0.5], [-2.0], [float("nan")]], dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = native.evaluate_batch(X)
            assert _bits(native([9.0])) == _bits(specialized([9.0]))
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))

    def test_warning_is_per_program(self, no_cc):
        """The kernel is per program, so is its failure: the first
        representing function of a program warns, later ones (one per
        start) degrade silently, and another program warns again."""
        for _ in range(2):
            program = instrument(sp.paper_foo)
            representing = RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
            )
            with pytest.warns(RuntimeWarning, match="native tier permanently unavailable"):
                representing([4.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                representing([4.0])
                again = RepresentingFunction(
                    program,
                    SaturationTracker(program),
                    profile=ExecutionProfile.PENALTY_NATIVE,
                )
                again([4.0])

    def test_build_native_kernel_raises_without_compiler(self, no_cc):
        program = instrument(sp.paper_foo)
        with pytest.raises(NativeUnavailable, match="no C compiler"):
            build_native_kernel(program)

    def test_engine_run_completes_and_matches_specialized(self, no_cc):
        outcomes = []
        for profile in ("penalty-native", "penalty-specialized"):
            program = instrument(sp.paper_foo)
            config = CoverMeConfig(n_start=8, n_iter=2, seed=7, eval_profile=profile)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = SearchEngine(program, config).run()
            outcomes.append(
                (tuple(result.inputs), result.covered, result.evaluations)
            )
        assert outcomes[0] == outcomes[1]


@requires_cc
class TestEngineIdentity:
    def _run(self, program_factory, *, profile):
        program = program_factory()
        config = CoverMeConfig(n_start=16, n_iter=3, seed=42, eval_profile=profile)
        result = SearchEngine(program, config).run()
        return (
            tuple(result.inputs),
            result.covered,
            result.saturated,
            frozenset(result.infeasible),
            result.evaluations,
            result.n_starts_used,
            tuple(
                (t.start, t.minimum_point, t.minimum_value, t.accepted, t.evaluations)
                for t in result.traces
            ),
        )

    def test_run_sets_identical_native_vs_specialized(self):
        factory = lambda: instrument(sp.paper_foo)  # noqa: E731
        native = self._run(factory, profile="penalty-native")
        specialized = self._run(factory, profile="penalty-specialized")
        assert native == specialized

    def test_tanh_suite_entry_native_matches_specialized_without_degradation(self):
        by_name = {c.function.split("(")[0]: c for c in BENCHMARKS}
        factory = lambda: instrument_case(by_name["tanh"])  # noqa: E731
        with warnings.catch_warnings():
            # Prove no degradation fired anywhere in the run.
            warnings.simplefilter("error", RuntimeWarning)
            native = self._run(factory, profile="penalty-native")
        specialized = self._run(factory, profile="penalty-specialized")
        assert native == specialized


@requires_cc
class TestCompileFailureMidRun:
    @pytest.mark.parametrize("k", [0, 1])
    def test_run_degrades_to_specialized_with_identical_record(
        self, private_cache, monkeypatch, k
    ):
        """``cc`` builds the first ``k`` shared objects of a run, then
        fails.  A run builds two: the fused-search library, requested
        first, and the program's one kernel.  Every later kernel request
        degrades to the specialized tier, and the record is bit-identical
        to a ``penalty-specialized`` run, with exactly one degradation
        warning even when every warning is shown (one per program, not one
        per start).  Builds run synchronously here, so the failure lands
        mid-run whatever the machine's speed."""
        real_compile = cache_module.compile_kernel
        builds = []

        def failing_after_k(c_source, digest):
            builds.append(digest)
            if len(builds) > k:
                raise NativeUnavailable("cc failed mid-run")
            return real_compile(c_source, digest)

        def synchronous(c_source, digest):
            return cache_module.compile_kernel(c_source, digest)

        monkeypatch.setattr(cache_module, "compile_kernel", failing_after_k)
        monkeypatch.setattr(kernel_module, "compile_kernel", failing_after_k)
        monkeypatch.setattr(kernel_module, "compile_kernel_background", synchronous)
        monkeypatch.setattr(local_min, "compile_kernel_background", synchronous)
        local_min.clear_local_min_library()
        case = next(c for c in BENCHMARKS if c.function.startswith("tanh"))

        def run(profile):
            config = CoverMeConfig(n_start=40, n_iter=3, seed=3, eval_profile=profile)
            result = SearchEngine(instrument_case(case), config).run()
            return result.inputs, result.covered, result.infeasible, result.evaluations

        try:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                native = run("penalty-native")
        finally:
            local_min.clear_local_min_library()
        assert len(builds) > k  # the failure happened during the run
        degraded = [w for w in seen if "native tier permanently unavailable" in str(w.message)]
        assert len(degraded) == 1
        assert native == run("penalty-specialized")


@requires_cc
class TestCacheShape:
    def test_multi_start_run_writes_one_kernel_per_program(self, private_cache):
        """A seeded multi-start run over N programs leaves exactly N kernel
        shared objects plus the fused-search library in an empty cache:
        saturation changes the mask during each run, never the kernel."""
        _reset_background_for_tests()
        local_min.clear_local_min_library()
        targets = (sp.paper_foo, sp.nested_branches, sp.three_dimensional)
        try:
            for target in targets:
                config = CoverMeConfig(n_start=12, n_iter=2, seed=11)
                result = SearchEngine(instrument(target), config).run()
                assert result.saturated  # later batches ran under new masks
            cache_module.finish_background_compiles()
        finally:
            local_min.clear_local_min_library()
        names = sorted(p.name for p in private_cache.glob("*.so"))
        kernels = [name for name in names if not name.startswith("local-min-")]
        assert len(kernels) == len(targets), names
        assert len(names) == len(targets) + 1, names


@requires_cc
class TestNativeCacheCLI:
    def test_ls_and_clean_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        digest = "deadbeef" * 8
        so_path = compile_kernel("int sp_dummy(void) { return 0; }\n", digest)
        assert so_path.exists()
        assert cli_main(["native-cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "1 kernels" in out and digest[:16] in out
        # The summary line reports total on-disk size and the FIFO bound.
        assert f"{so_path.stat().st_size} bytes total" in out
        assert f"(bound {disk_cache_max()})" in out
        assert cli_main(["native-cache", "clean"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert native_cache_entries() == []
        assert cli_main(["native-cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_max_override_bounds_the_fifo(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
        assert disk_cache_max() == 2
        for index in range(4):
            digest = f"{index:02d}" * 32
            path = compile_kernel(
                f"int sp_dummy{index}(void) {{ return {index}; }}\n", digest
            )
            # Deterministic FIFO order regardless of filesystem timestamp
            # granularity.
            os.utime(path, (index, index))
            os.utime(path.with_suffix(".c"), (index, index))
        survivors = {entry["digest"] for entry in native_cache_entries()}
        assert len(survivors) == 2
        assert "00" * 32 not in survivors  # oldest evicted first
        assert cli_main(["native-cache", "ls"]) == 0
        assert "(bound 2)" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "not-a-number")
        assert disk_cache_max() == DISK_CACHE_MAX  # malformed override falls back


class TestFingerprintNeutrality:
    def test_eval_profile_excluded_from_tool_fingerprints(self):
        assert "eval_profile" in _TOOL_FP_EXCLUDE

        @dataclasses.dataclass
        class FakeTool:
            eval_profile: str
            depth: int = 3

        assert tool_fingerprint(FakeTool("penalty-native")) == tool_fingerprint(
            FakeTool("penalty-specialized")
        )

    def test_native_threads_excluded_from_tool_fingerprints(self):
        assert "native_threads" in _TOOL_FP_EXCLUDE

        @dataclasses.dataclass
        class FakeTool:
            native_threads: int
            depth: int = 3

        assert tool_fingerprint(FakeTool(1)) == tool_fingerprint(FakeTool(4))


# -- fused native local search (instrument/native/local_min.py) ----------------


def eight_inputs(a, b, c, d, e, f, g, h):
    if a + b + c + d > e + f + g + h:
        return 1
    return 0


def curved_valley(x, y, z):
    """Arity 3 with a curved valley: Powell needs several sweeps and
    replaces directions on the way down."""
    a = y - x * x
    b = 1.0 - x
    c = z - y
    if 100.0 * a * a + b * b + c * c < 1e-12:
        return 1
    return 0


class _FixedMask:
    """Tracker stand-in pinning ``saturated_mask``, all the optimizer loop reads."""

    def __init__(self, mask: int):
        self.saturated_mask = mask


@pytest.fixture
def library():
    """The fused-search library, waiting for its build if it is not on disk."""
    lib = local_min.local_min_library()
    if lib is None:
        wait_for_background(local_min.library_digest())
        lib = local_min.local_min_library()
    assert lib is not None
    return lib


def _native_representing(program, mask: int) -> RepresentingFunction:
    return RepresentingFunction(
        program, _FixedMask(mask), profile=ExecutionProfile.PENALTY_NATIVE
    )


def _assert_fused_powell_identical(library, program, mask, x0, max_iterations=40,
                                   max_entries=DEFAULT_MAX_ENTRIES):
    """``powell`` through a NativeObjective == ``powell`` through a
    BitPatternMemo: same x and fun bits, nfev, nit, and memo counters.
    Returns the kernel the fused search ran on."""
    kernel = program.native_kernel(mask)
    reference = BitPatternMemo(_native_representing(program, mask),
                               arity=program.arity, max_entries=max_entries)
    fused = local_min.NativeObjective(_native_representing(program, mask), kernel,
                                      library, max_entries)
    try:
        with np.errstate(all="ignore"):
            expected = powell(reference, np.array(x0), max_iterations=max_iterations)
        got = powell(fused, np.array(x0), max_iterations=max_iterations)
        context = (program.name, hex(mask), x0, max_iterations, max_entries)
        assert [_bits(v) for v in got.x] == [_bits(v) for v in expected.x], context
        assert _bits(got.fun) == _bits(expected.fun), context
        assert (got.nfev, got.nit, got.message) == (
            expected.nfev, expected.nit, expected.message), context
        assert fused.stats() == reference.stats(), context
    finally:
        fused.close()
    return kernel


def _dense_mask(program, clear_bit: int = 0) -> int:
    """Every branch saturated but one: the searches do real work."""
    full = (1 << (2 * program.n_conditionals)) - 1
    return full & ~(1 << clear_bit)


_FUSED_X0 = (0.0, -0.0, 5e-324, -1e-310, 1.5, -7.25, 1e300, -1e300,
             float("inf"), -float("inf"), float("nan"))
#: Every sample form and every suite entry (all have native kernels).
_FUSED_PROGRAMS = tuple(
    [(target.__name__, target, None) for target in PARITY_TARGETS]
    + [(case.function.split("(")[0], None, case) for case in BENCHMARKS]
)
_FUSED_CACHE: dict = {}


def _fused_program(index: int):
    name, target, case = _FUSED_PROGRAMS[index]
    program = _FUSED_CACHE.get(name)
    if program is None:
        program = instrument(target) if case is None else instrument_case(case)
        _FUSED_CACHE[name] = program
    return program, target


@requires_cc
class TestFusedLocalSearch:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_powell_bit_identical_to_python(self, library, data):
        program, target = _fused_program(
            data.draw(st.integers(0, len(_FUSED_PROGRAMS) - 1), label="program"))
        top = (1 << min(2 * program.n_conditionals, 62)) - 1
        mask = data.draw(st.integers(0, top), label="mask")
        if data.draw(st.booleans(), label="dense"):
            mask |= data.draw(st.integers(0, top)) | data.draw(st.integers(0, top))
        specials = [v for v in _FUSED_X0
                    if not (target in _NO_INF and v == float("inf"))]
        component = st.one_of(
            st.sampled_from(specials),
            st.floats(allow_nan=False, allow_infinity=target not in _NO_INF, width=64),
        )
        x0 = [data.draw(component, label="x0") for _ in range(program.arity)]
        _assert_fused_powell_identical(
            library, program, mask, x0,
            max_iterations=data.draw(st.sampled_from((0, 1, 40)), label="iterations"),
            max_entries=data.draw(st.sampled_from((4, DEFAULT_MAX_ENTRIES)),
                                  label="max_entries"),
        )

    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_fifo_eviction_and_iteration_caps_on_every_sample_form(self, library, target):
        program = instrument(target)
        mask = _dense_mask(program)
        rng = np.random.default_rng(61)
        for max_iterations in (0, 1, 40):
            for max_entries in (4, DEFAULT_MAX_ENTRIES):
                x0 = rng.normal(scale=20.0, size=program.arity).tolist()
                _assert_fused_powell_identical(library, program, mask, x0,
                                               max_iterations, max_entries)

    def test_arity_three_pins_the_sum_of_squares_order(self, library):
        """Powell's direction update sums squares with np.sum, a left fold
        at this width: summed in another order, the replaced directions
        and so the trajectory differ in the last bits."""
        program = instrument(curved_valley)
        mask = _dense_mask(program, 1)  # only the true branch is open
        rng = np.random.default_rng(67)
        for _ in range(6):
            x0 = rng.normal(scale=3.0, size=3).tolist()
            _assert_fused_powell_identical(library, program, mask, x0)

    def test_non_finite_r_clamps_like_the_representing_function(self, library):
        program = instrument(sp.early_return)
        mask = _dense_mask(program, 0)
        kernel = program.native_kernel(mask)
        fused = local_min.NativeObjective(_native_representing(program, mask), kernel,
                                          library)
        try:
            point = [float("inf")]
            raw = kernel.scalar(point)
            assert math.isnan(raw)
            expected = _native_representing(program, mask)(point)
            assert _bits(fused(point)) == _bits(expected) == _bits(1e300)
            # A fused search opening there sees the clamped value too.
            assert _bits(fused.powell(point, max_iterations=0).fun) == _bits(1e300)
        finally:
            fused.close()

    def test_bailing_entry_runs_the_fallback_through_the_callback(self, library):
        """Starts near +-1e19 take ``int()`` beyond int64 on most points:
        the C search hands those rows to the Python fallback, with the bail
        site that fired, and still matches the Python search bit for bit."""
        program = instrument(trunc_overflows)
        mask = _dense_mask(program, 0)
        kernel = program.native_kernel(mask)
        bails = kernel.bails
        for x0 in ([1e19], [-1e19], [9.3e18], [-2.0 ** 70]):
            _assert_fused_powell_identical(library, program, mask, x0)
        assert kernel.bails > bails
        assert set(kernel.bail_reasons) == {"int() beyond int64"}
        assert sum(kernel.bail_reasons.values()) == kernel.bails

    def test_calls_and_seeds_share_the_memo_like_bit_pattern_memo(self, library):
        program = instrument(sp.nested_branches)
        mask = _dense_mask(program)
        kernel = program.native_kernel(mask)
        reference = BitPatternMemo(_native_representing(program, mask), arity=2,
                                   max_entries=4)
        fused = local_min.NativeObjective(_native_representing(program, mask), kernel,
                                          library, max_entries=4)
        try:
            points = [[1.0, 2.0], [-0.0, 3.0], [0.0, 3.0], [float("nan"), 1.0],
                      [1.0, 2.0], [5.0, 5.0], [6.0, 6.0], [-0.0, 3.0], [1.0, 2.0]]
            for i, point in enumerate(points):
                if i % 3 == 2:
                    reference.seed(point, 0.5 + i)
                    fused.seed(point, 0.5 + i)
                assert _bits(fused(np.array(point))) == _bits(reference(np.array(point)))
                assert fused.stats() == reference.stats(), i
            assert fused.hits == reference.hits and fused.misses == reference.misses
            assert reference.evictions > 0
        finally:
            fused.close()

    def test_wrong_arity_raises_the_representing_functions_error(self, library):
        program = instrument(sp.nested_branches)
        kernel = program.native_kernel(0)
        reference = BitPatternMemo(_native_representing(program, 0), arity=2)
        fused = local_min.NativeObjective(_native_representing(program, 0), kernel,
                                          library)
        try:
            for bad in ([1.0], [1.0, 2.0, 3.0], 4.0):
                with pytest.raises(ValueError) as expected:
                    reference(bad)
                with pytest.raises(ValueError) as got:
                    fused(bad)
                assert str(got.value) == str(expected.value)
        finally:
            fused.close()

    def test_closed_objective_refuses_work(self, library):
        program = instrument(sp.paper_foo)
        fused = local_min.NativeObjective(_native_representing(program, 0),
                                          program.native_kernel(0), library)
        fused.close()
        fused.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            fused([1.0])
        with pytest.raises(ValueError, match="closed"):
            fused.powell([1.0])


def _start_params(**overrides) -> StartParams:
    fields = dict(local_minimizer="powell", n_iter=2, root_seed=5,
                  eval_profile=ExecutionProfile.PENALTY_NATIVE.value)
    fields.update(overrides)
    return StartParams(**fields)


def _hard_task(program, x0, index: int = 3) -> StartTask:
    """A start whose snapshot leaves one branch uncovered."""
    branches = sorted(program.all_branches)
    covered = frozenset(branches[:-1])
    return StartTask(index=index, x0=tuple(x0), covered=branch_mask(covered), infeasible=0)


def _start_key(result):
    return ([_bits(v) for v in result.x_star], _bits(result.value),
            result.covered, result.last_conditional, result.last_outcome,
            result.evaluations)


@pytest.fixture
def fused_spy(monkeypatch):
    """Records what ``run_start`` got from ``native_objective``."""
    seen = []
    original = worker_module.native_objective

    def spy(representing):
        objective = original(representing)
        seen.append(objective is not None)
        return objective

    monkeypatch.setattr(worker_module, "native_objective", spy)
    return seen


def _prewarm(program, task) -> int:
    """Build the kernel of ``task``'s snapshot in the foreground; its mask."""
    tracker = SaturationTracker.from_masks(program, task.covered, task.infeasible)
    program.native_kernel(tracker.saturated_mask)
    return tracker.saturated_mask


@requires_cc
class TestFusedFallbacks:
    def test_start_matches_the_python_search(self, library, fused_spy, monkeypatch):
        by_name = {c.function.split("(")[0]: c for c in BENCHMARKS}
        for program, x0 in ((instrument(sp.three_dimensional), [2.5] * 3),
                            (instrument_case(by_name["ieee754_atan2"]), [2.5] * 2),
                            (instrument_case(by_name["ieee754_j0"]), [2.5]),
                            (instrument(trunc_overflows), [1e19])):
            task = _hard_task(program, x0)
            kernel = program.native_kernel(_prewarm(program, task))
            bails = kernel.bails
            fused = run_start(program, _start_params(), task)
            if program.name == "trunc_overflows":
                assert kernel.bails > bails  # the fallback ran
            with monkeypatch.context() as patch:
                patch.setattr(worker_module, "native_objective", lambda representing: None)
                python = run_start(program, _start_params(), task)
            assert _start_key(fused) == _start_key(python), program.name
        assert fused_spy == [True, True, True, True]

    def test_library_still_compiling_runs_the_python_search(
        self, library, fused_spy, tmp_path, monkeypatch
    ):
        program = instrument(sp.three_dimensional)
        task = _hard_task(program, [4.0, -1.0, 2.0])
        _prewarm(program, task)  # the kernel stays loaded in memory
        fused = run_start(program, _start_params(), task)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))  # no library on disk
        local_min.clear_local_min_library()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                compiling = run_start(program, _start_params(), task)
            assert fused_spy == [True, False]
            assert _start_key(compiling) == _start_key(fused)
            wait_for_background(local_min.library_digest())
            landed = run_start(program, _start_params(), task)
            assert fused_spy == [True, False, True]
            assert _start_key(landed) == _start_key(fused)
        finally:
            local_min.clear_local_min_library()

    def test_library_is_queued_while_the_kernel_compiles(
        self, private_cache, fused_spy
    ):
        """A process whose kernels are all still compiling at its starts
        still queues the library, so its exit drain builds it too."""
        local_min.clear_local_min_library()
        _reset_background_for_tests()
        program = instrument(sp.three_dimensional)
        task = _hard_task(program, [4.0, -1.0, 2.0])
        try:
            run_start(program, _start_params(), task)
            assert fused_spy == [False]  # the kernel was not there yet
            wait_for_background(local_min.library_digest())
            assert (private_cache / f"{local_min.library_digest()}.so").exists()
        finally:
            _reset_background_for_tests()
            local_min.clear_local_min_library()

    def test_failed_library_build_warns_once_and_runs_python(
        self, fused_spy, tmp_path, monkeypatch
    ):
        program = instrument(sp.three_dimensional)
        task = _hard_task(program, [4.0, -1.0, 2.0])
        _prewarm(program, task)
        with monkeypatch.context() as patch:
            patch.setattr(worker_module, "native_objective", lambda representing: None)
            python = run_start(program, _start_params(), task)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(local_min, "_C_SOURCE", "#error deliberately broken\n")
        local_min.clear_local_min_library()
        try:
            assert local_min.local_min_library() is None  # submitted, compiling
            wait_for_background(local_min.library_digest())
            with pytest.warns(RuntimeWarning, match="native local search unavailable") as record:
                first = run_start(program, _start_params(), task)
            assert len([w for w in record if "native local search" in str(w.message)]) == 1
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                second = run_start(program, _start_params(), task)
            assert fused_spy[-2:] == [False, False]
            assert _start_key(first) == _start_key(second) == _start_key(python)
        finally:
            local_min.clear_local_min_library()

    def test_arity_above_seven_runs_the_python_search(self, library, fused_spy):
        program = instrument(eight_inputs)
        task = _hard_task(program, [float(i) for i in range(8)])
        representing = _native_representing(program, _prewarm(program, task))
        assert representing.native_kernel() is not None  # the kernel is there
        assert local_min.native_objective(representing) is None
        native = run_start(program, _start_params(), task)
        specialized = run_start(program, _start_params(
            eval_profile=ExecutionProfile.PENALTY_SPECIALIZED.value), task)
        assert fused_spy == [False, False]
        assert _start_key(native) == _start_key(specialized)

    def test_bail_callback_exception_propagates(self, library, fused_spy, monkeypatch):
        """An exception in the Python fallback unwinds the C search and is
        raised again; it never comes back as ctypes' silent 0.0."""
        program = instrument(trunc_overflows)
        kernel = program.native_kernel(0)
        fused = local_min.NativeObjective(_native_representing(program, 0), kernel, library)

        def boom(self, args):
            raise RuntimeError("fallback exploded")

        try:
            assert _bits(fused([2.5])) == _bits(
                _native_representing(program, 0)([2.5]))
            with monkeypatch.context() as patch:
                patch.setattr(SpecializedVariant, "run", boom)
                with pytest.raises(RuntimeError, match="fallback exploded"):
                    fused([1e19])
                with pytest.raises(RuntimeError, match="fallback exploded"):
                    fused.powell([1e19])
                task = StartTask(index=0, x0=(1e19,), covered=0, infeasible=0)
                with pytest.raises(RuntimeError, match="fallback exploded"):
                    run_start(program, _start_params(), task)
                assert fused_spy == [True]
            # The memo stays consistent: nothing was stored for the failed row.
            before = fused.stats()
            assert _bits(fused([1e19])) == _bits(_native_representing(program, 0)([1e19]))
            assert fused.stats()["misses"] == before["misses"] + 1
        finally:
            fused.close()

    def test_thousand_starts_leave_rss_flat(self, library, fused_spy):
        """Each start frees its C memo in run_start's ``finally``."""

        def rss_mb() -> float:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0
            pytest.skip("no /proc/self/status")

        program = instrument(sp.three_dimensional)
        base = _hard_task(program, [0.0, 0.0, 0.0])
        _prewarm(program, base)
        params = _start_params(n_iter=1)

        def starts(first: int, count: int) -> None:
            for index in range(first, first + count):
                task = dataclasses.replace(base, index=index,
                                           x0=(float(index % 17), -2.0, 3.5))
                run_start(program, params, task)

        starts(0, 200)
        before = rss_mb()
        starts(200, 1000)
        # A start's memo holds ~140 entries (~15 KB of C memory); leaking
        # them all would grow the process by ~14 MB.
        assert rss_mb() - before < 4.0
        assert all(fused_spy) and len(fused_spy) == 1200


class _CountingLibrary:
    """The fused-search library, counting context allocations and frees."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = {"lm_new": 0, "lm_free": 0}

    def __getattr__(self, name):
        function = getattr(self._lib, name)
        if name not in self.calls:
            return function

        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@pytest.fixture
def counting_library(library, monkeypatch):
    counting = _CountingLibrary(library)
    monkeypatch.setattr(local_min, "local_min_library", lambda: counting)
    return counting


def _raise_in_fallback(self, args):
    raise RuntimeError("fallback exploded")


@requires_cc
class TestRunContext:
    """The starts of a run share one fused-search context, re-armed per start."""

    def test_rearm_forgets_the_previous_starts_memo(self, library):
        """The same point under another mask is a miss with that mask's
        ``r``: a memo kept across starts would serve the first value."""
        program = instrument(sp.paper_foo)
        dense = _dense_mask(program, 1)  # only x <= 1.0 is open
        point = [3.0]
        kernel = program.native_kernel(0)
        fused = local_min.NativeObjective(_native_representing(program, 0), kernel, library)
        try:
            first = fused(point)
            assert _bits(first) == _bits(_native_representing(program, 0)(point))
            fused.rearm(_native_representing(program, dense))
            second = fused(point)
            assert _bits(second) == _bits(_native_representing(program, dense)(point))
            assert _bits(first) != _bits(second)
            assert fused.stats() == {"hits": 0, "misses": 1, "evictions": 0,
                                     "entries": 1, "max_entries": DEFAULT_MAX_ENTRIES}
        finally:
            fused.close()

    def test_rearm_refuses_another_programs_start(self, library):
        program, other = instrument(sp.paper_foo), instrument(sp.nested_branches)
        fused = local_min.NativeObjective(_native_representing(program, 0),
                                          program.native_kernel(0), library)
        other.native_kernel(0)
        try:
            with pytest.raises(ValueError, match="kernel"):
                fused.rearm(_native_representing(other, 0))
        finally:
            fused.close()

    def test_run_matches_a_context_per_start(self, library, fused_spy):
        """Evaluations, minima and outcomes of starts sharing a context are
        those of starts with a context each, across a snapshot change."""
        for program, scale in ((instrument(sp.three_dimensional), 4.0),
                               (instrument(curved_valley), 2.0),
                               (instrument(trunc_overflows), 3e18)):
            hard = _hard_task(program, [0.0] * program.arity)
            program.native_kernel(_prewarm(program, hard))
            rng = np.random.default_rng(71)
            points = [tuple(rng.normal(scale=scale, size=program.arity).tolist())
                      for _ in range(4)]
            tasks = []
            for index in range(8):
                # Starts 2k and 2k+1 share their x0; starts 4 and 5 across
                # the snapshot change.
                snapshot = hard if index < 5 else dataclasses.replace(hard, covered=0)
                tasks.append(dataclasses.replace(snapshot, index=index, x0=points[index // 2]))
            context = worker_module.RunContext(program)
            try:
                shared = [run_start(program, _start_params(), task, context=context)
                          for task in tasks]
            finally:
                context.close()
            alone = [run_start(program, _start_params(), task) for task in tasks]
            assert [_start_key(r) for r in shared] == [_start_key(r) for r in alone], \
                program.name
        assert all(fused_spy)

    @pytest.mark.parametrize("target, raising_x0, next_x0", (
        (sp.int_square, 1e19, 4e9),
        (trunc_overflows, 1e19, 9.3e18),
    ), ids=("int_square", "trunc_overflows"))
    def test_start_after_a_raising_fallback_matches_a_fresh_context(
        self, library, fused_spy, target, raising_x0, next_x0
    ):
        program = instrument(target)
        raising = StartTask(index=0, x0=(raising_x0,), covered=0, infeasible=0)
        # ``next_x0`` bails and takes the saturated true branch, so its ``r``
        # (a distance) shows whether the fallback ran under this start's mask.
        following = StartTask(index=1, x0=(next_x0,),
                              covered=branch_mask({BranchId(0, True)}), infeasible=0)
        program.native_kernel(_prewarm(program, following))
        context = worker_module.RunContext(program)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SpecializedVariant, "run", _raise_in_fallback)
                with pytest.raises(RuntimeError, match="fallback exploded"):
                    run_start(program, _start_params(), raising, context=context)
            bails = program.native_kernel(0).bails
            after = run_start(program, _start_params(), following, context=context)
            assert program.native_kernel(0).bails > bails  # the fallback ran again
        finally:
            context.close()
        fresh = run_start(program, _start_params(), following)
        assert _start_key(after) == _start_key(fresh)
        assert fused_spy == [True, True]

    def test_run_allocates_one_context_and_frees_it(self, counting_library):
        program = instrument(sp.three_dimensional)
        program.native_kernel(0)
        config = CoverMeConfig(n_start=20, n_iter=2, seed=3, time_budget=None)
        result = SearchEngine(program, config).run()
        assert result.n_starts_used > 1
        assert counting_library.calls == {"lm_new": 1, "lm_free": 1}

    def test_run_frees_its_context_when_a_start_raises(self, counting_library, monkeypatch):
        program = instrument(trunc_overflows)
        program.native_kernel(0)
        engine = SearchEngine(program, CoverMeConfig(n_start=8, n_iter=2, seed=3,
                                                     time_budget=None))
        engine.scheduler.batch = lambda first_index, count: np.full((count, 1), 1e19)
        monkeypatch.setattr(SpecializedVariant, "run", _raise_in_fallback)
        with pytest.raises(RuntimeError, match="fallback exploded"):
            engine.run()
        assert counting_library.calls == {"lm_new": 1, "lm_free": 1}


@requires_cc
class TestNativeChunksAreNotPrimed:
    def test_results_match_a_primed_run(self, library, monkeypatch):
        """Priming a native chunk only moved ``FOO_R(x0)`` into a batch call;
        without it the opening miss is counted in place of the primed
        credit, so every result is unchanged."""
        primes = []
        original = worker_module.prime_chunk

        def counting(program, params, tasks):
            primed = original(program, params, tasks)
            primes.append(primed is not None)
            return primed

        monkeypatch.setattr(pool_module, "prime_chunk", counting)

        def run():
            program = instrument(sp.nested_branches)
            config = CoverMeConfig(n_start=16, n_iter=3, seed=42, eval_profile="penalty-native")
            result = SearchEngine(program, config).run()
            return (tuple(result.inputs), result.covered, result.saturated,
                    result.evaluations,
                    tuple((t.start, t.minimum_point, t.minimum_value, t.accepted,
                           t.evaluations) for t in result.traces))

        unprimed = run()
        assert primes and not any(primes)
        monkeypatch.setattr(worker_module, "_PRIMED_PROFILES", (
            ExecutionProfile.PENALTY_SPECIALIZED, ExecutionProfile.PENALTY_NATIVE))
        primes.clear()
        primed = run()
        assert any(primes)  # the old behaviour, seeding the C memo
        assert unprimed == primed
