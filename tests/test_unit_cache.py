"""Tests of the on-disk artifact store (``instrument/unit_cache.py``).

A warm entry must give a program byte-identical to a cold instrumentation
(source, conditionals, descendants, kernel digest) for every suite entry; a
fresh process with a warm directory must instrument the suite without a
disk miss and without ``inspect.getsource``.  Editing the target's file, the
pass parameters or the instrumenter invalidates an entry; a truncated entry
is recomputed and overwritten with the same bytes; an unwritable directory
and functions without a source file keep the cold path.

The store's bookkeeping is checked here for every kind of entry at once
(kernels, the fused-search library, ``.entry`` files): one FIFO bound that
evicts the oldest entry whatever its kind, at a write of any kind; stale
temp files of killed writers pruned, in-flight ones kept; a listing that
owns a ``.c`` whose ``.so`` is gone and tolerates files vanishing under a
concurrent writer; and ``repro native-cache ls|clean`` reporting every
file's bytes per kind and removing everything.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import linecache
import os
import subprocess
import sys
import textwrap
import threading
import time
import types
from pathlib import Path

import pytest

from repro.cli import EXIT_STDOUT_CLOSED, main as cli_main
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument import ast_pass, unit_cache
from repro.instrument.native import kernel
from repro.instrument.native.cache import cc_available, compile_kernel
from repro.instrument.unit_cache import (
    COMPILE_TIMEOUT_S,
    MAX_ENTRIES,
    clean_disk,
    disk_entries,
    disk_max,
    prune_disk,
)
from repro.instrument.program import (
    _CODE_CACHE,
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from tests import sample_programs as sp

SRC = Path(__file__).resolve().parents[1] / "src"

requires_cc = pytest.mark.skipif(
    not cc_available(), reason="no C compiler (cc/gcc/clang) on PATH"
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty store directory and cold in-memory caches."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    _forget_in_memory()
    yield tmp_path
    _forget_in_memory()


def _forget_in_memory() -> None:
    clear_compiled_cache()
    kernel._HELPER_SOURCES.clear()


def _disk() -> dict:
    return compiled_cache_info()["disk"]


def _snapshot(program) -> tuple:
    snapshot = (
        program.source,
        tuple(program.conditionals),
        program.descendants,
        repr(program.descendants.reachable),
        repr(program.descendants.branches),
        program.units,
        kernel.helper_digest(program),
    )
    if cc_available():
        snapshot += (kernel.kernel_digest(program),)
    return snapshot


def _entries(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_warm_entries_are_bit_identical_for_the_suite(cache_dir):
    cold = [_snapshot(instrument_case(case)) for case in BENCHMARKS]
    written = _disk()
    assert written["misses"] == written["writes"] == written["entries"] > len(BENCHMARKS)
    _forget_in_memory()
    warm = [_snapshot(instrument_case(case)) for case in BENCHMARKS]
    assert _disk()["misses"] == 0
    assert _disk()["hits"] == written["entries"]
    for case, cold_case, warm_case in zip(BENCHMARKS, cold, warm):
        assert cold_case == warm_case, case.key


_FRESH_PROCESS = """
import inspect, json
calls = []
original = inspect.getsource
def counting(obj):
    calls.append(getattr(obj, "__qualname__", repr(obj)))
    return original(obj)
inspect.getsource = counting
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.native.kernel import helper_digest
from repro.instrument.program import compiled_cache_info
programs = [instrument_case(case) for case in BENCHMARKS]
digests = [helper_digest(program) for program in programs]
print(json.dumps({"getsource": calls, **compiled_cache_info()["disk"]}))
"""


def _fresh_process(cache: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_NATIVE_CACHE": str(cache)}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_process_with_warm_cache_never_reads_sources(tmp_path):
    first = _fresh_process(tmp_path)
    assert first["misses"] > len(BENCHMARKS) and first["getsource"]
    second = _fresh_process(tmp_path)
    assert second["misses"] == 0 and second["writes"] == 0
    assert second["hits"] == first["misses"]
    assert second["getsource"] == []


_MODULE = '''
def target(x):
    if x > 1.0:
        return 1
    return 0
'''


def _import_module(path: Path, source: str):
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(f"unit_cache_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInvalidation:
    def test_editing_the_module_file_misses(self, cache_dir, tmp_path):
        module = _import_module(tmp_path / "edited.py", _MODULE)
        instrument(module.target)
        assert (_disk()["misses"], _disk()["writes"]) == (1, 1)
        _forget_in_memory()
        instrument(module.target)
        assert (_disk()["hits"], _disk()["misses"]) == (1, 0)
        # A change elsewhere in the file still changes the key.
        (tmp_path / "edited.py").write_text(_MODULE + "\n# trailing comment\n")
        instrument(module.target)
        assert (_disk()["misses"], _disk()["writes"]) == (1, 1)
        # An edit inside the function is what a cold pass would read too.
        (tmp_path / "edited.py").write_text(_MODULE.replace("1.0", "2.5"))
        program = instrument(module.target)
        assert _disk()["misses"] == 2
        assert "2.5" in program.source
        _forget_in_memory()
        assert instrument(module.target).source == program.source
        assert _disk()["hits"] == 1

    def test_pass_parameters_are_part_of_the_key(self, cache_dir, monkeypatch):
        default = instrument(sp.nested_boolean)
        assert all(cond.form != "truth" for cond in default.conditionals)
        ceiling = ast_pass.MAX_TREE_TOKENS
        monkeypatch.setattr(ast_pass, "MAX_TREE_TOKENS", 2)
        _forget_in_memory()
        degraded = instrument(sp.nested_boolean)
        assert _disk()["misses"] == 1
        assert any(cond.form == "truth" for cond in degraded.conditionals)
        monkeypatch.setattr(ast_pass, "MAX_TREE_TOKENS", ceiling)
        _forget_in_memory()
        assert instrument(sp.nested_boolean).conditionals == default.conditionals
        assert _disk()["hits"] == 1

    def test_instrumenter_digest_is_part_of_the_key(self, cache_dir, monkeypatch):
        instrument(sp.paper_foo)
        monkeypatch.setattr(unit_cache, "_toolchain_digest", lambda: "0" * 64)
        _forget_in_memory()
        instrument(sp.paper_foo)
        assert (_disk()["hits"], _disk()["misses"]) == (0, 1)


class TestRobustness:
    def test_truncated_entry_is_recomputed_and_overwritten(self, cache_dir):
        program = instrument(sp.loop_program)
        (entry,) = cache_dir.iterdir()
        original = entry.read_bytes()
        entry.write_bytes(original[: len(original) // 2])
        _forget_in_memory()
        again = instrument(sp.loop_program)
        assert (_disk()["hits"], _disk()["misses"], _disk()["writes"]) == (0, 1, 1)
        assert entry.read_bytes() == original
        assert again.source == program.source
        assert again.run((9.0,))[0] == sp.loop_program(9.0)

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        instrument(sp.paper_foo)
        (entry,) = cache_dir.iterdir()
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        _forget_in_memory()
        instrument(sp.paper_foo)
        assert (_disk()["hits"], _disk()["misses"]) == (0, 1)

    def test_unwritable_directory_keeps_the_cold_path(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(blocker))
        _forget_in_memory()
        try:
            program = instrument(sp.paper_foo)
            assert program.run((1.0,))[0] == sp.paper_foo(1.0)
            assert _disk()["writes"] == 0 and _disk()["entries"] == 0
        finally:
            _forget_in_memory()

    def test_failed_publish_leaves_no_temp_file(self, cache_dir, monkeypatch):
        def refuse(*_args):
            raise PermissionError("read-only")

        monkeypatch.setattr(unit_cache.os, "replace", refuse)
        program = instrument(sp.paper_foo)
        assert program.run((1.0,))[0] == sp.paper_foo(1.0)
        assert _disk()["writes"] == 0
        assert list(cache_dir.iterdir()) == []

    def test_functions_without_a_source_file_write_nothing(self, cache_dir):
        filename = "<unit-cache-exec>"
        source = "def execd(x):\n    if x < 0.0:\n        return 1\n    return 0\n"
        namespace: dict = {}
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        try:
            program = instrument(namespace["execd"])
            assert program.n_conditionals == 1
            assert instrument(namespace["execd"]).source == program.source
        finally:
            del linecache.cache[filename]
        info = _disk()
        assert [info[name] for name in ("entries", "bytes", "hits", "misses", "writes")] == [
            0, 0, 0, 0, 0]
        assert list(cache_dir.iterdir()) == []
        assert len(_CODE_CACHE) == 1

    def test_concurrent_writers_publish_the_same_bytes(self, cache_dir):
        instrument(sp.nested_branches)
        expected = _entries(cache_dir)
        for path in cache_dir.iterdir():
            path.unlink()
        _forget_in_memory()
        start = threading.Barrier(8)
        programs = []

        def worker():
            start.wait(timeout=60)
            programs.append(instrument(sp.nested_branches))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(programs) == 8
        assert _entries(cache_dir) == expected
        # Every disk miss wrote, and no counter update was lost.
        assert 1 <= _disk()["misses"] == _disk()["writes"]
        assert _disk()["hits"] + _disk()["misses"] <= 8


def _dummy_c(index: int) -> str:
    return f"int sp_dummy{index}(void) {{ return {index}; }}\n"


def _age(entry_paths, seconds: float) -> None:
    """Set every file of an entry to one mtime: the FIFO order of entries
    whatever the filesystem's timestamp granularity."""
    for path in entry_paths:
        os.utime(path, (seconds, seconds))


class TestDiskBound:
    def _write(self, directory: Path, names) -> list:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, name in enumerate(names):
            path = directory / f"{name}.entry"
            path.write_bytes(b"x")
            os.utime(path, (index, index))
            paths.append(path)
        return paths

    def test_fifo_evicts_the_oldest_entries(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
        paths = self._write(cache_dir, ["aa" * 32, "bb" * 32, "cc" * 32])
        assert prune_disk() == 1
        assert [path.exists() for path in paths] == [False, True, True]

    def test_stale_temp_files_are_pruned(self, cache_dir):
        stale, fresh = cache_dir / f".{'aa' * 32}.x.tmp", cache_dir / f".{'bb' * 32}.y.tmp"
        for path in (stale, fresh):
            path.write_bytes(b"partial")
        old = time.time() - COMPILE_TIMEOUT_S - 60
        os.utime(stale, (old, old))
        prune_disk()
        assert (stale.exists(), fresh.exists()) == (False, True)
        assert _disk()["entries"] == 0  # temp files are not entries

    def test_a_write_prunes(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
        (old,) = self._write(cache_dir, ["aa" * 32])
        instrument(sp.paper_foo)
        assert not old.exists()
        assert _disk()["entries"] == 1

    @requires_cc
    def test_the_bound_evicts_the_oldest_entry_of_any_kind(self, cache_dir, monkeypatch):
        """A unit entry's write evicts an older kernel, and a kernel's build
        evicts an older unit entry."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
        monkeypatch.setattr(unit_cache, "_PRUNE_EVERY", 1)
        so_path = compile_kernel(_dummy_c(0), "aa" * 32)
        _age((so_path, so_path.with_suffix(".c")), 0)
        instrument(sp.paper_foo)
        (unit,) = disk_entries()
        assert unit.kind == "entry"
        _age(unit.paths, 0)
        compile_kernel(_dummy_c(1), "bb" * 32)
        assert [(entry.kind, entry.name) for entry in disk_entries()] == [
            ("kernel", "bb" * 32)]

    def test_a_c_source_without_its_shared_object_is_an_entry(self, cache_dir, capsys):
        """A kernel's ``.c`` is published before its ``.so``; a writer
        killed between the two renames, or a ``.so`` deleted by hand,
        leaves the ``.c`` alone.  It is listed, counted, pruned and
        removed like any entry."""
        orphan = cache_dir / f"{'ab' * 32}.c"
        orphan.write_text(_dummy_c(0))
        assert cli_main(["native-cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert f"1 entries, {orphan.stat().st_size} bytes total" in out
        assert cli_main(["native-cache", "clean"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert list(cache_dir.iterdir()) == []


class TestDiskCacheRace:
    """Writers publish by renaming a hidden ``.<key>.*`` temp file; the
    store's listing and pruning must neither see nor evict those, nor die
    on a file renamed or pruned between the listing and its ``stat``."""

    @requires_cc
    def test_in_flight_temp_files_are_neither_listed_nor_pruned(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
        in_flight = cache_dir / f".{'cd' * 32}.k3x9q1.so"
        in_flight.write_bytes(b"half-written object")
        now = time.time()
        os.utime(in_flight, (now - 10, now - 10))  # the oldest in FIFO order
        for index in range(2):
            path = compile_kernel(_dummy_c(index), f"{index:02d}" * 32)
            _age((path, path.with_suffix(".c")), now - 5 + index)
        prune_disk()
        assert in_flight.exists()  # another builder's file: not evicted
        assert [entry.name for entry in disk_entries()] == ["01" * 32]

    def test_prune_deletes_temp_files_of_killed_builds(self, cache_dir):
        """A temp file older than the compile timeout belongs to no live
        writer; a fresh one may, and stays."""
        stale = [cache_dir / f".{'ab' * 32}.x1{suffix}" for suffix in (".c", ".so", ".tmp")]
        fresh = cache_dir / f".{'ab' * 32}.y2.so"
        for path in (*stale, fresh):
            path.write_bytes(b"partial")
        old = time.time() - COMPILE_TIMEOUT_S - 60
        for path in stale:
            os.utime(path, (old, old))
        prune_disk()
        assert [path.exists() for path in stale] == [False, False, False]
        assert fresh.exists()

    def test_listing_tolerates_kernels_that_vanish(self, cache_dir, monkeypatch):
        for name in ("aa" * 32, "bb" * 32):
            (cache_dir / f"{name}.so").write_bytes(b"\x7fELF")
        vanished = f"{'aa' * 32}.so"
        original_stat = Path.stat

        def racing_stat(self, *args, **kwargs):
            # A concurrent prune removes the file after the directory
            # listing but before its stat.
            if self.name == vanished:
                raise FileNotFoundError(str(self))
            return original_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        assert [entry.name for entry in disk_entries()] == ["bb" * 32]
        assert prune_disk() == 0
        assert clean_disk() == 1


@requires_cc
class TestNativeCacheCLI:
    def test_ls_and_clean_roundtrip(self, cache_dir, capsys):
        digest = "deadbeef" * 8
        so_path = compile_kernel(_dummy_c(0), digest)
        library = compile_kernel(_dummy_c(1), "local-min-" + "ef" * 32)
        files = (so_path, so_path.with_suffix(".c"), library, library.with_suffix(".c"))
        assert cli_main(["native-cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert digest[:16] in out
        # The summary counts every file's bytes, each source included, and
        # the bound; the library is reported apart from the kernels.
        total = sum(path.stat().st_size for path in files)
        assert f"2 entries, {total} bytes total, 0 temp files (bound {disk_max()})" in out
        kernel_bytes = so_path.stat().st_size + so_path.with_suffix(".c").stat().st_size
        assert f"kernel       1 entries{kernel_bytes:>12d} bytes" in out
        assert "library      1 entries" in out
        assert cli_main(["native-cache", "clean"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert disk_entries() == [] and list(cache_dir.iterdir()) == []
        assert cli_main(["native-cache", "ls"]) == 0
        assert "0 entries, 0 bytes total" in capsys.readouterr().out

    def test_cache_max_override_bounds_the_fifo(self, cache_dir, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
        monkeypatch.setattr(unit_cache, "_PRUNE_EVERY", 1)
        assert disk_max() == 2
        for index in range(4):
            path = compile_kernel(_dummy_c(index), f"{index:02d}" * 32)
            _age((path, path.with_suffix(".c")), index)
        survivors = {entry.name for entry in disk_entries()}
        assert len(survivors) == 2
        assert "00" * 32 not in survivors  # oldest evicted first
        assert cli_main(["native-cache", "ls"]) == 0
        assert "(bound 2)" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "not-a-number")
        assert disk_max() == MAX_ENTRIES  # malformed override falls back


def test_cli_reports_and_cleans_instrumented_entries(cache_dir, capsys):
    instrument(sp.paper_foo, extra_functions=[sp.helper_goo])
    (cache_dir / f".{'aa' * 32}.x.tmp").write_bytes(b"partial")
    info = _disk()
    assert info["entries"] == info["kinds"]["entry"]["entries"] == 2
    assert cli_main(["native-cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert (f"2 entries, {info['bytes']} bytes total, 1 temp files "
            f"(bound {info['max_entries']})") in out
    assert cli_main(["native-cache", "clean"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert list(cache_dir.iterdir()) == []


def test_cli_reports_and_cleans_the_pre_merge_directory(cache_dir, capsys):
    """Caches written before the kinds shared one listing kept entries in
    an ``instrumented/`` subdirectory (variants one level below); ``ls``
    reports it and ``clean`` removes it with the store's entries."""
    legacy = cache_dir / "instrumented"
    (legacy / "variants").mkdir(parents=True)
    (legacy / f"{'ab' * 32}.entry").write_bytes(b"unit")
    (legacy / "variants" / f"{'cd' * 32}.entry").write_bytes(b"variant!")
    instrument(sp.paper_foo)
    entries = _disk()["entries"]
    assert entries > 0
    assert cli_main(["native-cache", "ls"]) == 0
    assert ("instrumented/ (pre-merge layout, unread; clean removes it): 2 files, 12 bytes"
            in capsys.readouterr().out)
    assert cli_main(["native-cache", "clean"]) == 0
    assert (f"removed {entries} entries and the pre-merge instrumented/ (2 files)"
            in capsys.readouterr().out)
    assert list(cache_dir.iterdir()) == []
    assert cli_main(["native-cache", "ls"]) == 0
    assert "instrumented/" not in capsys.readouterr().out


@pytest.mark.parametrize("command", (("native-cache", "ls"), ("ls", "--store", "absent")),
                         ids=("native-cache-ls", "ls"))
def test_listing_into_a_closed_pipe_exits_without_a_traceback(cache_dir, command):
    """``repro native-cache ls | head`` whose reader is gone before the
    listing is written: no traceback, the status of a SIGPIPE death."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NATIVE_CACHE=str(cache_dir))
    child = subprocess.Popen([sys.executable, "-m", "repro", *command], cwd=cache_dir,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()  # the reader closes before the first line arrives
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == EXIT_STDOUT_CLOSED == 141
    assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr, stderr.decode()


def test_function_source_matches_inspect(cache_dir):
    import inspect

    for func in (sp.paper_foo, sp.helper_goo, textwrap.dedent):
        assert unit_cache.function_source(func) == inspect.getsource(func)
    kernel._HELPER_SOURCES.clear()
    clear_compiled_cache()
    for func in (sp.paper_foo, sp.helper_goo, textwrap.dedent):
        assert unit_cache.function_source(func) == inspect.getsource(func)
    assert (_disk()["hits"], _disk()["misses"]) == (3, 0)


def test_cache_modules_import_without_the_emitter():
    """The native package resolves its exports on first use, so the cache
    directory code (which ``unit_cache`` imports at module level) loads no
    emitter, backend or kernel module."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro.instrument.native.cache, repro.instrument.unit_cache\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.instrument.native.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['repro.instrument.native.cache']"]


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.fdlibm", "repro.instrument", "repro.instrument.native"])
def test_package_exports_resolve_on_first_use(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        # ``repro.fdlibm.bits`` is the one export that is a module.
        assert not isinstance(value, types.ModuleType) or name == "bits", name
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        module.missing
