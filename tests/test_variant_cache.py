"""Tests of the disk layer under the per-mask specialization cache.

A specialized variant (one unit compiled against one saturation mask) is
kept in ``instrumented/variants`` of the content-keyed disk cache, so a
fresh process with a warm directory runs a ``penalty-specialized`` search
without specializing or compiling any variant, and gets the same result.
A truncated or corrupt entry is a miss and is overwritten; changing any
keyed module or the pass's tree ceilings misses; an unwritable directory
keeps the cold path; variants have their own bound and never evict a unit
entry; ``repro native-cache ls|clean`` report and remove them.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.instrument import ast_pass, unit_cache
from repro.instrument.native import kernel
from repro.instrument.program import clear_compiled_cache, compiled_cache_info, instrument
from tests import sample_programs as sp

SRC = Path(__file__).resolve().parents[1] / "src"

#: Masks of ``nested_boolean`` (2 conditionals) that specialize differently.
MASKS = (0b0000, 0b0001, 0b0110, 0b1011, 0b1111)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory and cold in-memory caches; yields the
    variant entry directory."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    _forget_in_memory()
    yield tmp_path / "instrumented" / "variants"
    _forget_in_memory()


def _forget_in_memory() -> None:
    clear_compiled_cache()
    kernel._HELPER_SOURCES.clear()


def _disk() -> tuple:
    info = compiled_cache_info()["specialized"]
    return info["disk_hits"], info["disk_misses"], info["disk_writes"]


def _values(program, mask) -> list:
    points = ((-3.0, 1.0), (0.0, 4.0), (2.5, 2.5), (7.0, -1.0))
    return [program.run_specialized(point, mask).hex() for point in points]


_FRESH_PROCESS = """
import json
from repro.core.config import CoverMeConfig
from repro.engine import SearchEngine
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument import specialize
from repro.instrument.program import compiled_cache_info

built = []
original = specialize.specialize_source
def counting(source, function_name=None, *args, **kwargs):
    built.append(function_name)
    return original(source, function_name, *args, **kwargs)
specialize.specialize_source = counting

results = []
for key in ("s_tanh.c:tanh(double)", "e_scalb.c:ieee754_scalb(double,double)"):
    case = next(case for case in BENCHMARKS if case.key == key)
    config = CoverMeConfig(n_start=16, n_iter=3, seed=42, eval_profile="penalty-specialized")
    result = SearchEngine(instrument_case(case), config).run()
    results.append([
        [x.hex() for x in point] for point in result.inputs
    ] + [sorted(map(repr, result.covered)), sorted(map(repr, result.saturated)),
         result.evaluations])
print(json.dumps({"built": built, "results": results, **compiled_cache_info()["specialized"]}))
"""


def _fresh_process(cache: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_NATIVE_CACHE": str(cache)}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_process_with_warm_cache_compiles_no_variant(tmp_path):
    first = _fresh_process(tmp_path)
    assert first["built"]
    assert first["disk_misses"] == first["disk_writes"] == first["misses"] == len(first["built"])
    second = _fresh_process(tmp_path)
    assert second["built"] == []
    assert (second["disk_misses"], second["disk_writes"]) == (0, 0)
    # Every lookup that missed in memory was served from disk.
    assert second["disk_hits"] == second["misses"] == first["misses"]
    assert second["results"] == first["results"]


def test_warm_variants_are_bit_identical(cache_dir):
    program = instrument(sp.nested_boolean)
    cold = {mask: _values(program, mask) for mask in MASKS}
    assert _disk() == (0, len(MASKS), len(MASKS))
    assert len(list(cache_dir.iterdir())) == len(MASKS)
    _forget_in_memory()
    program = instrument(sp.nested_boolean)
    assert {mask: _values(program, mask) for mask in MASKS} == cold
    assert _disk() == (len(MASKS), 0, 0)


class TestRobustness:
    def _one_entry(self, cache_dir) -> tuple:
        program = instrument(sp.nested_boolean)
        values = _values(program, 0b0110)
        (entry,) = cache_dir.iterdir()
        _forget_in_memory()
        return entry, entry.read_bytes(), values

    def test_truncated_entry_is_a_miss_and_overwritten(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        entry.write_bytes(original[: len(original) // 2])
        assert _values(instrument(sp.nested_boolean), 0b0110) == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_corrupt_entry_is_a_miss_and_overwritten(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        blob = bytearray(original)
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert _values(instrument(sp.nested_boolean), 0b0110) == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_entry_of_the_wrong_shape_is_a_miss(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        payload = marshal.dumps(("not code", 2), 2)
        entry.write_bytes(hashlib.sha256(payload).digest() + payload)
        assert _values(instrument(sp.nested_boolean), 0b0110) == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_unwritable_cache_keeps_the_cold_path(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(blocker))
        _forget_in_memory()
        try:
            values = _values(instrument(sp.nested_boolean), 0b0110)
            assert _disk() == (0, 1, 0)
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "writable"))
            _forget_in_memory()
            assert _values(instrument(sp.nested_boolean), 0b0110) == values
            assert _disk() == (0, 1, 1)
        finally:
            _forget_in_memory()

    def test_unwritable_variant_directory_keeps_units_cached(self, cache_dir):
        cache_dir.parent.mkdir(parents=True)
        cache_dir.write_text("")  # a file where the variant directory goes
        program = instrument(sp.nested_boolean)
        values = _values(program, 0b0110)
        assert _disk() == (0, 1, 0)
        assert compiled_cache_info()["instrumented"]["writes"] == 1
        _forget_in_memory()
        assert _values(instrument(sp.nested_boolean), 0b0110) == values


class TestKey:
    def _warm(self) -> None:
        instrument(sp.nested_boolean).specialize(0b0110)
        _forget_in_memory()
        instrument(sp.nested_boolean).specialize(0b0110)
        assert _disk() == (1, 0, 0)
        _forget_in_memory()

    @pytest.fixture
    def copied_modules(self, tmp_path, monkeypatch):
        """A copy of the instrumenter's and core's modules that the digests
        read instead of the package's own files."""
        root = tmp_path / "repro"
        for package in ("instrument", "core"):
            shutil.copytree(SRC / "repro" / package, root / package,
                            ignore=shutil.ignore_patterns("__pycache__", "native"))
        unit_cache._modules_digest.cache_clear()
        monkeypatch.setattr(unit_cache, "_HERE", root / "instrument")
        yield root / "instrument"
        unit_cache._modules_digest.cache_clear()

    @pytest.mark.parametrize("name", unit_cache.VARIANT_TOOLCHAIN)
    def test_editing_a_keyed_module_misses(self, cache_dir, copied_modules, name):
        self._warm()
        with open(copied_modules / name, "ab") as handle:
            handle.write(b"\n# edited\n")
        unit_cache._modules_digest.cache_clear()
        instrument(sp.nested_boolean).specialize(0b0110)
        assert _disk() == (0, 1, 1)

    def test_editing_an_unkeyed_module_hits(self, cache_dir, copied_modules):
        self._warm()
        with open(copied_modules / "cfg.py", "ab") as handle:
            handle.write(b"\n# edited\n")
        unit_cache._modules_digest.cache_clear()
        instrument(sp.nested_boolean).specialize(0b0110)
        assert _disk() == (1, 0, 0)

    def test_tree_ceilings_are_part_of_the_key(self, cache_dir, monkeypatch):
        self._warm()
        monkeypatch.setattr(ast_pass, "MAX_TREE_TOKENS", 2)
        degraded = instrument(sp.nested_boolean)
        degraded.specialize(0b0110)
        assert _disk() == (0, 1, 1)
        assert any(cond.form == "truth" for cond in degraded.conditionals)


def test_variant_bound_evicts_no_unit_entry(cache_dir, monkeypatch):
    units = cache_dir.parent
    monkeypatch.setattr(unit_cache, "VARIANT_ENTRIES_MAX", 2)
    monkeypatch.setattr(unit_cache, "_PRUNE_EVERY", 1)
    program = instrument(sp.paper_foo, extra_functions=[sp.helper_goo])
    unit_entries = sorted(path.name for path in units.glob("*.entry"))
    assert len(unit_entries) == 2
    for path in units.glob("*.entry"):
        os.utime(path, (0, 0))  # older than every variant
    for mask in range(6):
        program.specialize(mask)
    assert len(list(cache_dir.glob("*.entry"))) == 2
    assert sorted(path.name for path in units.glob("*.entry")) == unit_entries
    assert unit_cache.prune_entries() == 0


def test_cli_reports_and_cleans_variant_entries(cache_dir, capsys):
    program = instrument(sp.nested_boolean)
    for mask in MASKS[:2]:
        program.specialize(mask)
    info = unit_cache.instrumented_cache_info(unit_cache.VARIANTS)
    assert info["entries"] == 2
    assert cli_main(["native-cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert (
        f"specialized variants {cache_dir}: 2 entries, {info['bytes']} bytes total "
        f"(bound {unit_cache.VARIANT_ENTRIES_MAX})"
    ) in out
    assert cli_main(["native-cache", "clean"]) == 0
    assert "removed 3 entries" in capsys.readouterr().out  # one unit, two variants
    assert not cache_dir.exists()
    assert list(cache_dir.parent.iterdir()) == []
