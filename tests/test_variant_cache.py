"""Tests of the disk layer under the specialization cache.

A program's specialized variant (each unit compiled in its mask-generic
form) is kept in the content-keyed disk cache next to the instrumented
units, one entry per unit, so a fresh process with a warm directory runs a
``penalty-specialized`` search without specializing or compiling any unit,
and gets the same result.  A truncated or corrupt entry is a miss and is
overwritten; changing any keyed module or the pass's tree ceilings misses;
an unwritable directory keeps the cold path; ``repro native-cache ls|clean``
count and remove the entries with the units.
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

#: Masks of ``nested_boolean`` (2 conditionals) that take different paths
#: through its probe sites.
MASKS = (0b0000, 0b0001, 0b0110, 0b1011, 0b1111)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory and cold in-memory caches; yields the
    instrumented entry directory."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    _forget_in_memory()
    yield tmp_path / "instrumented"
    _forget_in_memory()


def _forget_in_memory() -> None:
    clear_compiled_cache()
    kernel._HELPER_SOURCES.clear()


def _disk() -> tuple:
    info = compiled_cache_info()["instrumented"]
    return info["hits"], info["misses"], info["writes"]


def _specialize_disk(program, mask: int = 0b0110) -> tuple:
    """The disk hits, misses and writes of ``program``'s variant build
    alone (the units' own lookups are counted before it)."""
    unit_cache.reset_instrumented_stats()
    program.specialize(mask)
    return _disk()


def _variant_entries(program, directory: Path) -> list:
    """The entry file of each unit's variant."""
    return [
        directory / (unit_cache.variant_key(
            hashlib.sha256(source.encode("utf-8")).hexdigest(), name, label,
            ast_pass.MAX_TREE_LEAVES, ast_pass.MAX_TREE_TOKENS,
        ) + ".entry")
        for source, name, label in program.units
    ]


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
programs = []
for key in ("s_tanh.c:tanh(double)", "e_scalb.c:ieee754_scalb(double,double)"):
    case = next(case for case in BENCHMARKS if case.key == key)
    config = CoverMeConfig(n_start=16, n_iter=3, seed=42, eval_profile="penalty-specialized")
    program = instrument_case(case)
    programs.append(program)
    result = SearchEngine(program, config).run()
    results.append([
        [x.hex() for x in point] for point in result.inputs
    ] + [sorted(map(repr, result.covered)), sorted(map(repr, result.saturated)),
         result.evaluations])
info = compiled_cache_info()
print(json.dumps({
    "built": built, "results": results, "units": sum(len(p.units) for p in programs),
    "builds": [p.specialization_builds for p in programs],
    "specialized": info["specialized"], **info["instrumented"],
}))
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
    # One build per program, one specialization per unit.
    assert first["builds"] == [1, 1]
    assert len(first["built"]) == first["specialized"]["misses"] == first["units"]
    # Every unit and variant entry missed and was written once.
    assert first["hits"] == 0 and first["misses"] == first["writes"] == 2 * first["units"]
    second = _fresh_process(tmp_path)
    assert second["built"] == []
    assert (second["misses"], second["writes"]) == (0, 0)
    # Every entry the cold process wrote was served from disk.
    assert second["hits"] == first["writes"]
    assert second["results"] == first["results"]


def test_warm_variants_are_bit_identical(cache_dir):
    program = instrument(sp.nested_boolean)
    unit_cache.reset_instrumented_stats()
    cold = {mask: _values(program, mask) for mask in MASKS}
    assert _disk() == (0, 1, 1)  # one variant entry serves every mask
    (entry,) = _variant_entries(program, cache_dir)
    assert entry.is_file()
    _forget_in_memory()
    program = instrument(sp.nested_boolean)
    unit_cache.reset_instrumented_stats()
    assert {mask: _values(program, mask) for mask in MASKS} == cold
    assert _disk() == (1, 0, 0)


def test_one_variant_entry_per_unit(cache_dir):
    program = instrument(sp.paper_foo, extra_functions=[sp.helper_goo])
    units = sorted(path.name for path in cache_dir.glob("*.entry"))
    assert len(units) == 2
    for mask in range(6):
        program.specialize(mask)
    variants = _variant_entries(program, cache_dir)
    assert all(path.is_file() for path in variants)
    assert sorted(path.name for path in cache_dir.glob("*.entry")) == sorted(
        units + [path.name for path in variants]
    )


class TestRobustness:
    def _one_entry(self, cache_dir) -> tuple:
        program = instrument(sp.nested_boolean)
        values = _values(program, 0b0110)
        (entry,) = _variant_entries(program, cache_dir)
        _forget_in_memory()
        return entry, entry.read_bytes(), values

    def _rerun(self) -> list:
        program = instrument(sp.nested_boolean)
        unit_cache.reset_instrumented_stats()
        return _values(program, 0b0110)

    def test_truncated_entry_is_a_miss_and_overwritten(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        entry.write_bytes(original[: len(original) // 2])
        assert self._rerun() == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_corrupt_entry_is_a_miss_and_overwritten(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        blob = bytearray(original)
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert self._rerun() == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_entry_of_the_wrong_shape_is_a_miss(self, cache_dir):
        entry, original, values = self._one_entry(cache_dir)
        payload = marshal.dumps(("not code", 2), 2)
        entry.write_bytes(hashlib.sha256(payload).digest() + payload)
        assert self._rerun() == values
        assert _disk() == (0, 1, 1)
        assert entry.read_bytes() == original

    def test_unwritable_cache_keeps_the_cold_path(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(blocker))
        _forget_in_memory()
        try:
            values = self._rerun()
            assert _disk() == (0, 1, 0)
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "writable"))
            _forget_in_memory()
            assert self._rerun() == values
            assert _disk() == (0, 1, 1)
        finally:
            _forget_in_memory()

    def test_unwritable_variant_entry_keeps_units_cached(self, cache_dir):
        program = instrument(sp.nested_boolean)
        (entry,) = _variant_entries(program, cache_dir)
        entry.mkdir()  # a directory where the variant entry goes
        assert _specialize_disk(program) == (0, 1, 0)  # missed, not written
        values = _values(program, 0b0110)
        _forget_in_memory()
        program = instrument(sp.nested_boolean)
        assert _disk() == (1, 0, 0)  # the unit is still served from disk
        assert _values(program, 0b0110) == values
        assert _disk() == (1, 1, 0)


class TestKey:
    def _warm(self) -> None:
        instrument(sp.nested_boolean).specialize(0b0110)
        _forget_in_memory()
        assert _specialize_disk(instrument(sp.nested_boolean)) == (1, 0, 0)
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
        assert _specialize_disk(instrument(sp.nested_boolean)) == (0, 1, 1)

    def test_editing_an_unkeyed_module_hits(self, cache_dir, copied_modules):
        self._warm()
        with open(copied_modules / "cfg.py", "ab") as handle:
            handle.write(b"\n# edited\n")
        unit_cache._modules_digest.cache_clear()
        assert _specialize_disk(instrument(sp.nested_boolean)) == (1, 0, 0)

    def test_tree_ceilings_are_part_of_the_key(self, cache_dir, monkeypatch):
        self._warm()
        monkeypatch.setattr(ast_pass, "MAX_TREE_TOKENS", 2)
        degraded = instrument(sp.nested_boolean)
        assert _specialize_disk(degraded) == (0, 1, 1)
        assert any(cond.form == "truth" for cond in degraded.conditionals)


def test_cli_reports_and_cleans_variant_entries(cache_dir, capsys):
    program = instrument(sp.nested_boolean)
    for mask in MASKS[:2]:
        program.specialize(mask)
    info = unit_cache.instrumented_cache_info()
    assert info["entries"] == 2  # the unit and its variant
    assert cli_main(["native-cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert (
        f"instrumented cache {cache_dir}: 2 entries, {info['bytes']} bytes total "
        f"(bound {unit_cache.DISK_ENTRIES_MAX})"
    ) in out
    assert "variants" not in out
    assert cli_main(["native-cache", "clean"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert list(cache_dir.iterdir()) == []
