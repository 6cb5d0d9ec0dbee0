"""Result caches: memory-cache stats, the on-disk cache behind
``$REPRO_CACHE_DIR``, and invalidation and cross-process persistence
through the sqlite plan store."""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hw import hydra_cluster
from repro.models import resnet18
from repro.runtime import (
    MemoryCache,
    RunRequest,
    SqlitePlanStore,
    default_cache_dir,
)
from repro.sched.planner import Planner

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _small_result():
    return Planner(hydra_cluster(1, 2)).run_model(resnet18())


@pytest.fixture(scope="module")
def result():
    return _small_result()


class TestMemoryCache:
    def test_miss_then_hit_stats(self, result):
        cache = MemoryCache()
        assert cache.get("k") is None
        cache.put("k", result)
        assert cache.get("k") is result
        assert (cache.stats.misses, cache.stats.hits,
                cache.stats.puts) == (1, 1, 1)
        assert cache.stats.hit_rate == 0.5
        assert "k" in cache and len(cache) == 1

    def test_clear(self, result):
        cache = MemoryCache()
        cache.put("k", result)
        cache.clear()
        assert "k" not in cache and len(cache) == 0


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point ``$REPRO_CACHE_DIR`` at a fresh directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _write_row(directory, key, fmt, payload):
    """Write one raw row the way another process would."""
    conn = sqlite3.connect(str(directory / "plans.sqlite"))
    try:
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO plans (key, format, payload) "
                "VALUES (?, ?, ?)", (key, fmt, payload))
    finally:
        conn.close()


class TestDiskCache:
    """The on-disk cache the CLI opens from ``$REPRO_CACHE_DIR``."""

    def test_roundtrip_is_exact(self, cache_dir, result):
        SqlitePlanStore().put("k", result)
        # A second instance must re-read from disk, not memory.
        loaded = SqlitePlanStore().get("k")
        assert default_cache_dir() == cache_dir
        assert loaded is not result
        assert loaded.total_seconds == result.total_seconds
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
        assert loaded.sim.num_nodes == result.sim.num_nodes
        assert loaded.energy.total == result.energy.total

    def test_memory_layer_serves_same_object(self, cache_dir, result):
        cache = SqlitePlanStore()
        cache.put("k", result)
        assert cache.get("k") is cache.get("k")

    def test_corrupt_entry_is_a_miss(self, cache_dir, result):
        cache = SqlitePlanStore(memory=False)
        cache.put("k", result)
        _write_row(cache_dir, "k", 1, "{not json")
        assert cache.get("k") is None

    def test_unknown_format_is_a_miss(self, cache_dir):
        cache = SqlitePlanStore(memory=False)
        _write_row(cache_dir, "k", 999, json.dumps({"result": {}}))
        assert "k" in cache
        assert cache.get("k") is None

    def test_clear_removes_entries(self, cache_dir, result):
        cache = SqlitePlanStore()
        cache.put("a", result)
        cache.put("b", result)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert len(SqlitePlanStore()) == 0


_SUBPROCESS_SCRIPT = """
import json
from repro.runtime import RunRequest, SqlitePlanStore, execute

request = RunRequest(benchmark="resnet18", system="Hydra-S",
                     with_energy=False)
outcome = execute([request], jobs=1, cache=SqlitePlanStore())
manifest = outcome.manifest
print(json.dumps({
    "hits": manifest.hits,
    "misses": manifest.misses,
    "total_seconds": outcome[0].result.total_seconds,
}))
"""


class TestCrossProcessPersistence:
    def _invoke(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_second_invocation_is_all_hits(self, tmp_path):
        first = self._invoke(tmp_path)
        assert (first["hits"], first["misses"]) == (0, 1)
        second = self._invoke(tmp_path)
        assert (second["hits"], second["misses"]) == (1, 0)
        # Cached numbers are identical, not approximately equal.
        assert second["total_seconds"] == first["total_seconds"]


class TestInvalidationThroughRequests:
    def test_changed_calibration_misses(self, tmp_path):
        from dataclasses import replace

        from repro.cost.calibration import DEFAULT_CALIBRATION

        cache = SqlitePlanStore(tmp_path)
        base = RunRequest(benchmark="resnet18", system="Hydra-S",
                          with_energy=False)
        scales = dict(DEFAULT_CALIBRATION.work_scale)
        scales["resnet18"] *= 3.0
        changed = RunRequest(
            benchmark="resnet18", system="Hydra-S", with_energy=False,
            calibration=replace(DEFAULT_CALIBRATION, work_scale=scales),
        )
        from repro.runtime import run_one

        r_base = run_one(base, cache=cache)
        assert not r_base.cache_hit
        r_changed = run_one(changed, cache=cache)
        assert not r_changed.cache_hit  # calibration change → miss
        assert (r_changed.result.total_seconds
                > r_base.result.total_seconds)
        assert run_one(base, cache=cache).cache_hit
        assert run_one(changed, cache=cache).cache_hit
