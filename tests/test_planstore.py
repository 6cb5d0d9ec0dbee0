"""The sqlite plan store: round-trip fidelity, one store shared by
``repro bench`` / ``repro run``, clean errors on an unreadable database,
and cross-process write exclusion and compile-once semantics under
concurrent servers."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.hw import hydra_cluster
from repro.models import resnet18
from repro.runtime import (
    MemoryCache,
    RunRequest,
    SqlitePlanStore,
    default_cache,
    default_cache_dir,
    set_default_cache,
)
from repro.sched.planner import Planner

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _small_result():
    return Planner(hydra_cluster(1, 2)).run_model(resnet18())


@pytest.fixture(scope="module")
def result():
    return _small_result()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


class TestSqlitePlanStore:
    def test_roundtrip_is_exact(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("k", result)
        # A second instance must re-read from sqlite, not memory.
        loaded = SqlitePlanStore(tmp_path).get("k")
        assert loaded is not result
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
        # Full structure survives: per-node stats, energy, components.
        assert loaded.total_seconds == result.total_seconds
        assert loaded.sim.num_nodes == result.sim.num_nodes
        assert loaded.energy.total == result.energy.total
        assert (loaded.sim.components_total.to_dict()
                == result.sim.components_total.to_dict())

    def test_miss_then_hit_stats(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        assert store.get("k") is None
        store.put("k", result)
        assert store.get("k") is not None
        assert (store.stats.misses, store.stats.hits,
                store.stats.puts) == (1, 1, 1)

    def test_memory_layer_serves_same_object(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("k", result)
        assert store.get("k") is store.get("k")

    def test_overwrite_replaces(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        store.put("k", result)
        assert len(store) == 1

    def test_clear(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("a", result)
        store.put("b", result)
        assert len(store) == 2 and "a" in store
        store.clear()
        assert len(store) == 0 and "a" not in store

    def test_corrupt_entry_is_a_stale_miss(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        with store._connect() as conn:
            conn.execute(
                "UPDATE plans SET payload = '{not json' WHERE key = 'k'")
        assert store.get("k") is None
        assert store.stats.stale == 1

    def test_unknown_format_is_a_stale_miss(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        with store._connect() as conn:
            conn.execute("UPDATE plans SET format = 999 WHERE key = 'k'")
        assert store.get("k") is None
        assert store.stats.stale == 1

    def test_lock_is_reentrant_across_keys(self, tmp_path):
        store = SqlitePlanStore(tmp_path)
        with store.lock("a"):
            with store.lock("b"):
                pass  # distinct keys never deadlock


    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        assert SqlitePlanStore().directory == tmp_path / "env"

    def test_default_cache_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        set_default_cache(None)
        try:
            assert isinstance(default_cache(), SqlitePlanStore)
        finally:
            set_default_cache(None)
            monkeypatch.delenv("REPRO_CACHE_DIR")
            assert isinstance(default_cache(), MemoryCache)

    def test_unreadable_database_is_a_value_error(self, tmp_path):
        (tmp_path / "plans.sqlite").write_text("not a database")
        with pytest.raises(ValueError, match="plans.sqlite"):
            SqlitePlanStore(tmp_path)


class _Lines(list):
    def __call__(self, text=""):
        self.append(str(text))


class TestCliSharesTheStore:
    def test_bench_results_are_hits_for_run(self, tmp_path):
        from repro.core import HydraSystem
        from repro.core.cli import main

        SqlitePlanStore(tmp_path)  # the directory already holds a store
        out = _Lines()
        assert main(["bench", "-s", "Hydra-S", "-b", "resnet18",
                     "--no-energy", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        key = RunRequest(benchmark="resnet18", system="Hydra-S",
                         with_energy=False).key()
        store = SqlitePlanStore(tmp_path)
        assert key in store
        system = HydraSystem.named("Hydra-S", cache=store)
        system.run("resnet18", with_energy=False)
        assert (store.stats.hits, store.stats.misses) == (1, 0)

    def test_unreadable_store_is_one_error_line(self, tmp_path,
                                                 monkeypatch):
        from repro.core.cli import main

        db = tmp_path / "plans.sqlite"
        db.write_text("not a database")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_default_cache(None)
        try:
            for argv in (["run", "-s", "Hydra-S", "-b", "resnet18"],
                         ["bench", "-s", "Hydra-S", "-b", "resnet18",
                          "--cache-dir", str(tmp_path)]):
                out = _Lines()
                assert main(argv, out=out) == 2
                assert len(out) == 1
                assert out[0].startswith("error: ") and str(db) in out[0]
        finally:
            set_default_cache(None)


# Two processes hammer the same key (plus private keys) with raw puts;
# the database must stay consistent and every entry readable.
_WRITER_SCRIPT = """
import json, os, sys, time
from repro.runtime import SqlitePlanStore
from repro.sched.planner import ModelRunResult

cache_dir, result_json, tag, go_file = sys.argv[1:5]
result = ModelRunResult.from_dict(json.load(open(result_json)))
store = SqlitePlanStore(cache_dir, memory=False)
while not os.path.exists(go_file):
    time.sleep(0.005)
for i in range(30):
    store.put("shared-key", result)
    store.put(f"{tag}-{i}", result)
print("done")
"""

# Two processes race one fingerprint key through the executor; the
# per-key lock must let exactly one of them simulate.
_RACER_SCRIPT = """
import json, os, sys, time
from repro.runtime import RunRequest, SqlitePlanStore, execute

cache_dir, go_file, out_path = sys.argv[1:4]
store = SqlitePlanStore(cache_dir)
while not os.path.exists(go_file):
    time.sleep(0.005)
request = RunRequest(benchmark="resnet18", system="Hydra-S",
                     with_energy=False)
outcome = execute([request], jobs=1, cache=store)
with open(out_path, "w") as fh:
    json.dump({
        "hits": outcome.manifest.hits,
        "misses": outcome.manifest.misses,
        "total_seconds": outcome[0].result.total_seconds,
    }, fh)
"""


class TestConcurrentWriters:
    def _spawn(self, script, args):
        return subprocess.Popen(
            [sys.executable, "-c", script] + [str(a) for a in args],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_two_processes_racing_raw_puts(self, tmp_path, result):
        cache_dir = tmp_path / "store"
        result_json = tmp_path / "result.json"
        result_json.write_text(json.dumps(result.to_dict()),
                               encoding="utf-8")
        go_file = tmp_path / "go"
        procs = [
            self._spawn(_WRITER_SCRIPT,
                        [cache_dir, result_json, tag, go_file])
            for tag in ("a", "b")
        ]
        time.sleep(0.3)  # let both reach the start line
        go_file.touch()
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        store = SqlitePlanStore(cache_dir, memory=False)
        # 1 shared + 30 per process; nothing lost, nothing corrupt.
        assert len(store) == 61
        assert store.get("shared-key").total_seconds == result.total_seconds
        assert store.stats.stale == 0

    def test_two_processes_compile_each_plan_once(self, tmp_path):
        cache_dir = tmp_path / "store"
        go_file = tmp_path / "go"
        outs = [tmp_path / "out-a.json", tmp_path / "out-b.json"]
        procs = [self._spawn(_RACER_SCRIPT, [cache_dir, go_file, out])
                 for out in outs]
        time.sleep(0.3)
        go_file.touch()
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        reports = [json.loads(out.read_text()) for out in outs]
        # Exactly one process simulated; the other found the stored
        # plan (either as an upfront hit or a post-lock late hit).
        assert sum(r["misses"] for r in reports) == 1
        assert sum(r["hits"] for r in reports) == 1
        assert reports[0]["total_seconds"] == reports[1]["total_seconds"]
