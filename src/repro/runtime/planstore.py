"""Cross-process plan store: sqlite + per-key file locks.

:class:`SqlitePlanStore` is the one persistent run-result cache:
``repro run``, ``repro bench`` and ``repro serve`` all read and write
it.  Keys are configuration fingerprints
(:mod:`repro.runtime.fingerprint`) — entries never go stale, any config
or code change lands on a new key — and the storage contract is what a
*serving* deployment needs:

* **Atomic concurrent writes.** All entries live in one sqlite
  database (``plans.sqlite`` under the cache directory); sqlite's
  locking makes concurrent ``put`` calls from independent server
  processes safe.
* **Compile-once across processes.** :meth:`lock` hands out a per-key
  ``flock`` (under ``locks/`` next to the database), so two servers
  warming the same scenario serialize on the key, and the loser of the
  race finds the winner's plan instead of re-planning it.  The lock is
  advisory and *separate* from sqlite's internal locking: it spans the
  whole check → simulate → store critical section, which can take
  seconds — far too long to hold a database write lock.

Each row holds ``{"format": 1, "key": ..., "result":
ModelRunResult.to_dict()}``, serialized with dict insertion order
preserved so derived float quantities round-trip bit-exact.  A
database file sqlite cannot open is reported as a :class:`ValueError`
naming the file, never silently replaced.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.runtime.cache import RunCache, default_cache_dir
from repro.sched.planner import ModelRunResult

__all__ = ["SqlitePlanStore"]

#: Payload format; bump when the serialized layout changes.
_FORMAT = 1

#: Database file name under the cache directory.
_DB_NAME = "plans.sqlite"

#: How long a reader/writer waits on sqlite's internal lock (seconds).
_BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    key     TEXT PRIMARY KEY,
    format  INTEGER NOT NULL,
    payload TEXT NOT NULL
);
"""


class SqlitePlanStore(RunCache):
    """Persistent plan cache shared safely between processes.

    Parameters
    ----------
    directory:
        Cache root; defaults to ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-hydra``.  Created eagerly (the database and
        lock directory must exist before two processes can coordinate).
    memory:
        Keep a read-through in-memory layer so repeated lookups in one
        process parse each payload at most once.
    """

    def __init__(self, directory=None, memory=True):
        super().__init__()
        self.directory = (Path(directory) if directory
                          else default_cache_dir())
        self.directory.mkdir(parents=True, exist_ok=True)
        self._db_path = self.directory / _DB_NAME
        self._lock_dir = self.directory / "locks"
        self._memory = {} if memory else None
        try:
            with self._connect() as conn:
                conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            raise ValueError(
                f"plan store {self._db_path} is unreadable: {exc}"
            ) from exc

    # -- connection -----------------------------------------------------

    @contextlib.contextmanager
    def _connect(self):
        """One transaction on a fresh connection (commit + close).

        Short-lived connections sidestep every cross-process and
        fork-safety hazard of a cached handle; plan traffic is a few
        lookups per scenario, nowhere near where connection setup
        costs matter.
        """
        conn = sqlite3.connect(str(self._db_path), timeout=_BUSY_TIMEOUT)
        try:
            conn.execute(
                f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT * 1000)}")
            with conn:
                yield conn
        finally:
            conn.close()

    # -- RunCache protocol ----------------------------------------------

    def _load(self, key):
        if self._memory is not None and key in self._memory:
            return self._memory[key]
        with self._connect() as conn:
            row = conn.execute(
                "SELECT format, payload FROM plans WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        fmt, blob = row
        try:
            if fmt != _FORMAT:
                raise ValueError(f"unsupported plan format {fmt!r}")
            payload = json.loads(blob)
            result = ModelRunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            # Corrupt or incompatible entry — count it stale and treat
            # as a miss; a fresh run will overwrite it.
            self.stats.stale += 1
            return None
        if self._memory is not None:
            self._memory[key] = result
        return result

    def _store(self, key, result):
        payload = {"format": _FORMAT, "key": key,
                   "result": result.to_dict()}
        # json.dumps preserves dict insertion order (see module doc).
        blob = json.dumps(payload)
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO plans (key, format, payload) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "format = excluded.format, payload = excluded.payload",
                (key, _FORMAT, blob),
            )
        if self._memory is not None:
            self._memory[key] = result

    def clear(self):
        if self._memory is not None:
            self._memory.clear()
        with self._connect() as conn:
            conn.execute("DELETE FROM plans")

    def __contains__(self, key):
        if self._memory is not None and key in self._memory:
            return True
        with self._connect() as conn:
            row = conn.execute(
                "SELECT 1 FROM plans WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def __len__(self):
        with self._connect() as conn:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM plans"
            ).fetchone()
        return count

    # -- cross-process exclusion ----------------------------------------

    @contextlib.contextmanager
    def lock(self, key):
        """Exclusive advisory lock for compiling ``key``.

        Blocks until no other process holds the key; the executor wraps
        its check → simulate → store sequence in this, so each plan is
        compiled exactly once however many servers race on it.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self._lock_dir.mkdir(parents=True, exist_ok=True)
        path = self._lock_dir / f"{key}.lock"
        fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
