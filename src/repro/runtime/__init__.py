"""The parallel experiment runtime: requests, caching, fan-out, manifests.

This package is how experiments run at scale:

* :class:`RunRequest` / :class:`RunResult` — declarative, picklable
  descriptions of one full-model simulation (``requests``);
* :func:`run_key` and friends — full configuration fingerprints
  (cluster, CKKS params, calibration, planner rounds, code version)
  keying every cached result (``fingerprint``);
* :class:`MemoryCache` / :class:`SqlitePlanStore` — injectable result
  caches, including the persistent cross-process plan store under
  ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hydra/`` (``cache``,
  ``planstore``);
* :func:`execute` / :func:`run_one` — deterministic fan-out of request
  grids over a process pool with in-order merging (``executor``);
* :class:`RunManifest` — per-run provenance: wall time, cache hits,
  worker slots (``manifest``).

Typical use::

    from repro.runtime import execute, paper_grid

    outcome = execute(paper_grid(), jobs=8)
    table = outcome.by_label()          # (system, benchmark) -> result
    print(outcome.manifest.summary())
"""

from repro.runtime.cache import (
    CacheStats,
    MemoryCache,
    RunCache,
    default_cache,
    default_cache_dir,
    set_default_cache,
)
from repro.runtime.executor import ExecutionResult, execute, run_one
from repro.runtime.fingerprint import (
    code_fingerprint,
    config_fingerprint,
    run_key,
)
from repro.runtime.manifest import RunManifest, RunRecord
from repro.runtime.planstore import SqlitePlanStore
from repro.runtime.requests import RunRequest, RunResult, paper_grid

__all__ = [
    "CacheStats",
    "MemoryCache",
    "RunCache",
    "SqlitePlanStore",
    "default_cache",
    "default_cache_dir",
    "set_default_cache",
    "ExecutionResult",
    "execute",
    "run_one",
    "code_fingerprint",
    "config_fingerprint",
    "run_key",
    "RunManifest",
    "RunRecord",
    "RunRequest",
    "RunResult",
    "paper_grid",
]
