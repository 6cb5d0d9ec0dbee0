"""Shared pieces of the end-to-end benchmark: statistics, seeds, tracing.

Nothing here imports :mod:`repro`; the workload modules do, so that the
time to import the program lands inside each workload's measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager

__all__ = [
    "OpClock",
    "Tracer",
    "canonical_digest",
    "geomean",
    "part_rng",
    "tail_percentile",
]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(values):
    """Highest whole percentile with at least 10 samples beyond it.

    Returns ``(percentile, value, beyond)`` using nearest-rank, or None
    when fewer than 11 samples exist.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    best = None
    for pct in range(50, 100):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank < 10:
            break
        best = (pct, ordered[rank - 1], n - rank)
    return best


def part_rng(seed, part):
    """A ``random.Random`` for one workload part, derived from the seed."""
    return random.Random(f"{int(seed)}:{part}")


def canonical_digest(document):
    """sha256 of a JSON document with sorted keys and no whitespace."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class OpClock:
    """Times one measured operation; under a tracer, also scopes its spans.

    ::

        clock = OpClock(tracer)          # tracer may be None
        with clock.measure("infer"):
            ...                          # the measured region
        clock.elapsed                    # seconds of the last region
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0

    @contextmanager
    def measure(self, part):
        tracer = self.tracer
        if tracer is not None:
            tracer.scope = part
            tracer.open("op")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
                tracer.scope = None


class _Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans recorded by wrapping public attributes from outside.

    ``patch(owner, attr, name)`` replaces ``owner.attr`` with a wrapper
    that opens a span ``name`` around every call; leaving the ``with``
    block restores every patched attribute.  Spans nest on one stack
    (the traced workloads run on one thread), so each span's *self*
    time is its duration minus the time its child spans cover.  Only
    per-name aggregates are kept, so memory does not grow with the
    number of calls.  Aggregates are kept per ``scope``, the workload
    part whose operation is running (see :class:`OpClock`); spans opened
    while ``scope`` is None, outside any measured operation, are not
    recorded.  A missing attribute is listed in ``missing`` instead of
    failing, so the benchmark keeps running when a later version of the
    program renames an internal.
    """

    def __init__(self):
        self.scope = None
        self.stats = {}  # scope -> {name: _Agg}
        self.missing = []
        self._patched = []
        self._stack = []  # [name, start, child_time]

    # -- spans ----------------------------------------------------------

    def open(self, name):
        if self.scope is None:
            name = None
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        if name is None:
            return
        duration = time.perf_counter() - start
        table = self.stats.setdefault(self.scope, {})
        agg = table.get(name)
        if agg is None:
            agg = table[name] = _Agg()
        agg.calls += 1
        agg.total += duration
        agg.self_time += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr, name):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        own = attr in vars(owner)
        raw = vars(owner).get(attr)
        target = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                return target(*args, **kwargs)
            finally:
                tracer.close()

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, own, raw))

    def patch_iterator(self, module, attr, name):
        """Wrap a function returning an iterator; time every ``next``."""
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        raw = getattr(module, attr)
        tracer = self

        class _Timed:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                tracer.open(name)
                try:
                    return next(self._inner)
                finally:
                    tracer.close()

        def wrapper(*args, **kwargs):
            return _Timed(raw(*args, **kwargs))

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, True, raw))

    def restore(self):
        while self._patched:
            owner, attr, own, raw = self._patched.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results --------------------------------------------------------

    def get(self, scope, name):
        """``(calls, total_s, self_s)`` of span ``name`` within ``scope``."""
        agg = self.stats.get(scope, {}).get(name)
        return (0, 0.0, 0.0) if agg is None else (
            agg.calls, agg.total, agg.self_time)

    def table(self):
        """Rows ``(scope, name, calls, total_s, self_s)``."""
        return [
            (scope, name, a.calls, a.total, a.self_time)
            for scope, table in self.stats.items()
            for name, a in sorted(table.items(), key=lambda kv: -kv[1].total)
        ]
