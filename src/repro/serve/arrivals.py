"""Deterministic open-loop arrival generation.

Each tenant owns an independent seeded RNG stream derived from
``(scenario seed, crc32(tenant name))`` through NumPy's
``SeedSequence``, so adding, removing, or reordering tenants never
perturbs another tenant's arrival times, and the same scenario + seed
reproduces bit-identical traffic in every process.

Arrivals are *open loop*: request times are independent of service
progress (the paper's "heavy traffic from millions of users" regime), so
queueing delay and rejection are observable outcomes rather than
feedback-throttled artifacts.

Five processes are supported:

* ``poisson`` — homogeneous Poisson at ``rate_rps``;
* ``uniform`` — fixed ``1/rate`` spacing with a half-period phase;
* ``diurnal`` — nonhomogeneous Poisson whose rate follows a sinusoid
  ``rate * (1 + amplitude * sin(2pi * (t/period + phase)))`` (the
  day/night traffic shape autoscalers exist for);
* ``flash`` — homogeneous Poisson at ``rate_rps`` with a
  ``spike_multiplier`` x burst during ``[spike_start, spike_start +
  spike_duration)`` (a flash crowd);
* ``mmpp`` — a Markov-modulated Poisson process: hidden states with
  per-state ``rates_rps`` and exponential sojourns of
  ``mean_sojourn_seconds``, cycling deterministically through states
  (bursty traffic with heavier-than-Poisson tails).

The inhomogeneous processes (``diurnal``, ``flash``, ``mmpp``) are
generated by Lewis-Shedler thinning against the process's peak rate:
candidate arrivals are drawn from a homogeneous Poisson at the peak rate
and accepted with probability ``rate(t) / peak``.  Every draw comes from
the one per-tenant RNG in a fixed order, so the realized point process
is a pure function of (scenario seed, tenant name, arrival spec).
"""

from __future__ import annotations

import math
import zlib
from typing import Tuple

import numpy as np

from repro.serve.fields import check, read

__all__ = [
    "ARRIVAL_PROCESSES",
    "generate_arrivals",
    "iter_arrivals",
    "peak_rate",
    "tenant_seed",
    "validate_arrival",
]

#: Supported arrival process names.
ARRIVAL_PROCESSES = ("poisson", "uniform", "diurnal", "flash", "mmpp")

#: Per-process extra options (beyond ``process`` / ``rate_rps``) as
#: ``key -> (default, bounds)``; ``mmpp``'s options are lists whose
#: every element meets the bounds, and have no default.
_OPTIONS = {
    "poisson": {},
    "uniform": {},
    "diurnal": {"amplitude": (0.5, {"min": 0, "max": 1}),
                "period_seconds": (86400.0, {"gt": 0}),
                "phase": (0.0, {"min": 0, "lt": 1})},
    "flash": {"spike_multiplier": (10.0, {"min": 1}),
              "spike_start_seconds": (0.0, {"min": 0}),
              "spike_duration_seconds": (0.0, {"gt": 0})},
    "mmpp": {"rates_rps": (None, {"gt": 0}),
             "mean_sojourn_seconds": (None, {"gt": 0})},
}


def tenant_seed(scenario_seed, tenant_name):
    """Stable per-tenant seed material (order-independent)."""
    return (int(scenario_seed), zlib.crc32(tenant_name.encode("utf-8")))


def validate_arrival(name, process, options):
    """Validate one tenant's process-specific arrival options.

    ``process`` is one of :data:`ARRIVAL_PROCESSES` (the tenant's field
    table checks it, and ``rate_rps``); ``options`` is the extras dict.
    Unknown keys and mistyped, missing or out-of-range values raise
    ``ValueError`` at scenario-load time.
    """
    table = _OPTIONS[process]
    unknown = sorted(set(options) - set(table))
    if unknown:
        raise ValueError(
            f"tenant {name!r}: unknown arrival option(s) {unknown} for "
            f"process {process!r}; allowed: {sorted(table) or 'none'}"
        )
    where = f"tenant {name!r}: arrival"
    for key, (default, bounds) in table.items():
        value, path = options.get(key, default), f"{where}.{key}"
        if process == "mmpp":
            for i, item in enumerate(read(value, Tuple[float, ...], path)):
                check(item, float, f"{path}[{i}]", bounds)
        else:
            read(value, float, path, **bounds)
    if process == "mmpp" and not (
            len(options["rates_rps"])
            == len(options["mean_sojourn_seconds"]) >= 2):
        raise ValueError(
            f"tenant {name!r}: mmpp rates_rps and mean_sojourn_seconds "
            f"must have the same length >= 2"
        )


def _option(tenant, key):
    """``tenant``'s arrival option ``key`` (or its default) as a float."""
    return float(tenant.arrival_options.get(
        key, _OPTIONS[tenant.process][key][0]))


def peak_rate(tenant):
    """The process's peak instantaneous rate (thinning envelope)."""
    if tenant.process == "diurnal":
        return tenant.rate_rps * (1.0 + _option(tenant, "amplitude"))
    if tenant.process == "flash":
        return tenant.rate_rps * _option(tenant, "spike_multiplier")
    if tenant.process == "mmpp":
        return max(float(r) for r in tenant.arrival_options["rates_rps"])
    return tenant.rate_rps


def _thinned(rng, duration, peak, rate_at):
    """Lewis-Shedler thinning of a peak-rate Poisson stream."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration:
            return
        if float(rng.uniform()) * peak <= rate_at(t):
            yield t


def _mmpp_rate_fn(tenant, rng):
    """Piecewise-constant rate of a lazily extended MMPP state timeline.

    States cycle ``0 -> 1 -> ... -> k-1 -> 0`` with exponential sojourn
    times; the timeline extends on demand as thinning probes later
    ``t``.  The sojourn draws interleave with the arrival draws on the
    single tenant RNG in a fixed, reproducible order.
    """
    options = tenant.arrival_options
    rates = [float(r) for r in options["rates_rps"]]
    sojourns = [float(s) for s in options["mean_sojourn_seconds"]]
    state = {"index": 0, "until": float(rng.exponential(sojourns[0]))}

    def rate_at(t):
        while t >= state["until"]:
            state["index"] = (state["index"] + 1) % len(rates)
            state["until"] += float(
                rng.exponential(sojourns[state["index"]]))
        return rates[state["index"]]

    return rate_at


def iter_arrivals(tenant, scenario_seed, duration):
    """Lazily yield sorted arrival times in ``[0, duration)``.

    Being a generator matters: the serving event loop holds one pending
    arrival per tenant instead of materializing the whole horizon, so a
    10⁶-request scenario costs O(tenants) arrival state.
    """
    rate = tenant.rate_rps
    if tenant.process == "uniform":
        period = 1.0 / rate
        t = 0.5 * period
        while t < duration:
            yield t
            t += period
        return
    rng = np.random.default_rng(tenant_seed(scenario_seed, tenant.name))
    if tenant.process == "poisson":
        t = float(rng.exponential(1.0 / rate))
        while t < duration:
            yield t
            t += float(rng.exponential(1.0 / rate))
        return
    peak = peak_rate(tenant)
    if tenant.process == "diurnal":
        amplitude = _option(tenant, "amplitude")
        period = _option(tenant, "period_seconds")
        phase = _option(tenant, "phase")

        def rate_at(t):
            return rate * (1.0 + amplitude
                           * math.sin(2.0 * math.pi
                                      * (t / period + phase)))
    elif tenant.process == "flash":
        multiplier = _option(tenant, "spike_multiplier")
        start = _option(tenant, "spike_start_seconds")
        end = start + _option(tenant, "spike_duration_seconds")

        def rate_at(t):
            return rate * multiplier if start <= t < end else rate
    else:  # mmpp
        rate_at = _mmpp_rate_fn(tenant, rng)
    yield from _thinned(rng, duration, peak, rate_at)


def generate_arrivals(tenant, scenario_seed, duration):
    """Materialized :func:`iter_arrivals` (kept for tests and tooling)."""
    return list(iter_arrivals(tenant, scenario_seed, duration))
