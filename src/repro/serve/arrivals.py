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

import numpy as np

__all__ = [
    "ARRIVAL_PROCESSES",
    "finite_positive",
    "generate_arrivals",
    "iter_arrivals",
    "peak_rate",
    "tenant_seed",
    "validate_arrival",
]

#: Supported arrival process names.
ARRIVAL_PROCESSES = ("poisson", "uniform", "diurnal", "flash", "mmpp")

#: Per-process extra option keys (beyond ``process`` / ``rate_rps``).
_OPTION_KEYS = {
    "poisson": frozenset(),
    "uniform": frozenset(),
    "diurnal": frozenset({"amplitude", "period_seconds", "phase"}),
    "flash": frozenset({"spike_multiplier", "spike_start_seconds",
                        "spike_duration_seconds"}),
    "mmpp": frozenset({"rates_rps", "mean_sojourn_seconds"}),
}


def finite_positive(value):
    """True for a positive, finite number (NaN and infinities fail)."""
    return value > 0 and math.isfinite(value)


def tenant_seed(scenario_seed, tenant_name):
    """Stable per-tenant seed material (order-independent)."""
    return (int(scenario_seed), zlib.crc32(tenant_name.encode("utf-8")))


def validate_arrival(name, process, rate_rps, options):
    """Validate one tenant's arrival spec; raises ``ValueError``.

    ``options`` is the process-specific extras dict (see
    ``_OPTION_KEYS``); unknown processes, unknown keys, and
    out-of-range values all fail fast at scenario-load time.
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"tenant {name!r}: unknown arrival process {process!r}; "
            f"choose from {ARRIVAL_PROCESSES}"
        )
    if not finite_positive(rate_rps):
        raise ValueError(f"tenant {name!r}: rate_rps must be positive "
                         f"and finite, got {rate_rps!r}")
    allowed = _OPTION_KEYS[process]
    unknown = sorted(set(options) - allowed)
    if unknown:
        raise ValueError(
            f"tenant {name!r}: unknown arrival option(s) {unknown} for "
            f"process {process!r}; allowed: {sorted(allowed) or 'none'}"
        )
    if process == "diurnal":
        amplitude = float(options.get("amplitude", 0.5))
        period = float(options.get("period_seconds", 86400.0))
        phase = float(options.get("phase", 0.0))
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(
                f"tenant {name!r}: diurnal amplitude must be in [0, 1]"
            )
        if period <= 0:
            raise ValueError(
                f"tenant {name!r}: diurnal period_seconds must be positive"
            )
        if not 0.0 <= phase < 1.0:
            raise ValueError(
                f"tenant {name!r}: diurnal phase must be in [0, 1)"
            )
    elif process == "flash":
        multiplier = float(options.get("spike_multiplier", 10.0))
        start = float(options.get("spike_start_seconds", 0.0))
        dur = float(options.get("spike_duration_seconds", 0.0))
        if multiplier < 1.0:
            raise ValueError(
                f"tenant {name!r}: flash spike_multiplier must be >= 1"
            )
        if start < 0:
            raise ValueError(
                f"tenant {name!r}: flash spike_start_seconds must be >= 0"
            )
        if dur <= 0:
            raise ValueError(
                f"tenant {name!r}: flash spike_duration_seconds must be "
                f"positive"
            )
    elif process == "mmpp":
        rates = options.get("rates_rps")
        sojourns = options.get("mean_sojourn_seconds")
        if not rates or not sojourns:
            raise ValueError(
                f"tenant {name!r}: mmpp needs rates_rps and "
                f"mean_sojourn_seconds"
            )
        if len(rates) != len(sojourns) or len(rates) < 2:
            raise ValueError(
                f"tenant {name!r}: mmpp rates_rps and mean_sojourn_seconds "
                f"must have the same length >= 2"
            )
        if any(r <= 0 for r in rates) or any(s <= 0 for s in sojourns):
            raise ValueError(
                f"tenant {name!r}: mmpp rates and sojourns must be positive"
            )


def peak_rate(tenant):
    """The process's peak instantaneous rate (thinning envelope)."""
    options = tenant.arrival_options
    if tenant.process == "diurnal":
        return tenant.rate_rps * (1.0
                                  + float(options.get("amplitude", 0.5)))
    if tenant.process == "flash":
        return tenant.rate_rps * float(options.get("spike_multiplier",
                                                   10.0))
    if tenant.process == "mmpp":
        return max(float(r) for r in options["rates_rps"])
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
    options = tenant.arrival_options
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
        amplitude = float(options.get("amplitude", 0.5))
        period = float(options.get("period_seconds", 86400.0))
        phase = float(options.get("phase", 0.0))

        def rate_at(t):
            return rate * (1.0 + amplitude
                           * math.sin(2.0 * math.pi
                                      * (t / period + phase)))
    elif tenant.process == "flash":
        multiplier = float(options.get("spike_multiplier", 10.0))
        start = float(options.get("spike_start_seconds", 0.0))
        end = start + float(options.get("spike_duration_seconds", 0.0))

        def rate_at(t):
            return rate * multiplier if start <= t < end else rate
    else:  # mmpp
        rate_at = _mmpp_rate_fn(tenant, rng)
    yield from _thinned(rng, duration, peak, rate_at)


def generate_arrivals(tenant, scenario_seed, duration):
    """Materialized :func:`iter_arrivals` (kept for tests and tooling)."""
    return list(iter_arrivals(tenant, scenario_seed, duration))
