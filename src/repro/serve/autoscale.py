"""Pluggable autoscaling policies for elastic serving fleets.

A fleet with an ``autoscale`` block owns a pool of *elastic* replicas of
one cluster shape on top of its always-on static entries.  The serving
engine evaluates the configured policy on a fixed simulated-time
interval; each evaluation sees a bounded view of the interval just
ended — queue depth at the evaluation instant plus per-SLO-tenant
windowed latency sketches and miss counts, all built from the same
streaming aggregators the telemetry pipeline uses — and votes to scale
up, scale down, or hold.

Two stabilizers keep policies honest:

* **hysteresis** — after any scaling action the autoscaler holds for
  ``hysteresis_seconds`` regardless of policy votes, so a borderline
  signal cannot flap the fleet;
* **warm-up** — a scaled-up replica only becomes dispatchable
  ``warmup_seconds`` after the decision (FPGA bitstream load, key
  material staging), which is exactly why scale-up must fire *before*
  the SLO budget exhausts rather than when it has.

Policies (registered in :data:`AUTOSCALE_POLICIES`):

* ``queue_depth`` — scale up when the admission queue depth at
  evaluation time is at least ``up_threshold``; scale down when it is
  at most ``down_threshold``;
* ``burn_rate`` — scale on the windowed SLO burn signal: per SLO
  tenant, the worse of (windowed p99 latency / deadline) and (windowed
  miss fraction / error budget); up when the max across tenants is at
  least ``up_threshold``, down when it is at most ``down_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.obs.streaming import StreamingHistogram
from repro.serve.fields import Block, spec

__all__ = [
    "AUTOSCALE_POLICIES",
    "Autoscaler",
    "AutoscaleConfig",
    "ScaleView",
    "make_autoscale_policy",
]


class _WindowStats:
    """One evaluation interval's per-SLO-tenant latency/miss window."""

    __slots__ = ("latency", "misses", "completions")

    def __init__(self):
        self.latency = {}  # tenant -> StreamingHistogram
        self.misses = {}
        self.completions = {}

    def observe(self, tenant_name, latency, missed):
        hist = self.latency.get(tenant_name)
        if hist is None:
            hist = self.latency[tenant_name] = StreamingHistogram()
        hist.add(latency)
        self.completions[tenant_name] = \
            self.completions.get(tenant_name, 0) + 1
        if missed:
            self.misses[tenant_name] = self.misses.get(tenant_name, 0) + 1

    def p99(self, tenant_name):
        hist = self.latency.get(tenant_name)
        return None if hist is None or not hist.count \
            else hist.quantile(99)

    def miss_fraction(self, tenant_name):
        done = self.completions.get(tenant_name, 0)
        return (self.misses.get(tenant_name, 0) / done) if done else 0.0


@dataclass(frozen=True)
class ScaleView:
    """What a policy sees at one evaluation instant."""

    now: float
    queue_depth: int
    active_replicas: int
    window: _WindowStats
    #: SLO'd tenant specs (name -> TenantSpec), for deadlines/budgets
    slo_tenants: dict = field(default_factory=dict)


class _QueueDepthPolicy:
    name = "queue_depth"

    def signal(self, view):
        return float(view.queue_depth)

    def decide(self, view, config):
        depth = self.signal(view)
        if depth >= config.up_threshold:
            return 1
        if depth <= config.down_threshold:
            return -1
        return 0


class _BurnRatePolicy:
    """Windowed p99-vs-deadline and miss-vs-budget burn signal."""

    name = "burn_rate"

    def signal(self, view):
        burn = 0.0
        for name, tenant in view.slo_tenants.items():
            p99 = view.window.p99(name)
            if p99 is not None:
                burn = max(burn, p99 / tenant.deadline_seconds)
            miss = view.window.miss_fraction(name)
            burn = max(burn, miss / tenant.slo_budget)
        return burn

    def decide(self, view, config):
        burn = self.signal(view)
        if burn >= config.up_threshold:
            return 1
        # Only shrink when the tail signal is quiet AND nothing queues.
        if burn <= config.down_threshold and view.queue_depth == 0:
            return -1
        return 0


AUTOSCALE_POLICIES = {p.name: p for p in (_QueueDepthPolicy,
                                          _BurnRatePolicy)}


@dataclass(frozen=True)
class AutoscaleConfig(Block):
    """The scenario's ``autoscale`` block.

    ``cluster`` is the shape of elastic replicas (a fleet-entry string:
    registry name or ``hydra-SxC`` shorthand); ``fleets`` restricts the
    block to the named fleets (None = every fleet in the scenario, the
    static ones in a comparison scenario opt out by listing only the
    elastic fleet).
    """

    block_path = "autoscale"

    policy: str = spec("queue_depth", choices=AUTOSCALE_POLICIES)
    cluster: str = spec("Hydra-M")
    min_replicas: int = spec(0, min=0)
    max_replicas: int = spec(4, min=1)
    evaluation_interval_seconds: float = spec(5.0, gt=0)
    warmup_seconds: float = spec(15.0, min=0)
    hysteresis_seconds: float = spec(30.0, min=0)
    scale_up_step: int = spec(1, min=1)
    scale_down_step: int = spec(1, min=1)
    up_threshold: float = spec(8.0)
    down_threshold: float = spec(0.0)
    fleets: Tuple[str, ...] = spec(None)  # None = all fleets

    def __post_init__(self):
        super().__post_init__()
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                "autoscale.max_replicas must be >= min_replicas"
            )
        if self.down_threshold >= self.up_threshold:
            raise ValueError(
                "autoscale.down_threshold must be strictly below "
                "up_threshold (the hysteresis band)"
            )

    def applies_to(self, fleet_name):
        return self.fleets is None or fleet_name in self.fleets


def make_autoscale_policy(name):
    """Instantiate an autoscaling policy by name."""
    try:
        return AUTOSCALE_POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown autoscale policy {name!r}; "
            f"available: {sorted(AUTOSCALE_POLICIES)}"
        ) from None


class Autoscaler:
    """Per-fleet autoscaling state machine driven by the engine.

    The engine feeds completions through :meth:`observe_completion`,
    calls :meth:`evaluate` on the configured interval, applies the
    returned replica delta (clamped to the configured band) and
    confirms applied actions through :meth:`note_scaled` so hysteresis
    keys off *actions*, not votes.
    """

    def __init__(self, config, tenants):
        self.config = config
        self.policy = make_autoscale_policy(config.policy)
        self.slo_tenants = {
            t.name: t for t in tenants if t.deadline_seconds is not None
        }
        self.window = _WindowStats()
        self.last_scale_time = None
        self.evaluations = 0

    def observe_completion(self, tenant_name, latency, missed):
        if tenant_name in self.slo_tenants:
            self.window.observe(tenant_name, latency, missed)

    def _in_hysteresis(self, now):
        return (self.last_scale_time is not None
                and now - self.last_scale_time
                < self.config.hysteresis_seconds)

    def evaluate(self, now, queue_depth, active_replicas):
        """One evaluation tick: ``(delta, signal)`` with windows reset.

        ``delta`` is the *desired* replica change (policy direction
        times the configured step), before the engine clamps it to
        ``[min_replicas, max_replicas]``; it is 0 while hysteresis
        holds.  ``signal`` is the policy's scalar observation, reported
        in scale events for explainability.
        """
        view = ScaleView(now=now, queue_depth=queue_depth,
                         active_replicas=active_replicas,
                         window=self.window,
                         slo_tenants=self.slo_tenants)
        signal = self.policy.signal(view)
        self.evaluations += 1
        if self._in_hysteresis(now):
            direction = 0
        else:
            direction = self.policy.decide(view, self.config)
        self.window = _WindowStats()
        if direction > 0:
            return self.config.scale_up_step, signal
        if direction < 0:
            return -self.config.scale_down_step, signal
        return 0, signal

    def note_scaled(self, now):
        """Record that the engine actually changed the replica count."""
        self.last_scale_time = now
