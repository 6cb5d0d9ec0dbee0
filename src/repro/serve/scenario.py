"""Serving scenarios: tenants, fleets, and queueing/batching knobs.

A scenario is a plain JSON document (committed under
``src/repro/serve/scenarios/``) describing one steady-state serving
experiment:

.. code-block:: json

    {
      "schema": "repro.serve.scenario/v3",
      "name": "steady_hydra_m",
      "duration_seconds": 240.0,
      "seed": 2024,
      "policy": "fifo",
      "dispatch": "pipelined",
      "max_queue": 32,
      "batch": {"max_requests": 4, "window_seconds": 2.0},
      "routing": {"mode": "slo", "safety_margin_seconds": 0.0},
      "autoscale": {"policy": "queue_depth", "cluster": "Hydra-M",
                    "min_replicas": 0, "max_replicas": 3},
      "fleets": {"hydra-m": ["Hydra-M"]},
      "tenants": [
        {"name": "cnn-a", "model": "resnet18",
         "arrival": {"process": "poisson", "rate_rps": 0.25}}
      ]
    }

Fleet entries are deployment registry names
(:func:`repro.core.available_systems`) or ``"hydra-SxC"`` shorthand for
arbitrary scale-out deployments (``hydra-2x4`` = 2 servers x 4 cards).
Tenants bind a registered model to a CKKS parameter preset and a seeded
arrival process (five models — see :mod:`repro.serve.arrivals`); every
numeric knob is part of the runtime cache fingerprint chain, so two
scenarios that differ in any modelled quantity never share planned
service profiles by accident.

The optional ``routing`` block configures SLO-aware fleet routing and
session affinity (:class:`~repro.serve.dispatch.RoutingConfig`), the
``autoscale`` block elastic replica pools
(:class:`~repro.serve.autoscale.AutoscaleConfig`).  ``kind: llm``
tenants are autoregressive transformer sessions with seeded
``prompt_tokens`` / ``output_tokens`` distributions (see
:mod:`repro.llm`).  Only the current schema loads; any other
``schema`` value is rejected with a :class:`ValueError`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.ckks.params import PAPER_PARAMS
from repro.hw.cluster import hydra_cluster
from repro.serve.arrivals import finite_positive, validate_arrival
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.dispatch import RoutingConfig

__all__ = [
    "SCENARIO_SCHEMA",
    "SCENARIOS_DIR",
    "BatchConfig",
    "Overheads",
    "Scenario",
    "TelemetryConfig",
    "TenantSpec",
    "builtin_scenarios",
    "load_scenario",
    "params_preset",
    "resolve_fleet_cluster",
    "validate_scenario_files",
]

SCENARIO_SCHEMA = "repro.serve.scenario/v3"

_TENANT_KINDS = ("cnn", "llm")

#: Committed scenario files shipped with the package.
SCENARIOS_DIR = Path(__file__).resolve().parent / "scenarios"

#: CKKS parameter presets a tenant may bind to.  Distinct presets are
#: batching-incompatible (different ciphertext layouts) and produce
#: distinct service profiles.
_PARAMS_PRESETS = {"paper": PAPER_PARAMS}

_POLICY_NAMES = ("fifo", "fair", "edf")
_DISPATCH_MODES = ("pipelined", "serialized")

_SHORTHAND = re.compile(r"^hydra-(\d+)x(\d+)$")


def params_preset(name):
    """Resolve a CKKS parameter preset name (see ``_PARAMS_PRESETS``)."""
    try:
        return _PARAMS_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown params preset {name!r}; "
            f"available: {sorted(_PARAMS_PRESETS)}"
        ) from None


def resolve_fleet_cluster(name):
    """A fleet entry → ``(registry_name_or_None, ClusterSpec)``.

    Registry names (``Hydra-M``, ``FAB-L``, ...) resolve through
    :func:`repro.core.cluster_named` and keep their registry identity so
    the runtime cache fingerprints them exactly like ``repro bench``
    does; ``hydra-SxC`` shorthand builds an explicit
    :class:`~repro.hw.ClusterSpec`.
    """
    match = _SHORTHAND.match(name)
    if match:
        servers, cards = int(match.group(1)), int(match.group(2))
        return None, hydra_cluster(servers, cards)
    from repro.core.system import cluster_named

    return name, cluster_named(name)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a model + CKKS params + an open-loop arrival process.

    ``deadline_seconds`` is a per-request relative latency SLO; requests
    completing later still count toward throughput but not goodput (and
    EDF uses it for ordering).  ``ciphertexts_in`` / ``ciphertexts_out``
    size the host<->cluster staging transfers of one request.

    ``kind: llm`` tenants (scenario schema v3) are autoregressive
    sessions: each arrival opens a prefill + N-token decode session
    whose prompt/output token counts are drawn per tenant from the
    scenario seed (``prompt_tokens`` / ``output_tokens`` distribution
    specs, see :func:`repro.llm.validate_token_distribution`).  The
    deadline then covers the *whole* session (last token out).
    """

    name: str
    model: str
    process: str = "poisson"
    rate_rps: float = 1.0
    params: str = "paper"
    deadline_seconds: float = None
    ciphertexts_in: int = 1
    ciphertexts_out: int = 1
    #: fraction of completions allowed to miss the deadline before the
    #: tenant's SLO burn-rate exceeds 1.0 (error-budget denominator)
    slo_budget: float = 0.01
    #: process-specific arrival options as a sorted, hashable tuple of
    #: ``(key, value)`` pairs (lists stored as tuples); see
    #: :func:`repro.serve.arrivals.validate_arrival` for the vocabulary
    arrival_extra: tuple = ()
    #: "cnn" (single-phase request) | "llm" (prefill + decode session)
    kind: str = "cnn"
    #: token-count distribution specs as sorted ``(key, value)`` tuples
    #: (llm tenants only; empty = the sampler defaults)
    prompt_tokens: tuple = ()
    output_tokens: tuple = ()

    def __post_init__(self):
        validate_arrival(self.name, self.process, self.rate_rps,
                         self.arrival_options)
        if self.kind not in _TENANT_KINDS:
            raise ValueError(
                f"tenant {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {_TENANT_KINDS}"
            )
        if self.deadline_seconds is not None and not finite_positive(
                self.deadline_seconds):
            raise ValueError(
                f"tenant {self.name!r}: deadline_seconds must be "
                f"positive and finite, got {self.deadline_seconds!r}"
            )
        if self.ciphertexts_in < 1 or self.ciphertexts_out < 0:
            raise ValueError(
                f"tenant {self.name!r}: ciphertext counts out of range"
            )
        if not 0 < self.slo_budget <= 1:
            raise ValueError(
                f"tenant {self.name!r}: slo_budget must be in (0, 1]"
            )
        params_preset(self.params)  # fail fast on unknown presets
        if self.kind == "llm":
            from repro.llm import LLM_MODELS, validate_token_distribution

            if self.model not in LLM_MODELS:
                raise ValueError(
                    f"tenant {self.name!r}: kind 'llm' needs a "
                    f"transformer model, got {self.model!r} "
                    f"(available: {', '.join(sorted(LLM_MODELS))})"
                )
            validate_token_distribution(
                self.name, "prompt_tokens", self.prompt_token_options)
            validate_token_distribution(
                self.name, "output_tokens", self.output_token_options)
        elif self.prompt_tokens or self.output_tokens:
            raise ValueError(
                f"tenant {self.name!r}: prompt_tokens/output_tokens "
                f"need kind 'llm'"
            )

    @property
    def batch_key(self):
        """Batching-compatibility key: same model + same params.

        LLM arrivals enter admission as prefill requests; decode
        continuations get their own per-session keys (see
        :class:`repro.serve.queueing.Request`).
        """
        if self.kind == "llm":
            return (f"{self.model}#prefill", self.params)
        return (self.model, self.params)

    @property
    def profile_models(self):
        """Graph names this tenant needs service profiles for."""
        if self.kind == "llm":
            from repro.llm import profile_models

            return profile_models(self.model)
        return (self.model,)

    @property
    def arrival_options(self):
        """The process-specific extras as a plain dict."""
        return dict(self.arrival_extra)

    @property
    def prompt_token_options(self):
        return dict(self.prompt_tokens)

    @property
    def output_token_options(self):
        return dict(self.output_tokens)

    @classmethod
    def from_dict(cls, data):
        arrival = dict(data.get("arrival", {}))
        process = arrival.pop("process", "poisson")
        rate_rps = float(arrival.pop("rate_rps", 1.0))
        extra = tuple(sorted(
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in arrival.items()
        ))
        return cls(
            name=data["name"],
            model=data["model"],
            process=process,
            rate_rps=rate_rps,
            params=data.get("params", "paper"),
            deadline_seconds=data.get("deadline_seconds"),
            ciphertexts_in=int(data.get("ciphertexts_in", 1)),
            ciphertexts_out=int(data.get("ciphertexts_out", 1)),
            slo_budget=float(data.get("slo_budget", 0.01)),
            arrival_extra=extra,
            kind=data.get("kind", "cnn"),
            prompt_tokens=tuple(sorted(
                data.get("prompt_tokens", {}).items())),
            output_tokens=tuple(sorted(
                data.get("output_tokens", {}).items())),
        )

    def to_dict(self):
        arrival = {"process": self.process, "rate_rps": self.rate_rps}
        for key, value in self.arrival_extra:
            arrival[key] = list(value) if isinstance(value, tuple) \
                else value
        doc = {
            "name": self.name,
            "model": self.model,
            "params": self.params,
            "arrival": arrival,
            "ciphertexts_in": self.ciphertexts_in,
            "ciphertexts_out": self.ciphertexts_out,
            "slo_budget": self.slo_budget,
        }
        if self.deadline_seconds is not None:
            doc["deadline_seconds"] = self.deadline_seconds
        if self.kind != "cnn":
            doc["kind"] = self.kind
        if self.prompt_tokens:
            doc["prompt_tokens"] = self.prompt_token_options
        if self.output_tokens:
            doc["output_tokens"] = self.output_token_options
        return doc


@dataclass(frozen=True)
class BatchConfig:
    """Batch coalescing knobs.

    Compatible requests (same :attr:`TenantSpec.batch_key`) are packed
    into one planned program execution — the slot-packing amortization
    FAB reports for bootstrapping.  A batch closes when it reaches
    ``max_requests`` or when its oldest member has waited
    ``window_seconds``.
    """

    max_requests: int = 4
    window_seconds: float = 2.0

    def __post_init__(self):
        if self.max_requests < 1:
            raise ValueError("batch.max_requests must be >= 1")
        if not 0 <= self.window_seconds < math.inf:
            raise ValueError("batch.window_seconds must be >= 0 and finite")


@dataclass(frozen=True)
class Overheads:
    """Host-side staging costs of one dispatched batch.

    ``batch_setup_seconds`` models per-batch host orchestration (program
    upload, evaluation-key residency checks) paid on the cluster's I/O
    path before input ciphertexts stream in;
    ``compute_per_extra_request`` scales batch compute as
    ``base * (1 + f * (B - 1))`` — 0.0 is perfect slot-packing
    amortization up to the batch cap.
    """

    batch_setup_seconds: float = 0.1
    compute_per_extra_request: float = 0.0

    def __post_init__(self):
        if not 0 <= self.batch_setup_seconds < math.inf:
            raise ValueError(
                "overheads.batch_setup_seconds must be >= 0 and finite"
            )
        if not 0 <= self.compute_per_extra_request < math.inf:
            raise ValueError(
                "overheads.compute_per_extra_request must be >= 0 and finite"
            )


@dataclass(frozen=True)
class TelemetryConfig:
    """Streaming-telemetry sizing knobs (the report's memory bound).

    ``num_windows`` fixes how many aligned time windows the report's
    per-tenant/per-cluster series carry over ``[0, duration)`` — state
    is ``O(num_windows)`` regardless of request count.
    ``recorder_events`` sizes the flight-recorder ring (in events).
    """

    num_windows: int = 60
    recorder_events: int = 512

    def __post_init__(self):
        if self.num_windows < 1:
            raise ValueError("telemetry.num_windows must be >= 1")
        if self.recorder_events < 1:
            raise ValueError("telemetry.recorder_events must be >= 1")


@dataclass(frozen=True)
class Scenario:
    """One complete serving experiment description."""

    name: str
    duration_seconds: float
    seed: int
    tenants: tuple
    fleets: dict  # fleet name -> tuple of fleet-entry strings
    policy: str = "fifo"
    dispatch: str = "pipelined"
    max_queue: int = 64
    batch: BatchConfig = field(default_factory=BatchConfig)
    overheads: Overheads = field(default_factory=Overheads)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    autoscale: AutoscaleConfig = None

    def __post_init__(self):
        if not finite_positive(self.duration_seconds):
            raise ValueError(
                f"duration_seconds must be positive and finite, got "
                f"{self.duration_seconds!r}"
            )
        if self.policy not in _POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"choose from {_POLICY_NAMES}"
            )
        if self.dispatch not in _DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch mode {self.dispatch!r}; "
                f"choose from {_DISPATCH_MODES}"
            )
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        if not self.fleets:
            raise ValueError("scenario needs at least one fleet")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            seen, duplicates = set(), []
            for name in names:
                if name in seen and name not in duplicates:
                    duplicates.append(name)
                seen.add(name)
            raise ValueError(
                f"duplicate tenant name(s) {duplicates} "
                f"(each of the {len(names)} tenants needs a unique name)"
            )
        if self.policy == "edf" and all(
            t.deadline_seconds is None for t in self.tenants
        ):
            raise ValueError(
                "policy 'edf' needs at least one tenant with "
                "deadline_seconds"
            )
        for fleet, entries in self.fleets.items():
            if not entries:
                raise ValueError(f"fleet {fleet!r} has no clusters")
            for entry in entries:
                resolve_fleet_cluster(entry)  # fail fast
        if self.autoscale is not None:
            resolve_fleet_cluster(self.autoscale.cluster)  # fail fast
            if self.autoscale.fleets is not None:
                missing = [f for f in self.autoscale.fleets
                           if f not in self.fleets]
                if missing:
                    raise ValueError(
                        f"autoscale.fleets names unknown fleets "
                        f"{missing}; fleets: {sorted(self.fleets)}"
                    )

    def override(self, seed=None, duration=None, dispatch=None,
                 policy=None):
        """A copy with CLI-level overrides applied (None = keep)."""
        import dataclasses

        if duration is not None and not finite_positive(float(duration)):
            raise ValueError(
                f"duration override must be positive and finite, got "
                f"{duration!r}"
            )
        return dataclasses.replace(
            self,
            seed=self.seed if seed is None else int(seed),
            duration_seconds=(self.duration_seconds if duration is None
                              else float(duration)),
            dispatch=self.dispatch if dispatch is None else dispatch,
            policy=self.policy if policy is None else policy,
        )

    @classmethod
    def from_dict(cls, data, source="scenario"):
        if not isinstance(data, dict):
            raise ValueError(f"{source}: scenario must be a JSON object")
        schema = data.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"{source}: unsupported scenario schema {schema!r} "
                f"(expected {SCENARIO_SCHEMA!r})"
            )
        batch = BatchConfig(**data.get("batch", {}))
        overheads = Overheads(**data.get("overheads", {}))
        telemetry = TelemetryConfig(**data.get("telemetry", {}))
        routing = RoutingConfig.from_dict(data.get("routing", {}))
        autoscale = (None if data.get("autoscale") is None
                     else AutoscaleConfig.from_dict(data["autoscale"]))
        fleets = {
            str(name): tuple(entries)
            for name, entries in data["fleets"].items()
        }
        tenants = tuple(
            TenantSpec.from_dict(t) for t in data["tenants"]
        )
        return cls(
            name=data["name"],
            duration_seconds=float(data["duration_seconds"]),
            seed=int(data["seed"]),
            tenants=tenants,
            fleets=fleets,
            policy=data.get("policy", "fifo"),
            dispatch=data.get("dispatch", "pipelined"),
            max_queue=int(data.get("max_queue", 64)),
            batch=batch,
            overheads=overheads,
            telemetry=telemetry,
            routing=routing,
            autoscale=autoscale,
        )

    def to_dict(self):
        doc = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "seed": self.seed,
            "policy": self.policy,
            "dispatch": self.dispatch,
            "max_queue": self.max_queue,
            "batch": {
                "max_requests": self.batch.max_requests,
                "window_seconds": self.batch.window_seconds,
            },
            "overheads": {
                "batch_setup_seconds": self.overheads.batch_setup_seconds,
                "compute_per_extra_request":
                    self.overheads.compute_per_extra_request,
            },
            "telemetry": {
                "num_windows": self.telemetry.num_windows,
                "recorder_events": self.telemetry.recorder_events,
            },
            "routing": self.routing.to_dict(),
            "fleets": {name: list(v) for name, v in self.fleets.items()},
            "tenants": [t.to_dict() for t in self.tenants],
        }
        if self.autoscale is not None:
            doc["autoscale"] = self.autoscale.to_dict()
        return doc


def builtin_scenarios():
    """Names of the committed scenario files, sorted."""
    if not SCENARIOS_DIR.is_dir():
        return []
    return sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))


def load_scenario(ref):
    """Load a scenario from a file path or a builtin name."""
    path = Path(ref)
    if not path.is_file():
        candidate = SCENARIOS_DIR / f"{ref}.json"
        if candidate.is_file():
            path = candidate
        else:
            raise FileNotFoundError(
                f"no scenario file {ref!r}; builtin scenarios: "
                f"{', '.join(builtin_scenarios()) or '(none)'}"
            )
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return Scenario.from_dict(data, source=str(path))


def validate_scenario_files(directory=None):
    """Lint every scenario JSON under ``directory`` (CI gate).

    Stricter than :func:`load_scenario`: committed files must pass full
    :meth:`Scenario.from_dict` validation, be named after their file
    stem, and round-trip through ``to_dict`` without losing fields the
    loader understands.  Returns a list of ``(filename, error_or_None)``
    rows, one per file, sorted by name.
    """
    directory = Path(SCENARIOS_DIR if directory is None else directory)
    rows = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            scenario = Scenario.from_dict(data, source=path.name)
            if scenario.name != path.stem:
                raise ValueError(
                    f"scenario name {scenario.name!r} != file stem "
                    f"{path.stem!r} (builtin lookup would break)"
                )
            reparsed = Scenario.from_dict(scenario.to_dict(),
                                          source=f"{path.name} (round-trip)")
            if reparsed != scenario:
                raise ValueError("to_dict/from_dict round-trip drifted")
            rows.append((path.name, None))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) \
                as exc:
            rows.append((path.name, str(exc)))
    return rows
