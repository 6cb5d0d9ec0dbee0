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
:mod:`repro.llm`).

Each block states its fields once, in its dataclass declaration (see
:mod:`repro.serve.fields`), and the loader enforces that table:

* only the current ``schema`` loads;
* unknown keys are rejected in every block, and missing required keys
  (``name``, ``duration_seconds``, ``seed``, ``fleets``, ``tenants``,
  a tenant's ``name`` and ``model``) are errors;
* integer fields take JSON integers only; number fields take an integer
  or a real but never a bool, a string, NaN or ±inf; booleans take
  ``true`` / ``false`` only; strings are checked against their choices;
* a CNN tenant's ``model`` must be a registered benchmark and an LLM
  tenant's a transformer; fleet entries must resolve.

Every failure is one :class:`ValueError` naming the field path
(``tenants[0].arrival.rate_rps``, ``batch.max_requests``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Tuple

from repro.ckks.params import PAPER_PARAMS
from repro.hw.cluster import hydra_cluster
from repro.models import BENCHMARKS
from repro.serve.arrivals import ARRIVAL_PROCESSES, validate_arrival
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.dispatch import RoutingConfig
from repro.serve.fields import Block, read_block, spec

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
    """The CKKS parameters of a preset name (tenants check it at load)."""
    return _PARAMS_PRESETS[name]


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
class TenantSpec(Block):
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

    name: str = spec()
    model: str = spec()
    process: str = spec("poisson", choices=ARRIVAL_PROCESSES, at="arrival")
    rate_rps: float = spec(1.0, gt=0, at="arrival")
    params: str = spec("paper", choices=_PARAMS_PRESETS)
    deadline_seconds: float = spec(None, gt=0)
    ciphertexts_in: int = spec(1, min=1)
    ciphertexts_out: int = spec(1, min=0)
    #: fraction of completions allowed to miss the deadline before the
    #: tenant's SLO burn-rate exceeds 1.0 (error-budget denominator)
    slo_budget: float = spec(0.01, gt=0, max=1)
    #: process-specific arrival options as a sorted, hashable tuple of
    #: ``(key, value)`` pairs (lists stored as tuples); see
    #: :func:`repro.serve.arrivals.validate_arrival` for the vocabulary
    arrival_extra: tuple = spec((), free=True, at="arrival")
    #: "cnn" (single-phase request) | "llm" (prefill + decode session)
    kind: str = spec("cnn", choices=_TENANT_KINDS)
    #: token-count distribution specs as sorted ``(key, value)`` tuples
    #: (llm tenants only; empty = the sampler defaults)
    prompt_tokens: tuple = spec((), free=True)
    output_tokens: tuple = spec((), free=True)

    def __post_init__(self):
        super().__post_init__()
        validate_arrival(self.name, self.process, self.arrival_options)
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
        elif self.model not in BENCHMARKS:
            raise ValueError(
                f"tenant {self.name!r}: unknown model {self.model!r}; "
                f"choose from {', '.join(sorted(BENCHMARKS))}"
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


@dataclass(frozen=True)
class BatchConfig(Block):
    """Batch coalescing knobs.

    Compatible requests (same :attr:`TenantSpec.batch_key`) are packed
    into one planned program execution — the slot-packing amortization
    FAB reports for bootstrapping.  A batch closes when it reaches
    ``max_requests`` or when its oldest member has waited
    ``window_seconds``.
    """

    block_path = "batch"

    max_requests: int = spec(4, min=1)
    window_seconds: float = spec(2.0, min=0)


@dataclass(frozen=True)
class Overheads(Block):
    """Host-side staging costs of one dispatched batch.

    ``batch_setup_seconds`` models per-batch host orchestration (program
    upload, evaluation-key residency checks) paid on the cluster's I/O
    path before input ciphertexts stream in;
    ``compute_per_extra_request`` scales batch compute as
    ``base * (1 + f * (B - 1))`` — 0.0 is perfect slot-packing
    amortization up to the batch cap.
    """

    block_path = "overheads"

    batch_setup_seconds: float = spec(0.1, min=0)
    compute_per_extra_request: float = spec(0.0, min=0)


@dataclass(frozen=True)
class TelemetryConfig(Block):
    """Streaming-telemetry sizing knobs (the report's memory bound).

    ``num_windows`` fixes how many aligned time windows the report's
    per-tenant/per-cluster series carry over ``[0, duration)`` — state
    is ``O(num_windows)`` regardless of request count.
    ``recorder_events`` sizes the flight-recorder ring (in events).
    """

    block_path = "telemetry"

    num_windows: int = spec(60, min=1)
    recorder_events: int = spec(512, min=1)


def _check_fleet_entry(entry, path):
    """A fleet entry must resolve (registry name or shorthand)."""
    try:
        resolve_fleet_cluster(entry)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None


@dataclass(frozen=True)
class Scenario(Block):
    """One complete serving experiment description."""

    name: str = spec()
    duration_seconds: float = spec(gt=0)
    #: NumPy seed material, which must be non-negative
    seed: int = spec(min=0)
    tenants: Tuple[TenantSpec, ...] = spec(nonempty=True)
    #: fleet name -> tuple of fleet-entry strings
    fleets: Dict[str, Tuple[str, ...]] = spec(nonempty=True)
    policy: str = spec("fifo", choices=_POLICY_NAMES)
    dispatch: str = spec("pipelined", choices=_DISPATCH_MODES)
    max_queue: int = spec(64, min=1)
    batch: BatchConfig = field(default_factory=BatchConfig)
    overheads: Overheads = field(default_factory=Overheads)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    autoscale: AutoscaleConfig = None

    def __post_init__(self):
        super().__post_init__()
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
            for i, entry in enumerate(entries):
                _check_fleet_entry(entry, f"fleets.{fleet}[{i}]")
        if self.autoscale is not None:
            _check_fleet_entry(self.autoscale.cluster, "autoscale.cluster")
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
        return replace(
            self,
            seed=self.seed if seed is None else int(seed),
            duration_seconds=(self.duration_seconds if duration is None
                              else float(duration)),
            dispatch=self.dispatch if dispatch is None else dispatch,
            policy=self.policy if policy is None else policy,
        )

    @classmethod
    def from_dict(cls, data, source="scenario"):
        """Read a scenario document; raises only :class:`ValueError`."""
        try:
            if not isinstance(data, dict):
                raise ValueError("scenario must be a JSON object")
            data = dict(data)
            schema = data.pop("schema", None)
            if schema != SCENARIO_SCHEMA:
                raise ValueError(
                    f"unsupported scenario schema {schema!r} "
                    f"(expected {SCENARIO_SCHEMA!r})"
                )
            return read_block(cls, data)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None

    def to_dict(self):
        return {"schema": SCENARIO_SCHEMA, **super().to_dict()}


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
        except ValueError as exc:  # json.JSONDecodeError included
            rows.append((path.name, str(exc)))
    return rows
