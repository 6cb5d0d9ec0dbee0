"""``paper_runs``: cold planning + simulation of three (system, model) pairs.

This is the path behind ``repro run`` / ``repro bench``.  Each operation
builds a fresh :class:`~repro.core.HydraSystem` and runs its model with
``use_cache=False``, so every step is mapped and simulated again.  The
three pairs use the simulator three different ways:

* ``hydra_l.resnet18`` — ~347k transfers on the two-tier switch fabric;
  the simulator's communication path dominates;
* ``fab_m.opt_6_7b`` — ~43k transfers over FAB's host-mediated fabric,
  383 steps;
* ``hydra_s.opt_6_7b`` — one card, no transfers; the planner and
  compute-only simulation dominate, and 383 steps repeat only 32
  distinct task programs.

Correctness: ``ModelRunResult.to_dict()`` must hash to the reference
digest recorded in ``references.json``.
"""

from __future__ import annotations

from harness import canonical_digest

PAIRS = {
    "hydra_l.resnet18": ("Hydra-L", "resnet18"),
    "fab_m.opt_6_7b": ("FAB-M", "opt_6_7b"),
    "hydra_s.opt_6_7b": ("Hydra-S", "opt_6_7b"),
}

LAYERS = (
    ("models.build_pct", "%"),
    ("planner.self_pct", "%"),
    ("sched.map_step_pct", "%"),
    ("sched.map_step_calls", "count"),
    ("sim.run_pct", "%"),
    ("sim.run_calls", "count"),
    ("sim.events", "count"),
    ("sim.transfers", "count"),
    ("sim.events_per_s", "1/s"),
)


def layer_catalogue():
    return [(f"{part}.{name}", unit) for part in PAIRS for name, unit in LAYERS]


class Workload:
    name = "paper_runs"
    parts = tuple(PAIRS)

    def __init__(self, references):
        self.references = references["paper_runs"]
        self.modeled = {}
        self.begin_pass()

    def begin_pass(self):
        self.counters = {}

    def setup(self):
        from repro.core.system import HydraSystem
        from repro.runtime.cache import MemoryCache

        # Construct each system once so construction is part of set-up;
        # every measured run builds its own fresh one again.
        for system_name, _model in PAIRS.values():
            HydraSystem.named(system_name, cache=MemoryCache())

    def patch(self, tracer):
        from repro.core.system import HydraSystem
        from repro.sched.planner import Planner
        from repro.sim.engine import Simulator

        tracer.patch(HydraSystem, "build_model", "models.build")
        tracer.patch(Planner, "run_model", "planner")
        tracer.patch(Planner, "map_step", "sched.map_step")
        tracer.patch(Simulator, "run", "sim.run")

    def run_op(self, part, rng, clock, first):
        from repro.core.system import HydraSystem
        from repro.obs.metrics import MetricsRegistry, counter_totals, use_registry
        from repro.runtime.cache import MemoryCache

        system_name, model = PAIRS[part]
        registry = MetricsRegistry()
        with use_registry(registry), clock.measure(part):
            system = HydraSystem.named(system_name, cache=MemoryCache())
            result = system.run(model, use_cache=False)
        self.counters[part] = counter_totals(registry.snapshot())
        self.modeled[part] = result.total_seconds
        digest = canonical_digest(result.to_dict())
        want = self.references[part]["digest"]
        if digest != want:
            return False, f"{part}: result digest {digest[:16]} != reference {want[:16]}"
        return True, None

    def info_lines(self):
        """The accuracy line: modeled seconds against paper Table II."""
        lines = []
        for part in self.parts:
            if part not in self.modeled:
                continue
            ref = self.references[part]
            got = self.modeled[part]
            paper = ref["paper_seconds"]
            note = f" ({ref['note']})" if ref.get("note") else ""
            lines.append(
                f"accuracy {part}: modeled {got:.2f} s vs paper "
                f"{paper:.2f} s, relative error {(got - paper) / paper:+.1%}"
                f"{note}")
        return lines

    def layer_metrics(self, tracer):
        out = {}
        for part in self.parts:
            ops, op_total, _ = tracer.get(part, "op")
            counts = self.counters.get(part, {})
            events = (counts.get("sim.engine.tasks", 0)
                      + counts.get("sim.engine.transfers", 0))
            _, sim_total, _ = tracer.get(part, "sim.run")
            map_calls = tracer.get(part, "sched.map_step")[0]
            sim_calls = tracer.get(part, "sim.run")[0]

            def pct(name, which=1):
                return 100.0 * tracer.get(part, name)[which] / op_total

            out.update({
                f"{part}.models.build_pct": pct("models.build"),
                f"{part}.planner.self_pct": pct("planner", 2),
                f"{part}.sched.map_step_pct": pct("sched.map_step"),
                f"{part}.sched.map_step_calls": map_calls / ops,
                f"{part}.sim.run_pct": pct("sim.run"),
                f"{part}.sim.run_calls": sim_calls / ops,
                f"{part}.sim.events": events,
                f"{part}.sim.transfers": counts.get("sim.engine.transfers", 0),
                f"{part}.sim.events_per_s": events * ops / sim_total,
            })
        return out
