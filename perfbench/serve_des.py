"""``serve_des``: two seeded open-loop serving scenarios in simulated time.

* ``cnn`` — the builtin ``stream_soak`` scenario (Poisson 8 rps plus
  uniform 4 rps of ResNet-18 on one Hydra-M), cut to a two-hour
  horizon: ~86k one-shot requests per operation.
* ``llm`` — ``scenarios/bench_llm_chat_hydra_m.json``, a copy of the
  builtin ``llm_chat_hydra_l`` on two Hydra-M clusters, over twelve
  hours: ~1k chat sessions whose decode continuations, KV recharges
  and session-affine routing drive the serve core with multi-phase
  requests.  Hydra-M plans in ~2 s where Hydra-L takes ~25 s.

Set-up plans each scenario's service profiles cold
(``prepare_profiles(use_cache=False)``).  One operation is one
``simulate_fleet`` plus ``build_report`` over the horizon.

Seeds: the first operation of each part in a run uses the scenario's
own seed, and its report must hash to the digest in
``references.json``; later operations use arrival seeds drawn from the
workload seed.  Every report must pass the ``repro.serve`` schema
validator and account for every arrival as completed or rejected.
"""

from __future__ import annotations

import os

from harness import canonical_digest

HERE = os.path.dirname(os.path.abspath(__file__))

#: part -> (scenario reference, horizon in simulated seconds)
SCENARIOS = {
    "cnn": ("stream_soak", 2 * 3600.0),
    "llm": (os.path.join(HERE, "scenarios", "bench_llm_chat_hydra_m.json"),
            12 * 3600.0),
}

COMMON = (
    ("runtime.plan_pct", "%"),
    ("runtime.requests", "count"),
    ("runtime.cache_misses", "count"),
    ("serve.simulate_fleet_pct", "%"),
    ("serve.build_report_pct", "%"),
    ("serve.arrivals_pct", "%"),
    ("serve.arrivals", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_miss", "count"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "req"),
    ("serve.requests_per_s", "1/s"),
)
LLM = (
    ("serve.decode_steps", "count"),
    ("serve.kv_recharges", "count"),
    ("serve.kv_migrations", "count"),
    ("serve.tokens", "count"),
)
_SERVE_COUNTERS = ("arrivals", "completed", "rejected", "deadline_miss",
                   "batches", "batched_requests", "decode_steps",
                   "kv_recharges", "kv_migrations", "tokens")


def layer_catalogue():
    return ([(f"cnn.{name}", unit) for name, unit in COMMON]
            + [(f"llm.{name}", unit) for name, unit in COMMON + LLM])


def _fleet_counters(fleet_report):
    return {
        name: sum(fleet_report["metrics"].get(f"serve.{name}", {}).values())
        for name in _SERVE_COUNTERS
    }


class Workload:
    name = "serve_des"
    parts = tuple(SCENARIOS)

    def __init__(self, references):
        self.references = references["serve_des"]
        self.plan_counters = {}
        self.begin_pass()

    def begin_pass(self):
        """Reset the per-pass counter totals (the traced pass has its own)."""
        self.totals = {part: dict.fromkeys(_SERVE_COUNTERS, 0)
                       for part in self.parts}
        self.sim_ops = dict.fromkeys(self.parts, 0)

    def setup(self):
        from repro.serve import load_scenario

        self.scenarios = {}
        self.profiles = {}
        for part, (ref, horizon) in SCENARIOS.items():
            scenario = load_scenario(ref).override(duration=horizon)
            self.scenarios[part] = scenario
            self.profiles[part], _manifest = self._plan(scenario)

    @staticmethod
    def _plan(scenario):
        from repro.serve import prepare_profiles

        return prepare_profiles(scenario, use_cache=False)

    def patch(self, tracer):
        import repro.serve
        import repro.serve.engine

        tracer.patch(repro.serve, "prepare_profiles", "runtime.plan")
        tracer.patch(repro.serve, "simulate_fleet", "serve.simulate_fleet")
        tracer.patch(repro.serve.engine, "build_report",
                     "serve.build_report")
        tracer.patch_iterator(repro.serve.engine, "iter_arrivals",
                              "serve.arrivals")

    def plan_traced(self, part, clock):
        """One cold planning pass inside the part's traced time."""
        from repro.obs.metrics import counter_totals

        with clock.measure(part):
            _profiles, manifest = self._plan(self.scenarios[part])
        # The runtime's counters travel in the manifest, not the
        # active registry.
        self.plan_counters[part] = counter_totals(manifest.metrics)

    def run_op(self, part, rng, clock, first):
        import repro.serve
        import repro.serve.engine
        from repro.serve import validate_serve_report

        base = self.scenarios[part]
        scenario = base if first else base.override(
            seed=rng.randrange(1, 2 ** 31))
        fleet = next(iter(scenario.fleets))
        with clock.measure(part):
            fleet_report = repro.serve.simulate_fleet(
                scenario, fleet, self.profiles[part])
            report = repro.serve.engine.build_report(
                scenario, [fleet], {fleet: fleet_report})
        counters = _fleet_counters(fleet_report)
        for name, value in counters.items():
            self.totals[part][name] += value
        self.sim_ops[part] += 1
        try:
            validate_serve_report(report)
        except ValueError as exc:
            return False, f"{part}: report fails the schema: {exc}"
        for tenant, row in fleet_report["tenants"].items():
            if row["arrivals"] != row["completed"] + row["rejected"]:
                return False, (f"{part}: tenant {tenant} lost requests: "
                               f"{row['arrivals']} arrivals, "
                               f"{row['completed']} completed, "
                               f"{row['rejected']} rejected")
        if first:
            digest = canonical_digest(report)
            want = self.references[part]["digest"]
            if digest != want:
                return False, (f"{part}: report digest {digest[:16]} != "
                               f"reference {want[:16]}")
        return True, None

    def layer_metrics(self, tracer):
        out = {}
        for part in self.parts:
            _, op_total, _ = tracer.get(part, "op")
            ops = max(self.sim_ops[part], 1)
            totals = self.totals[part]
            plan = self.plan_counters.get(part, {})
            sim_s = tracer.get(part, "serve.simulate_fleet")[1]

            def pct(span):
                return 100.0 * tracer.get(part, span)[1] / op_total

            out.update({
                f"{part}.runtime.plan_pct": pct("runtime.plan"),
                f"{part}.runtime.requests": plan.get("runtime.requests", 0),
                f"{part}.runtime.cache_misses": plan.get(
                    "runtime.cache.misses", 0),
                f"{part}.serve.simulate_fleet_pct": pct(
                    "serve.simulate_fleet"),
                f"{part}.serve.build_report_pct": pct("serve.build_report"),
                f"{part}.serve.arrivals_pct": pct("serve.arrivals"),
                f"{part}.serve.batch_size_mean": (
                    totals["batched_requests"] / max(totals["batches"], 1)),
                f"{part}.serve.requests_per_s": (
                    totals["arrivals"] / sim_s if sim_s else 0.0),
            })
            # Per-operation means of the counters the catalogue names.
            for name, _unit in COMMON + (LLM if part == "llm" else ()):
                counter = name.removeprefix("serve.")
                if counter in totals:
                    out[f"{part}.{name}"] = totals[counter] / ops
        return out
