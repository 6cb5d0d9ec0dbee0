"""Unit tests for the planner (Procedure-2 step scheduling)."""

import pytest

from repro.hw import FAB_M, HYDRA_M, HYDRA_S
from repro.models import ModelGraph, Step
from repro.sched import Planner


def _tiny_model():
    g = ModelGraph(name="tiny", display_name="Tiny")
    g.add(Step(kind="convbn", name="c1", procedure="ConvBN", level=20,
               units=64, output_ciphertexts=4))
    g.add(Step(kind="nonlinear", name="r1", procedure="ReLU", level=18,
               jobs=4, degree=9))
    g.add(Step(kind="bootstrap", name="b1", procedure="Boot", level=30,
               jobs=2))
    g.add(Step(kind="fc", name="f1", procedure="FC", level=16,
               units=128, output_ciphertexts=1))
    return g


class TestPlannerBasics:
    def test_runs_all_step_kinds(self):
        r = Planner(HYDRA_M).run_model(_tiny_model())
        assert set(r.procedure_span) == {"ConvBN", "ReLU", "Boot", "FC"}
        assert r.total_seconds > 0

    def test_step_barrier_makespans_add(self):
        """Procedure 2: total = sum of per-step makespans."""
        r = Planner(HYDRA_M).run_model(_tiny_model())
        assert sum(r.procedure_span.values()) == pytest.approx(
            r.total_seconds
        )

    def test_single_card_never_communicates(self):
        r = Planner(HYDRA_S).run_model(_tiny_model())
        assert r.bytes_transferred == 0

    def test_multi_card_is_faster(self):
        one = Planner(HYDRA_S).run_model(_tiny_model())
        eight = Planner(HYDRA_M).run_model(_tiny_model())
        assert eight.total_seconds < one.total_seconds

    def test_energy_optional(self):
        r = Planner(HYDRA_M).run_model(_tiny_model(), with_energy=False)
        assert r.energy is None
        r2 = Planner(HYDRA_M).run_model(_tiny_model(), with_energy=True)
        assert r2.energy is not None and r2.energy.total > 0


class TestFabricAwareness:
    def test_comm_bandwidth_selection(self):
        assert Planner(HYDRA_S).comm_bandwidth == float("inf")
        assert Planner(HYDRA_M).comm_bandwidth == pytest.approx(12.5e9)
        assert Planner(FAB_M).comm_bandwidth == pytest.approx(1.25e9)

    def test_fab_slower_than_hydra_same_mapping(self):
        hydra = Planner(HYDRA_M).run_model(_tiny_model())
        fab = Planner(FAB_M).run_model(_tiny_model())
        assert fab.total_seconds > hydra.total_seconds


class TestWorkScale:
    def test_scale_applies_to_unit_steps_only(self):
        from repro.cost.calibration import Calibration
        g = _tiny_model()
        base = Planner(HYDRA_S).run_model(g, with_energy=False)
        doubled = Planner(
            HYDRA_S,
            calibration=Calibration(work_scale={"tiny": 2.0}),
        ).run_model(g, with_energy=False)
        # Unit-parallel spans double; boot and non-linear do not change.
        assert doubled.procedure_span["ConvBN"] == pytest.approx(
            2 * base.procedure_span["ConvBN"], rel=1e-6
        )
        assert doubled.procedure_span["Boot"] == pytest.approx(
            base.procedure_span["Boot"], rel=1e-6
        )
        assert doubled.procedure_span["ReLU"] == pytest.approx(
            base.procedure_span["ReLU"], rel=1e-6
        )

    def test_unit_work_multiplier(self):
        g1 = ModelGraph(name="a", display_name="A")
        g1.add(Step(kind="convbn", name="c", procedure="C", level=20,
                    units=64, output_ciphertexts=1))
        g2 = ModelGraph(name="b", display_name="B")
        g2.add(Step(kind="convbn", name="c", procedure="C", level=20,
                    units=64, unit_work=3.0, output_ciphertexts=1))
        p = Planner(HYDRA_S)
        t1 = p.run_model(g1, with_energy=False).total_seconds
        t2 = p.run_model(g2, with_energy=False).total_seconds
        assert t2 == pytest.approx(3 * t1, rel=1e-6)


class TestSpeedupHelper:
    def test_speedup_over(self):
        one = Planner(HYDRA_S).run_model(_tiny_model())
        eight = Planner(HYDRA_M).run_model(_tiny_model())
        assert eight.speedup_over(one) > 1.0
        assert one.speedup_over(one) == pytest.approx(1.0)


def _repeated_model():
    """Two distinct blocks, each repeated, with per-step names only
    telling the repeats apart."""
    g = ModelGraph(name="rep", display_name="Repeated")
    for i in range(3):
        g.add(Step(kind="convbn", name=f"conv{i}", procedure="ConvBN",
                   level=20, units=64, output_ciphertexts=4))
        g.add(Step(kind="nonlinear", name=f"relu{i}", procedure="ReLU",
                   level=18, jobs=4, degree=9))
    g.add(Step(kind="bootstrap", name="boot", procedure="Boot", level=30,
               jobs=2))
    g.add(Step(kind="convbn", name="conv3", procedure="ConvBN", level=20,
               units=64, output_ciphertexts=4))
    return g


def _reference_run(planner, model, trace):
    """Map and simulate every step afresh through the public API."""
    from repro.sched.planner import ModelRunResult
    from repro.sim import ProgramBuilder, Simulator
    from repro.sim.result import SimResult

    scale = model.work_scale * planner.calibration.work_scale.get(
        model.name, 1.0)
    ref = ModelRunResult(model_name=model.name,
                         cluster_name=planner.cluster.name)
    merged = SimResult()
    for step in model.steps:
        builder = ProgramBuilder(planner.cluster.total_cards)
        planner.map_step(step, builder, scale)
        sim = Simulator(planner.cluster, trace=trace).run(
            builder.build(), step=step.name)
        merged.merge_sequential(sim)
        proc = step.procedure
        ref.procedure_span[proc] = (
            ref.procedure_span.get(proc, 0.0) + sim.makespan)
        ref.procedure_compute[proc] = (
            ref.procedure_compute.get(proc, 0.0) + sim.mean_compute_busy)
        ref.procedure_comm[proc] = (
            ref.procedure_comm.get(proc, 0.0)
            + max(0.0, sim.makespan - sim.mean_compute_busy))
    ref.total_seconds = merged.makespan
    ref.bytes_transferred = merged.bytes_transferred
    ref.sim = merged
    return ref


class TestStepReplay:
    @pytest.mark.parametrize("trace", [False, True])
    def test_replay_matches_fresh_simulation(self, trace):
        model = _repeated_model()
        got = Planner(HYDRA_M).run_model(model, with_energy=False,
                                         trace=trace)
        want = _reference_run(Planner(HYDRA_M), model, trace)
        assert got.to_dict() == want.to_dict()

    def test_replayed_trace_events_carry_their_own_step(self):
        model = _repeated_model()
        result = Planner(HYDRA_M).run_model(model, with_energy=False,
                                            trace=True)
        by_step = {}
        for ev in result.sim.trace:
            by_step.setdefault(ev.step, []).append(ev)
        assert set(by_step) == {s.name for s in model.steps}
        # Steps run back to back: each step's events sit after all of
        # the previous step's events (the barrier shift).
        previous_end = 0.0
        for step in model.steps:
            events = by_step[step.name]
            assert min(ev.start for ev in events) >= previous_end - 1e-12
            previous_end = max(ev.end for ev in events)
        # A replayed step is its first occurrence, shifted in time.
        first, again = by_step["conv0"], by_step["conv1"]
        offset = again[0].start - first[0].start
        assert offset > 0
        assert [(ev.node, ev.kind, ev.tag, ev.channel) for ev in first] == \
            [(ev.node, ev.kind, ev.tag, ev.channel) for ev in again]
        for a, b in zip(first, again):
            assert b.start == pytest.approx(a.start + offset)
            assert b.end == pytest.approx(a.end + offset)

    def test_memo_hits_counted_and_not_shared_across_runs(self):
        from repro.obs.metrics import MetricsRegistry, use_registry
        from repro.core.system import HydraSystem
        from repro.runtime.cache import MemoryCache

        counts = []
        for _ in range(2):
            registry = MetricsRegistry()
            with use_registry(registry):
                system = HydraSystem.named("Hydra-S", cache=MemoryCache())
                system.run("opt_6_7b", use_cache=False)
            counters = registry.snapshot()["counters"]
            counts.append(tuple(
                sum(counters.get(name, {}).values())
                for name in ("sched.planner.step_memo_hits",
                             "sched.planner.steps_mapped",
                             "sim.engine.runs")))
        assert counts[0] == (351, 32, 32)
        assert counts[1] == counts[0]

    def test_memo_is_local_to_one_call(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        planner = Planner(HYDRA_S)
        registry = MetricsRegistry()
        with use_registry(registry):
            planner.run_model(_repeated_model(), with_energy=False)
            planner.run_model(_repeated_model(), with_energy=False)
        counters = registry.snapshot()["counters"]
        # 8 steps, 3 distinct contents (conv, relu, boot), twice over.
        assert sum(counters["sched.planner.steps_mapped"].values()) == 6
        assert sum(counters["sched.planner.step_memo_hits"].values()) == 10
