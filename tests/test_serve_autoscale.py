"""Autoscaler tests: policies, hysteresis, lifecycle, and the pinned
flash-crowd acceptance property.

Unit tests drive :class:`~repro.serve.Autoscaler` and the elastic
:class:`~repro.serve.ClusterState` lifecycle directly; the acceptance
tests at the bottom plan real service profiles for the committed
``flash_crowd`` scenario once per module and pin the PR's headline
claim — the autoscaled heterogeneous fleet holds every tenant's p99
under its SLO using strictly fewer card-seconds than the
statically peak-provisioned fleet.
"""

import pytest

from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    RoutingConfig,
    Scenario,
    ServiceProfile,
    TenantSpec,
    make_autoscale_policy,
    prepare_profiles,
    select_cluster,
    simulate_fleet,
)
from repro.serve.dispatch import BatchSchedule, ClusterState
from repro.serve.fields import read_block
from repro.serve.scenario import (
    BatchConfig,
    Overheads,
    load_scenario,
    resolve_fleet_cluster,
)


def _config(**kw):
    kw.setdefault("policy", "queue_depth")
    kw.setdefault("evaluation_interval_seconds", 5.0)
    kw.setdefault("hysteresis_seconds", 30.0)
    kw.setdefault("up_threshold", 8.0)
    kw.setdefault("down_threshold", 0.0)
    return AutoscaleConfig(**kw)


def _slo_tenant(name="slo", deadline=10.0, budget=0.1):
    return TenantSpec(name=name, model="resnet18", process="uniform",
                      rate_rps=1.0, deadline_seconds=deadline,
                      slo_budget=budget)


class TestConfig:
    def test_thresholds_must_form_a_band(self):
        with pytest.raises(ValueError, match="strictly below"):
            _config(up_threshold=2.0, down_threshold=2.0)

    def test_replica_band_validated(self):
        with pytest.raises(ValueError, match="max_replicas"):
            _config(min_replicas=5, max_replicas=4)
        with pytest.raises(ValueError, match="min_replicas"):
            _config(min_replicas=-1)

    def test_round_trip(self):
        config = _config(policy="burn_rate", up_threshold=1.5,
                         down_threshold=0.25, fleets=("elastic",))
        assert read_block(AutoscaleConfig, config.to_dict(),
                          "autoscale") == config

    def test_fleet_scoping(self):
        assert _config().applies_to("anything")
        scoped = _config(fleets=("elastic",))
        assert scoped.applies_to("elastic")
        assert not scoped.applies_to("static-peak")

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown autoscale policy"):
            _config(policy="predictive")
        with pytest.raises(KeyError, match="unknown autoscale policy"):
            make_autoscale_policy("predictive")


class TestPolicies:
    def test_queue_depth_directions(self):
        scaler = Autoscaler(_config(up_threshold=8.0, down_threshold=0.0,
                                    scale_up_step=2), [_slo_tenant()])
        delta, signal = scaler.evaluate(5.0, queue_depth=9,
                                        active_replicas=0)
        assert (delta, signal) == (2, 9.0)
        scaler.last_scale_time = None
        delta, _ = scaler.evaluate(10.0, queue_depth=3, active_replicas=1)
        assert delta == 0
        delta, _ = scaler.evaluate(15.0, queue_depth=0, active_replicas=1)
        assert delta == -1

    def test_burn_rate_tracks_windowed_p99_vs_deadline(self):
        tenant = _slo_tenant(deadline=10.0, budget=0.5)
        scaler = Autoscaler(_config(policy="burn_rate", up_threshold=0.8,
                                    down_threshold=0.1), [tenant])
        for latency in (9.0, 9.0, 9.5):
            scaler.observe_completion("slo", latency, missed=False)
        delta, signal = scaler.evaluate(5.0, queue_depth=1,
                                        active_replicas=0)
        # p99 ~ 9.5 s against a 10 s deadline: burn ~0.95 >= 0.8 -> up.
        assert delta == 1
        assert signal >= 0.9

    def test_burn_rate_tracks_miss_fraction_vs_budget(self):
        tenant = _slo_tenant(deadline=10.0, budget=0.1)
        scaler = Autoscaler(_config(policy="burn_rate", up_threshold=2.0,
                                    down_threshold=0.1), [tenant])
        for missed in (True, False, False, False):
            scaler.observe_completion("slo", 1.0, missed=missed)
        _, signal = scaler.evaluate(5.0, queue_depth=0,
                                    active_replicas=1)
        # miss fraction 0.25 over budget 0.1 -> burn 2.5.
        assert signal == pytest.approx(2.5)

    def test_burn_rate_never_shrinks_with_backlog(self):
        scaler = Autoscaler(_config(policy="burn_rate", up_threshold=1.0,
                                    down_threshold=0.2), [_slo_tenant()])
        delta, _ = scaler.evaluate(5.0, queue_depth=4, active_replicas=2)
        assert delta == 0  # quiet tail but non-empty queue: hold

    def test_windows_reset_between_evaluations(self):
        scaler = Autoscaler(_config(policy="burn_rate", up_threshold=5.0,
                                    down_threshold=0.1), [_slo_tenant()])
        scaler.observe_completion("slo", 9.0, missed=True)
        _, first = scaler.evaluate(5.0, 0, 1)
        scaler.last_scale_time = None
        _, second = scaler.evaluate(10.0, 0, 1)
        assert first > 0.0
        assert second == 0.0

    def test_non_slo_tenants_are_invisible(self):
        scaler = Autoscaler(_config(policy="burn_rate"),
                            [TenantSpec(name="batch", model="resnet18",
                                        process="uniform", rate_rps=1.0)])
        scaler.observe_completion("batch", 1e6, missed=False)
        _, signal = scaler.evaluate(5.0, 0, 1)
        assert signal == 0.0


class TestHysteresis:
    def test_votes_suppressed_inside_hold_window(self):
        scaler = Autoscaler(_config(hysteresis_seconds=30.0),
                            [_slo_tenant()])
        delta, _ = scaler.evaluate(5.0, queue_depth=20, active_replicas=0)
        assert delta == 1
        scaler.note_scaled(5.0)
        # Same screaming signal 10 s later: held.
        delta, _ = scaler.evaluate(15.0, queue_depth=40,
                                   active_replicas=1)
        assert delta == 0
        # Past the hold window the policy votes again.
        delta, _ = scaler.evaluate(36.0, queue_depth=40,
                                   active_replicas=1)
        assert delta == 1

    def test_hysteresis_keys_off_actions_not_votes(self):
        scaler = Autoscaler(_config(hysteresis_seconds=30.0),
                            [_slo_tenant()])
        delta, _ = scaler.evaluate(5.0, queue_depth=20, active_replicas=0)
        assert delta == 1
        # The engine could NOT apply it (already at max): no note_scaled,
        # so the next evaluation is not suppressed.
        delta, _ = scaler.evaluate(10.0, queue_depth=20,
                                   active_replicas=0)
        assert delta == 1


def _profile(cluster_name, compute_seconds, model="resnet18"):
    return ServiceProfile(
        model=model, params="paper", cluster_name=cluster_name,
        compute_seconds=compute_seconds, ciphertext_bytes=1e6,
        io_bandwidth=16e9, cache_hit=False,
    )


def _elastic_scenario(**kw):
    kw.setdefault("name", "unit-elastic")
    kw.setdefault("duration_seconds", 120.0)
    kw.setdefault("seed", 5)
    kw.setdefault("tenants", (
        TenantSpec(name="t0", model="resnet18", process="uniform",
                   rate_rps=0.5, deadline_seconds=30.0),
    ))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    kw.setdefault("batch", BatchConfig(max_requests=1,
                                       window_seconds=0.0))
    kw.setdefault("overheads", Overheads(batch_setup_seconds=0.0))
    return Scenario(**kw)


class TestEngineIntegration:
    def test_constant_moderate_load_never_flaps(self):
        # Service keeps up with arrivals: depth never reaches the up
        # threshold, and min_replicas floors the pool, so a full run
        # produces ZERO scale events — hysteresis plus thresholds must
        # not oscillate on a flat workload.
        scenario = _elastic_scenario(
            autoscale=AutoscaleConfig(
                policy="queue_depth", cluster="Hydra-S",
                min_replicas=1, max_replicas=3,
                evaluation_interval_seconds=5.0, warmup_seconds=5.0,
                hysteresis_seconds=10.0, up_threshold=8.0,
                down_threshold=0.0),
        )
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=1.0)}
        report = simulate_fleet(scenario, "f", profiles)
        autoscale = report["autoscale"]
        assert autoscale["scale_ups"] == 0
        assert autoscale["scale_downs"] == 0
        assert autoscale["final_replicas"] == 1
        assert autoscale["evaluations"] >= 20

    def test_overload_scales_up_and_drains(self):
        # Static Hydra-S alone is 4x oversubscribed; elastic replicas
        # must come up, absorb the backlog, and retire afterwards.
        scenario = _elastic_scenario(
            duration_seconds=200.0,
            tenants=(TenantSpec(name="t0", model="resnet18",
                                process="flash", rate_rps=0.25,
                                deadline_seconds=60.0, slo_budget=0.5,
                                arrival_extra=(
                                    ("spike_duration_seconds", 60.0),
                                    ("spike_multiplier", 8.0),
                                    ("spike_start_seconds", 40.0),
                                )),),
            autoscale=AutoscaleConfig(
                policy="queue_depth", cluster="Hydra-S",
                min_replicas=0, max_replicas=3,
                evaluation_interval_seconds=5.0, warmup_seconds=5.0,
                hysteresis_seconds=10.0, up_threshold=3.0,
                down_threshold=0.0),
        )
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=2.0)}
        report = simulate_fleet(scenario, "f", profiles)
        autoscale = report["autoscale"]
        assert autoscale["scale_ups"] >= 1
        assert autoscale["scale_downs"] >= 1
        assert autoscale["peak_replicas"] >= 1
        assert autoscale["final_replicas"] == 0
        # Consecutive scale actions respect the hysteresis hold.
        times = [e["time"] for e in autoscale["events"]]
        assert all(b - a >= 10.0 - 1e-9
                   for a, b in zip(times, times[1:]))
        # Card-seconds are billed only over elastic active spans.
        elastic = [c for c in report["clusters"] if c["elastic"]]
        assert elastic
        for cluster in elastic:
            assert cluster["card_seconds"] < report["makespan_seconds"]

    def test_report_splits_static_and_elastic_cost(self):
        scenario = _elastic_scenario(
            autoscale=AutoscaleConfig(
                policy="queue_depth", cluster="Hydra-S",
                min_replicas=1, max_replicas=2,
                evaluation_interval_seconds=5.0,
                hysteresis_seconds=10.0,
                up_threshold=8.0, down_threshold=0.0),
        )
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=1.0)}
        report = simulate_fleet(scenario, "f", profiles)
        cost = report["card_seconds"]
        assert cost["total"] == pytest.approx(cost["static"]
                                              + cost["elastic"])
        assert cost["static"] > 0
        assert cost["elastic"] > 0  # the min_replicas floor runs always


class TestElasticLifecycle:
    def _cluster(self, **kw):
        _, spec = resolve_fleet_cluster("Hydra-S")
        kw.setdefault("index", 0)
        kw.setdefault("name", "Hydra-S")
        kw.setdefault("replica", 0)
        kw.setdefault("spec", spec)
        kw.setdefault("mode", "pipelined")
        return ClusterState(**kw)

    def test_warming_replica_is_not_dispatchable(self):
        cluster = self._cluster(active_from=50.0, elastic=True)
        assert not cluster.available(49.0)
        assert cluster.available(50.0)
        assert cluster.compute_free_at == 50.0

    def test_retired_replica_bills_until_drain(self):
        cluster = self._cluster(elastic=True)
        schedule = cluster.plan_batch(0.0, t_in=1.0, t_compute=8.0,
                                      t_out=1.0)
        cluster.commit_batch(schedule, size=1)
        cluster.retire(5.0)
        assert not cluster.available(6.0)
        assert cluster.active_until(100.0) == pytest.approx(10.0)
        assert cluster.card_seconds(100.0) == pytest.approx(10.0)

    def test_never_activated_replica_bills_zero(self):
        cluster = self._cluster(active_from=80.0, elastic=True)
        cluster.retire(80.0)
        assert cluster.card_seconds(100.0) == 0.0


class TestSloRouting:
    def _plans(self):
        plans = []
        for i, (name, completion) in enumerate(
                [("Hydra-L", 5.0), ("Hydra-M", 12.0)]):
            _, spec = resolve_fleet_cluster(name)
            cluster = ClusterState(index=i, name=name, replica=0,
                                   spec=spec, mode="pipelined")
            schedule = BatchSchedule(
                ingress_start=0.0, ingress_end=1.0, compute_start=1.0,
                compute_end=completion - 1.0,
                egress_start=completion - 1.0, egress_end=completion)
            plans.append((schedule, cluster))
        return plans

    def test_greedy_takes_earliest_completion(self):
        _, cluster = select_cluster(self._plans(), RoutingConfig(), 20.0)
        assert cluster.name == "Hydra-L"

    def test_slo_takes_cheapest_feasible(self):
        routing = RoutingConfig(mode="slo")
        _, cluster = select_cluster(self._plans(), routing, 20.0)
        assert cluster.name == "Hydra-M"  # 8 cards beat 64, both make it

    def test_slo_safety_margin_disqualifies_tight_fits(self):
        routing = RoutingConfig(mode="slo", safety_margin_seconds=10.0)
        _, cluster = select_cluster(self._plans(), routing, 20.0)
        assert cluster.name == "Hydra-L"  # M finishes at 12 > 20 - 10

    def test_slo_without_deadline_falls_back_to_greedy(self):
        routing = RoutingConfig(mode="slo")
        _, cluster = select_cluster(self._plans(), routing, None)
        assert cluster.name == "Hydra-L"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown routing mode"):
            RoutingConfig(mode="fastest")


@pytest.fixture(scope="module")
def flash_scenario():
    # The committed scenario, untouched: the acceptance property below
    # is pinned on exactly what `repro serve flash_crowd` runs.
    return load_scenario("flash_crowd")


@pytest.fixture(scope="module")
def flash_reports(flash_scenario):
    profiles, _ = prepare_profiles(flash_scenario, jobs=4)
    return {fleet: simulate_fleet(flash_scenario, fleet, profiles)
            for fleet in flash_scenario.fleets}


class TestFlashCrowdAcceptance:
    """The PR's pinned acceptance property, on the committed scenario."""

    def test_elastic_holds_every_slo(self, flash_scenario, flash_reports):
        elastic = flash_reports["elastic"]
        for tenant in flash_scenario.tenants:
            if tenant.deadline_seconds is None:
                continue
            stats = elastic["tenants"][tenant.name]
            assert stats["latency_seconds"]["p99"] \
                <= tenant.deadline_seconds, (
                    f"{tenant.name}: autoscaled fleet must hold p99 "
                    f"under the {tenant.deadline_seconds} s deadline"
                )
            assert stats["slo"]["miss_fraction"] <= tenant.slo_budget
        assert elastic["queue"]["rejected"] == 0

    def test_elastic_costs_strictly_fewer_card_seconds(
            self, flash_reports):
        elastic = flash_reports["elastic"]["card_seconds"]["total"]
        static = flash_reports["static-peak"]["card_seconds"]["total"]
        assert elastic < static, (
            "autoscaling must beat static peak provisioning on "
            "card-seconds or the whole exercise is pointless"
        )

    def test_scale_up_fires_before_budget_exhausts(self, flash_reports):
        elastic = flash_reports["elastic"]
        autoscale = elastic["autoscale"]
        assert autoscale["scale_ups"] >= 1
        # The flight recorder latches the FIRST trigger: if the SLO
        # budget had burned out before the autoscaler reacted, the
        # latched reason would be slo_budget_exceeded.
        first = elastic["flight_recorder"]["first_trigger"]
        assert first is not None
        assert first["reason"] == "scale_up"
        for tenant in elastic["tenants"].values():
            if tenant["slo"] is not None:
                assert tenant["slo"]["burn_rate"] < 1.0

    def test_slo_routing_segregates_heavy_batches(self, flash_reports):
        # bert (no deadline) lands on the big Hydra-L; deadline-carrying
        # resnet traffic fills the elastic Hydra-M pool when it is up.
        clusters = {f"{c['name']}#{c['replica']}": c
                    for c in flash_reports["elastic"]["clusters"]}
        assert clusters["Hydra-L#0"]["requests"] > 0
        elastic_requests = sum(c["requests"] for c in clusters.values()
                               if c["elastic"])
        assert elastic_requests > 0
