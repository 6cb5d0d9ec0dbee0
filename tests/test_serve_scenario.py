"""Unit tests for repro.serve scenarios, arrivals, and queueing."""

import dataclasses
import json

import pytest

from repro.obs import nearest_rank
from repro.serve import (
    AdmissionQueue,
    Request,
    Scenario,
    TenantSpec,
    builtin_scenarios,
    generate_arrivals,
    load_scenario,
    make_policy,
    resolve_fleet_cluster,
)
from repro.serve.scenario import BatchConfig, Overheads, TelemetryConfig


def _tenant(name="t0", **kw):
    kw.setdefault("model", "resnet18")
    return TenantSpec(name=name, **kw)


def _scenario(**kw):
    kw.setdefault("name", "unit")
    kw.setdefault("duration_seconds", 10.0)
    kw.setdefault("seed", 1)
    kw.setdefault("tenants", (_tenant(),))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    return Scenario(**kw)


class TestScenario:
    def test_builtin_scenarios_load_and_roundtrip(self):
        names = builtin_scenarios()
        assert {"steady_hydra_m", "fleet_m_vs_l",
                "mixed_tenants"} <= set(names)
        for name in names:
            scenario = load_scenario(name)
            again = Scenario.from_dict(scenario.to_dict())
            assert again == scenario

    def test_unknown_scenario_lists_builtins(self):
        with pytest.raises(FileNotFoundError, match="steady_hydra_m"):
            load_scenario("no_such_scenario")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _scenario(policy="lifo")

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            _scenario(dispatch="warp")

    def test_edf_needs_a_deadline(self):
        with pytest.raises(ValueError, match="edf"):
            _scenario(policy="edf")
        _scenario(policy="edf",
                  tenants=(_tenant(deadline_seconds=5.0),))

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _scenario(tenants=(_tenant("a"), _tenant("a")))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            _scenario(fleets={"f": ()})

    def test_override(self):
        scenario = _scenario()
        other = scenario.override(seed=9, duration=99.0,
                                  dispatch="serialized", policy="fair")
        assert (other.seed, other.duration_seconds) == (9, 99.0)
        assert (other.dispatch, other.policy) == ("serialized", "fair")
        assert scenario.override() == scenario

    def test_fleet_entry_registry_and_shorthand(self):
        registry_name, spec = resolve_fleet_cluster("Hydra-M")
        assert registry_name == "Hydra-M"
        assert spec.total_cards == 8
        registry_name, spec = resolve_fleet_cluster("hydra-2x4")
        assert registry_name is None
        assert spec.total_cards == 8
        with pytest.raises(KeyError):
            resolve_fleet_cluster("NoSuch-X")

    def test_bad_tenant_specs_rejected(self):
        with pytest.raises(ValueError, match="arrival process"):
            _tenant(process="bursty")
        with pytest.raises(ValueError, match="rate_rps"):
            _tenant(rate_rps=0.0)
        with pytest.raises(ValueError, match="unknown params 'toy'"):
            _tenant(params="toy")


class TestNonFiniteNumbers:
    """NaN and infinity fail at load time with one ``error:`` line.

    ``<= 0`` checks let them through: ``--duration nan`` printed an
    empty report and exited 0, and ``--duration inf`` never finished.
    """

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_cli_duration_flag(self, value):
        from repro.core.cli import main

        lines = []
        assert main(["serve", "steady_hydra_m", f"--duration={value}"],
                    out=lines.append) == 2
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: "), lines
        assert "finite" in lines[0]

    def test_override_rejects_non_finite(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                _scenario().override(duration=value)

    @pytest.mark.parametrize(("where", "token"), [
        ("duration_seconds", "NaN"),
        ("duration_seconds", "Infinity"),
        ("rate_rps", "NaN"),
        ("rate_rps", "Infinity"),
        ("deadline_seconds", "NaN"),
        ("deadline_seconds", "Infinity"),
        ("window_seconds", "NaN"),
        ("window_seconds", "Infinity"),
        ("batch_setup_seconds", "NaN"),
        ("batch_setup_seconds", "Infinity"),
        ("compute_per_extra_request", "NaN"),
        ("compute_per_extra_request", "Infinity"),
    ])
    def test_scenario_file(self, tmp_path, where, token):
        from repro.core.cli import main

        value = float(token.lower().replace("infinity", "inf"))
        doc = load_scenario("steady_hydra_m").to_dict()
        tenant = doc["tenants"][0]
        message = f"{where} must be positive and finite"
        if where == "duration_seconds":
            doc[where] = value
        elif where == "rate_rps":
            tenant["arrival"][where] = value
        elif where == "deadline_seconds":
            tenant[where] = value
        else:
            section = "batch" if where == "window_seconds" else "overheads"
            doc[section][where] = value
            message = f"{section}.{where} must be >= 0 and finite"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert token in path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_scenario(str(path))
        lines = []
        assert main(["serve", str(path)], out=lines.append) == 2
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: "), lines


def _set(doc, path, value):
    """Set ``doc[path[0]][path[1]]... = value``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _drop(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


#: Malformed scenario documents: (base scenario, mutation, field path
#: the one error line must name).  Each loaded with a traceback, loaded
#: and crashed mid-run, or loaded silently coerced before the field
#: table.
_MALFORMED = [
    ("steady_hydra_m", lambda d: _set(d, ["tenants"], [1]), "tenants[0]"),
    ("steady_hydra_m", lambda d: _set(d, ["fleets"], ["Hydra-M"]),
     "fleets"),
    ("steady_hydra_m", lambda d: _set(d, ["batch"], [1]), "batch"),
    ("steady_hydra_m", lambda d: _set(d, ["batch"], {"bogus": 1}),
     "batch.bogus"),
    ("steady_hydra_m", lambda d: _set(d, ["batch", "max_requests"], 1.5),
     "batch.max_requests"),
    ("steady_hydra_m",
     lambda d: _set(d, ["tenants", 0, "deadline_seconds"], "soon"),
     "tenants[0].deadline_seconds"),
    ("steady_hydra_m",
     lambda d: _set(d, ["tenants", 0, "arrival", "rate_rps"], None),
     "tenants[0].arrival.rate_rps"),
    ("llm_mixed",
     lambda d: _set(d, ["tenants", 1, "output_tokens", "mean"], "x"),
     "output_tokens.mean"),
    ("llm_mixed", lambda d: _set(d, ["tenants", 1, "prompt_tokens"], 5),
     "tenants[1].prompt_tokens"),
    ("steady_hydra_m",
     lambda d: _set(d, ["routing", "session_affinity"], "no"),
     "routing.session_affinity"),
    ("steady_hydra_m", lambda d: _set(d, ["seed"], 1.7), "seed"),
    ("steady_hydra_m", lambda d: _set(d, ["max_queue"], True), "max_queue"),
    ("steady_hydra_m",
     lambda d: _set(d, ["tenants", 0, "ciphertexts_in"], 1.5),
     "tenants[0].ciphertexts_in"),
    ("steady_hydra_m", lambda d: _set(d, ["duration_seconds"], "240"),
     "duration_seconds"),
    ("steady_hydra_m", lambda d: _set(d, ["duration_seconds"], 10 ** 400),
     "duration_seconds must be positive and finite"),
    ("steady_hydra_m", lambda d: _set(d, ["max_qeue"], 4), "max_qeue"),
    ("steady_hydra_m", lambda d: _drop(d, ["fleets"]), "fleets is required"),
    ("steady_hydra_m", lambda d: _set(d, ["tenants", 0, "model"], "bogus"),
     "unknown model 'bogus'"),
]


class TestMalformedScenarios:
    """Each malformed field is one ``ValueError`` naming its path, and
    ``repro serve`` turns it into one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(("base", "mutate", "path"), _MALFORMED,
                             ids=[case[2] for case in _MALFORMED])
    def test_scenario_file(self, tmp_path, base, mutate, path):
        from repro.core.cli import main

        doc = json.loads(json.dumps(load_scenario(base).to_dict()))
        mutate(doc)
        with pytest.raises(ValueError) as info:
            Scenario.from_dict(doc)
        assert path in str(info.value)
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        lines = []
        assert main(["serve", str(file)], out=lines.append) == 2
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: "), lines
        assert path in lines[0]


class TestArrivals:
    def test_uniform_spacing_and_phase(self):
        tenant = _tenant(process="uniform", rate_rps=0.5)
        times = generate_arrivals(tenant, 3, 10.0)
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]
        # Uniform arrivals are phase-locked, independent of the seed.
        assert generate_arrivals(tenant, 4, 10.0) == times

    def test_poisson_deterministic_and_seed_sensitive(self):
        tenant = _tenant(process="poisson", rate_rps=2.0)
        a = generate_arrivals(tenant, 7, 50.0)
        assert a == generate_arrivals(tenant, 7, 50.0)
        assert a == sorted(a)
        assert all(0 <= t < 50.0 for t in a)
        assert a != generate_arrivals(tenant, 8, 50.0)

    def test_tenant_streams_independent(self):
        # A tenant's arrivals depend only on (seed, its own name), so
        # adding neighbours never perturbs them.
        tenant = _tenant("alpha", process="poisson", rate_rps=1.0)
        renamed = dataclasses.replace(tenant, name="beta")
        assert (generate_arrivals(tenant, 5, 30.0)
                != generate_arrivals(renamed, 5, 30.0))


def _request(rid, tenant="t", arrival=0.0, key=("m", "paper"),
             deadline=None):
    return Request(id=rid, tenant=tenant, batch_key=key, arrival=arrival,
                   deadline=deadline)


class TestQueueing:
    def test_bounded_queue_rejects_explicitly(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=2)
        assert queue.offer(_request(0))
        assert queue.offer(_request(1))
        assert not queue.offer(_request(2))
        assert queue.rejected == 1
        assert len(queue) == 2

    def test_fifo_takes_arrival_order(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        for rid, arrival in ((0, 2.0), (1, 1.0), (2, 3.0)):
            queue.offer(_request(rid, arrival=arrival))
        batch = queue.take_batch(now=100.0, max_requests=2,
                                 window_seconds=1.0)
        assert [r.id for r in batch] == [1, 0]

    def test_fair_prefers_least_served_tenant(self):
        queue = AdmissionQueue(policy=make_policy("fair"), max_queue=8)
        queue.served = {"hog": 5}
        queue.offer(_request(0, tenant="hog", arrival=0.0))
        queue.offer(_request(1, tenant="newcomer", arrival=1.0))
        batch = queue.take_batch(now=100.0, max_requests=1,
                                 window_seconds=0.0)
        assert [r.tenant for r in batch] == ["newcomer"]
        assert queue.served["newcomer"] == 1

    def test_edf_prefers_earliest_deadline(self):
        queue = AdmissionQueue(policy=make_policy("edf"), max_queue=8)
        queue.offer(_request(0, arrival=0.0, deadline=None))
        queue.offer(_request(1, arrival=1.0, deadline=50.0))
        queue.offer(_request(2, arrival=2.0, deadline=9.0))
        batch = queue.take_batch(now=100.0, max_requests=3,
                                 window_seconds=0.0)
        assert [r.id for r in batch] == [2, 1, 0]

    def test_batch_window_gates_partial_batches(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        queue.offer(_request(0, arrival=0.0))
        # Not ripe: only 1 of 4 slots filled and the window is still open.
        assert queue.take_batch(now=0.5, max_requests=4,
                                window_seconds=2.0) is None
        # Window expiry makes the lone request ripe.
        batch = queue.take_batch(now=2.0, max_requests=4,
                                 window_seconds=2.0)
        assert [r.id for r in batch] == [0]

    def test_full_batch_ripe_before_window(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        for rid in range(5):
            queue.offer(_request(rid, arrival=0.0))
        batch = queue.take_batch(now=0.0, max_requests=4,
                                 window_seconds=60.0)
        assert [r.id for r in batch] == [0, 1, 2, 3]
        assert len(queue) == 1

    def test_batches_never_mix_keys(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        queue.offer(_request(0, arrival=0.0, key=("a", "paper")))
        queue.offer(_request(1, arrival=1.0, key=("b", "paper")))
        queue.offer(_request(2, arrival=2.0, key=("a", "paper")))
        batch = queue.take_batch(now=100.0, max_requests=4,
                                 window_seconds=0.0)
        assert [r.id for r in batch] == [0, 2]
        assert [r.id for r in queue.pending] == [1]

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="fifo"):
            make_policy("random")


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50) == 2.0
        assert nearest_rank(values, 95) == 4.0
        assert nearest_rank([7.0], 99) == 7.0

    def test_batch_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_requests=0)
        with pytest.raises(ValueError):
            BatchConfig(window_seconds=-1.0)
        with pytest.raises(ValueError, match="overheads.batch_setup"):
            Overheads(batch_setup_seconds=float("nan"))
        with pytest.raises(ValueError, match="telemetry.num_windows"):
            TelemetryConfig(num_windows=0)
