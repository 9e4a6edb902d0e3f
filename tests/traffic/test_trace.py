"""Trace record/replay: the versioned JSONL format and byte-exact replay."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cluster import CohortModel, Scenario, churn, edit, op, publish
from repro.cluster.presets import fault_drill_scenario
from repro.cluster.topology import ClusterWorld
from repro.core.sde import SDEConfig
from repro.errors import TraceError
from repro.evolve import abort_rollout, canary, rolling, upgrade
from repro.faults import (
    RetryPolicy,
    crash,
    drop_link,
    heal,
    partition,
    restart,
    restore_link,
)
from repro.obs.slo import BurnWindow, availability_slo, latency_slo
from repro.rmitypes import INT, STRING
from repro.traffic import TRACE_FORMAT, Poisson, TraceReader, record, replay
from repro.traffic.fuzz import build_scenario, case_strategy
from repro.traffic.trace import (
    echo_body,
    fingerprint_digest,
    noop_body,
    register_trace_body,
    scenario_from_spec,
    scenario_to_spec,
)


def small_world(
    *,
    soap_weight: float = 0.5,
    with_faults: bool = True,
    with_rollout: bool = False,
    arrival=0.001,
    cohort: CohortModel | None = None,
    clients: int = 24,
    sde_config: SDEConfig | None = None,
) -> Scenario:
    echo = op("echo", (("message", STRING),), STRING, body=echo_body)
    scenario = (
        Scenario(name="trace-world", sde_config=sde_config)
        .servers(2)
        .service("EchoSoap", [echo], technology="soap", replicas=2)
        .service("EchoCorba", [echo], technology="corba", replicas=2)
        .clients(
            clients,
            protocol_mix={"soap": soap_weight, "corba": round(1 - soap_weight, 2)},
            calls=2,
            operation="echo",
            arguments=("hi",),
            arrival=arrival,
            retry=RetryPolicy(max_attempts=3, timeout=0.08, backoff=0.005),
            cohort=cohort,
        )
    )
    if with_faults:
        scenario.at(0.02, crash("server-1")).at(0.08, restart("server-1"))
        scenario.at(0.03, partition("server-2")).at(0.07, heal("server-2"))
    if with_rollout:
        echo_v2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
        scenario.at(
            0.04,
            rolling(
                "EchoSoap",
                upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"}),
                batch_size=1,
                drain=0.005,
            ),
        )
    return scenario


class TestTraceFormat:
    def test_header_spec_calls_summary(self, tmp_path):
        path = tmp_path / "world.jsonl"
        report, reader = record(small_world(with_faults=False), path)
        kinds = [record_["kind"] for record_ in reader.records]
        assert kinds[0] == "header"
        assert kinds[1] == "scenario"
        assert kinds[-1] == "summary"
        assert reader.header["format"] == TRACE_FORMAT
        # One call record per completed (classified) call.
        completed = sum(len(client.rtts) for client in report.clients)
        assert len(reader.calls) == completed
        assert reader.summary["fingerprint_sha256"] == fingerprint_digest(report)
        # The file itself is plain JSONL.
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert len(lines) == len(reader.records)

    def test_timeline_firings_recorded(self, tmp_path):
        report, reader = record(small_world(), tmp_path / "t.jsonl")
        fired = [
            record_["event"]["kind"] for record_ in reader.records if record_["kind"] == "timeline"
        ]
        assert sorted(fired) == ["crash", "heal", "partition", "restart"]

    def test_until_round_trips(self, tmp_path):
        _, reader = record(small_world(with_faults=False), tmp_path / "u.jsonl", until=0.5)
        assert reader.until == 0.5

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"kind": "something"}\n')
        with pytest.raises(TraceError, match="missing header"):
            TraceReader(path)

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "header", "format": "repro-trace/99"}\n')
        with pytest.raises(TraceError, match="unsupported trace format"):
            TraceReader(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "header", "format": "%s"}\nnot json\n' % TRACE_FORMAT)
        with pytest.raises(TraceError, match="malformed trace record"):
            TraceReader(path)


class TestSpecValidation:
    def test_unregistered_body_rejected(self):
        scenario = Scenario().service(
            "Echo", [op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)]
        )
        with pytest.raises(TraceError, match="not traceable: register it"):
            scenario_to_spec(scenario)

    def test_opaque_timeline_action_rejected(self):
        scenario = small_world(with_faults=False).at(0.01, lambda runtime: None)
        with pytest.raises(TraceError, match="opaque"):
            scenario_to_spec(scenario)

    def test_non_scalar_arguments_rejected(self):
        scenario = Scenario().service("Echo", [op("echo")]).clients(
            1, service="Echo", arguments=(["nested"],)
        )
        with pytest.raises(TraceError, match="JSON scalars"):
            scenario_to_spec(scenario)

    @pytest.mark.parametrize(
        "where, key, value, named",
        [
            ("service", "policy", "sticky", "service 'EchoSoap'"),
            ("spec", "server_cores", 2, "the scenario spec"),
            ("group", "stale_operation", "gone", "client group 1"),
        ],
    )
    def test_a_key_replay_cannot_rebuild_is_rejected(self, where, key, value, named):
        # A spec key the reader does not read would replay as another world.
        spec = scenario_to_spec(small_world(with_faults=False))
        target = {
            "spec": spec,
            "service": spec["services"][0],
            "group": spec["client_groups"][0],
        }[where]
        target[key] = value
        with pytest.raises(TraceError, match=rf"{named} records \['{key}'\]"):
            scenario_from_spec(spec)

    @pytest.mark.parametrize(
        "where, key, named",
        [
            ("spec", "services", "the scenario spec"),
            ("service", "technology", "service 'EchoSoap'"),
            ("group", "offsets", "client group 1"),
            ("timeline", "time", "timeline entry 1"),
        ],
    )
    def test_a_missing_key_is_rejected_by_name(self, where, key, named):
        spec = scenario_to_spec(small_world())
        target = {
            "spec": spec,
            "service": spec["services"][0],
            "group": spec["client_groups"][0],
            "timeline": spec["timeline"][0],
        }[where]
        del target[key]
        with pytest.raises(TraceError, match=rf"{named} lacks \['{key}'\]"):
            scenario_from_spec(spec)

    @pytest.mark.parametrize(
        "mutate, named",
        [
            pytest.param(
                lambda s: s["client_groups"][0]["retry"].update(jitter=0.01),
                r"client group 1 retry records \['jitter'\]",
                id="retry-extra-key",
            ),
            pytest.param(
                lambda s: s["client_groups"][0].update(retry=[s["client_groups"][0]["retry"]]),
                r"client group 1 retry is \[.*\], not an object",
                id="retry-as-list",
            ),
            pytest.param(
                lambda s: s["client_groups"][0]["cohort"].update(seed=3),
                r"client group 1 cohort records \['seed'\]",
                id="cohort-extra-key",
            ),
            pytest.param(
                lambda s: s["sde_config"].update(server_threads=4),
                r"sde_config records \['server_threads'\]",
                id="sde-config-unknown-key",
            ),
            pytest.param(
                lambda s: s["services"][0]["operations"][0].pop("returns"),
                r"service 'EchoSoap' operations 'echo' lacks \['returns'\]",
                id="operation-without-returns",
            ),
            pytest.param(
                lambda s: s["services"][0]["operations"][0].update(returns="quaternion"),
                r"service 'EchoSoap' operations 'echo': 'quaternion' is not a primitive",
                id="unknown-return-type",
            ),
            pytest.param(
                lambda s: _event(s, "crash").pop("server"),
                r"timeline entry 1 \(crash\) lacks \['server'\]",
                id="crash-without-server",
            ),
            pytest.param(
                lambda s: s["client_groups"][0]["retry"].update(max_attempts=0),
                r"client group 1 retry: max_attempts must be >= 1",
                id="retry-max-attempts-0",
            ),
            pytest.param(
                lambda s: s["client_groups"][0].update(count=0, offsets=[]),
                r"client group 1: a client group needs at least one client",
                id="group-count-0",
            ),
            pytest.param(
                lambda s: s["services"][0].update(replicas=0),
                r"service 'EchoSoap': service 'EchoSoap' needs at least one replica",
                id="service-replicas-0",
            ),
            pytest.param(
                lambda s: _event(s, "rolling").update(batch_size=0),
                r"timeline entry 5 \(rolling\): batch_size must be at least 1",
                id="rolling-batch-size-0",
            ),
            pytest.param(
                lambda s: _event(s, "rolling").update(change=None),
                r"timeline entry 5 \(rolling\): .*must be an InterfaceUpgrade, got None",
                id="rolling-change-null",
            ),
        ],
    )
    def test_a_malformed_record_is_rejected_by_name(self, monkeypatch, mutate, named):
        # Each record is checked by its class's own __post_init__ as it is
        # read, so the reader refuses it before any world is built.
        spec = scenario_to_spec(
            small_world(
                with_rollout=True,
                cohort=CohortModel(representatives=8),
                sde_config=SDEConfig(generation_cost=0.01),
            )
        )
        mutate(spec)

        def no_world(*_args, **_kwargs):
            raise AssertionError("a world was built from a malformed spec")

        monkeypatch.setattr(ClusterWorld, "__init__", no_world)
        with pytest.raises(TraceError, match=named):
            scenario_from_spec(spec)

    def test_offsets_count_mismatch_rejected(self):
        spec = scenario_to_spec(small_world(with_faults=False))
        spec["client_groups"][0]["offsets"] = [0.0]
        with pytest.raises(TraceError, match="offsets"):
            scenario_from_spec(spec)

    def test_unknown_body_name_rejected_on_replay(self):
        spec = scenario_to_spec(small_world(with_faults=False))
        spec["services"][0]["operations"][0]["body"] = "never-registered"
        with pytest.raises(TraceError, match="unregistered operation body"):
            scenario_from_spec(spec)

    def test_register_trace_body_round_trips(self):
        def shout(_self, message):
            return str(message).upper()

        register_trace_body("test-shout", shout)
        scenario = Scenario().service(
            "Loud", [op("shout", (("m", STRING),), STRING, body=shout)]
        )
        spec = scenario_to_spec(scenario)
        assert spec["services"][0]["operations"][0]["body"] == "test-shout"
        rebuilt = scenario_from_spec(spec)
        assert rebuilt._services[0].operations[0].body is shout


def _event(spec, kind):
    """The first timeline event of ``kind`` in ``spec``."""
    return next(e["event"] for e in spec["timeline"] if e["event"]["kind"] == kind)


def slo_world() -> Scenario:
    return small_world(with_faults=False).slo(
        availability_slo("echo-availability", objective=0.99),
        latency_slo(
            "echo-p99",
            threshold_s=0.02,
            service="EchoSoap",
            windows=[BurnWindow(long_s=0.1, short_s=0.01, factor=4.0)],
        ),
    )


class TestSpecRoundTrip:
    @seed(0)
    @given(case=case_strategy())
    @settings(max_examples=25, deadline=None)
    def test_every_fuzz_case_round_trips(self, case):
        # A field the writer drops or the reader ignores breaks this.
        spec = json.loads(json.dumps(scenario_to_spec(build_scenario(case))))
        assert scenario_to_spec(scenario_from_spec(spec)) == spec

    def test_declared_slos_round_trip(self):
        spec = json.loads(json.dumps(scenario_to_spec(slo_world())))
        assert [slo["name"] for slo in spec["slos"]] == ["echo-availability", "echo-p99"]
        assert scenario_to_spec(scenario_from_spec(spec)) == spec
        assert scenario_from_spec(spec)._slos == slo_world()._slos


class TestReplayByteIdentity:
    def test_fault_drill_replays_byte_identical(self, tmp_path):
        report, reader = record(fault_drill_scenario(clients=64), tmp_path / "d.jsonl")
        replayed = replay(reader).run(until=reader.until)
        assert replayed.fingerprint() == report.fingerprint()
        assert fingerprint_digest(replayed) == reader.fingerprint_digest

    def test_replay_accepts_a_path(self, tmp_path):
        path = tmp_path / "p.jsonl"
        report, _ = record(small_world(with_faults=False), path)
        assert replay(path).run().fingerprint() == report.fingerprint()

    def test_seeded_arrivals_are_not_resampled(self, tmp_path):
        # The replayed scenario carries the resolved floats, not the
        # process: its group's arrival is a plain offsets table.
        path = tmp_path / "s.jsonl"
        process = Poisson(rate=400.0, seed=11)
        report, reader = record(
            small_world(with_faults=False, arrival=process), path
        )
        rebuilt = replay(reader)
        group = rebuilt._client_groups[0]
        assert not isinstance(group.arrival, Poisson)
        assert [group.arrival(i) for i in range(group.count)] == process.offsets(
            group.count
        )
        assert rebuilt.run().fingerprint() == report.fingerprint()

    def test_declared_slos_replay_with_equal_results(self, tmp_path):
        report, reader = record(slo_world(), tmp_path / "slo.jsonl")
        replayed = replay(reader).run(until=reader.until)
        assert fingerprint_digest(replayed) == reader.fingerprint_digest
        assert [r.to_dict() for r in replayed.slo_results] == [
            r.to_dict() for r in report.slo_results
        ]
        assert [r.name for r in replayed.slo_results] == ["echo-availability", "echo-p99"]

    def test_an_observed_trace_replays_only_observed(self, tmp_path):
        # Observability is not part of the spec, yet it shapes the run: its
        # in-band context headers lengthen messages and its sampler ticks
        # are events.  So an observed recording replays to its fingerprint
        # only when the replay is observed too.
        report, reader = record(small_world(), tmp_path / "obs.jsonl", obs=True)
        assert reader.spans
        observed = replay(reader).run(until=reader.until, obs=True)
        assert fingerprint_digest(observed) == reader.fingerprint_digest
        unobserved = replay(reader).run(until=reader.until)
        assert unobserved.fingerprint() != report.fingerprint()

    def test_cohort_world_replays_byte_identical(self, tmp_path):
        report, reader = record(
            small_world(
                with_faults=True,
                clients=200,
                cohort=CohortModel(representatives=16),
            ),
            tmp_path / "c.jsonl",
        )
        assert len(reader.flows) > 0
        replayed = replay(reader).run(until=reader.until)
        assert replayed.cohort_fingerprint() == report.cohort_fingerprint()
        assert replayed.fingerprint() == report.fingerprint()

    @given(
        soap_weight=st.sampled_from([0.25, 0.5, 0.75]),
        with_faults=st.booleans(),
        with_rollout=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_record_replay_property(
        self, tmp_path_factory, soap_weight, with_faults, with_rollout, seed
    ):
        # The satellite property: across soap/corba mixes, fault schedules
        # and a rolling upgrade, record -> replay is always byte-identical.
        path = tmp_path_factory.mktemp("traces") / "world.jsonl"
        scenario = small_world(
            soap_weight=soap_weight,
            with_faults=with_faults,
            with_rollout=with_rollout,
            arrival=Poisson(rate=300.0, seed=seed),
        )
        report, reader = record(scenario, path)
        replayed = replay(reader).run(until=reader.until)
        assert replayed.fingerprint() == report.fingerprint()
        assert replayed.cohort_fingerprint() == report.cohort_fingerprint()


def all_kinds_world() -> Scenario:
    """A scenario whose run fires every timeline action kind once."""
    echo = op("echo", (("message", STRING),), STRING, body=echo_body)
    echo_v2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
    change = upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"})
    return (
        Scenario(name="all-kinds", sde_config=SDEConfig(generation_cost=0.01))
        .servers(3)
        .service("EchoSoap", [echo], technology="soap", replicas=3)
        .service("EchoCorba", [echo], technology="corba", replicas=2)
        .clients(
            12,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=8,
            operation="echo",
            arguments=("hi",),
            think_time=0.02,
            arrival=0.002,
            retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
        )
        .at(0.010, crash(0))
        .at(0.015, partition("server-2", "fleet-client-1"))
        .at(0.020, drop_link("server-3", "fleet-client-2", loss=0.3, jitter=0.002, seed=7))
        .at(
            0.025,
            edit("EchoCorba", op("extra"), op("tally", (("n", INT),), INT, body=noop_body)),
        )
        .at(0.030, publish("EchoCorba"))
        .at(0.035, churn("EchoCorba", rounds=2, period=0.01))
        .at(0.050, restart("server-1"))
        .at(0.055, restore_link("server-3", "fleet-client-2"))
        .at(0.060, heal())
        .at(0.070, canary("EchoSoap", change, fraction=0.34, promote_after=0.05))
        .at(0.080, abort_rollout("EchoSoap"))
        .at(0.100, rolling("EchoSoap", change, batch_size=1, drain=0.005))
    )


#: SHA-256 of the all-kinds world's trace file.  The trace format is a
#: contract: a change to how any timeline action is written shows here.
ALL_KINDS_TRACE_SHA256 = "0daa9079ae4b4317cac55d5c6cf8165877da9ebe64bc3af0590a5e2b9ebca4b7"


class TestTimelineCodec:
    def test_all_kinds_trace_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "all-kinds.jsonl"
        _, reader = record(all_kinds_world(), path)
        fired = [
            record_["event"]["kind"] for record_ in reader.records if record_["kind"] == "timeline"
        ]
        assert sorted(fired) == sorted(
            ["crash", "restart", "partition", "heal", "drop_link", "restore_link",
             "edit", "publish", "churn", "rolling", "canary", "abort_rollout"]
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_KINDS_TRACE_SHA256
        replayed = replay(reader).run(until=reader.until)
        assert fingerprint_digest(replayed) == reader.fingerprint_digest

    def test_every_kind_round_trips(self):
        from repro.traffic.trace import _event_from_json, _event_to_json

        actions = [action for _, action in all_kinds_world()._timeline]
        for action in actions:
            event = json.loads(json.dumps(_event_to_json(action)))
            assert _event_from_json(event) == action

    def test_kind_table_names_every_action_class(self):
        import repro.cluster.scenario
        import repro.evolve.actions
        import repro.faults.actions
        from repro.traffic.trace import TIMELINE_ACTIONS

        declared = {
            value
            for module in (
                repro.cluster.scenario, repro.evolve.actions, repro.faults.actions
            )
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and "__call__" in vars(value)
        }
        assert len(declared) == 12
        assert set(TIMELINE_ACTIONS.values()) == declared
        assert all(TIMELINE_ACTIONS[cls.kind] is cls for cls in declared)
