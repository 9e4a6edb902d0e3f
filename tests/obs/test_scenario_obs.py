"""Scenario-level observability acceptance tests.

The ISSUE-level contract: a faulted, upgraded drill run twice produces
byte-identical span-tree and metrics fingerprints; an engineered §6
recency violation auto-dumps a flight-recorder file whose span tree names
the violating call, replica and version tier; and with observability off
every report fingerprint is untouched.
"""

from __future__ import annotations

import json

from repro.cluster import POLICY_STICKY, Scenario, edit, op
from repro.cluster.presets import fault_drill_scenario
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.faults import RetryPolicy, crash, heal, partition, restart
from repro.obs import ObsConfig, Observability
from repro.obs import hooks as _obs_hooks
from repro.rmitypes import STRING
from repro.traffic import record


def _echo():
    return op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)


def _drill(name: str = "obs-drill", *, technology: str = "soap") -> Scenario:
    """2 servers × 2 replicas: crash + restart, partition + heal, rolling
    upgrade — every span source active in one run."""
    echo_loud = op("echo_loud", (("m", STRING),), STRING, body=lambda _s, m: m.upper())
    return (
        Scenario(name=name, sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [_echo()], replicas=2, technology=technology)
        .clients(
            8,
            service="Echo",
            calls=6,
            arguments=("hi",),
            think_time=0.01,
            arrival=0.001,
            retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
        )
        .at(0.02, crash("server-1"))
        .at(0.03, partition("server-2"))
        .at(0.04, rolling("Echo", upgrade(add=[echo_loud]), batch_size=1, drain=0.01))
        .at(0.07, heal("server-2"))
        .at(0.08, restart("server-1"))
    )


class TestDrillDeterminism:
    def test_double_run_fingerprints_are_byte_identical(self):
        first, second = Observability(), Observability()
        report_one = _drill().run(obs=first)
        report_two = _drill().run(obs=second)
        assert first.span_fingerprint() == second.span_fingerprint()
        assert report_one.metrics_fingerprint() is not None
        assert report_one.metrics_fingerprint() == report_two.metrics_fingerprint()
        assert report_one.fingerprint() == report_two.fingerprint()
        assert first.tracer.finished_count == second.tracer.finished_count > 0

    def test_drill_span_tree_covers_every_source(self):
        obs = Observability()
        _drill().run(obs=obs)
        kinds = {span.kind for span in obs.spans}
        assert {"call", "attempt", "server", "instant"} <= kinds
        names = {span.name for span in obs.spans}
        assert {"fault.crash", "fault.partition", "fault.heal", "fault.restart"} <= names
        assert "rollout.wave" in names and "rollout.finished" in names
        # Server spans join the client's causal tree via the wire context.
        servers = [span for span in obs.spans if span.kind == "server"]
        assert servers and all(span.parent_id is not None for span in servers)

    def test_corba_servers_join_the_tree_too(self):
        obs = Observability()
        _drill(technology="corba").run(obs=obs)
        servers = [span for span in obs.spans if span.kind == "server"]
        assert servers and all(span.parent_id is not None for span in servers)

    def test_metrics_cover_nodes_and_services(self):
        obs = Observability()
        report = _drill().run(obs=obs)
        assert report.metrics is not None
        series = report.metrics.series
        assert "service.Echo.in_flight" in series
        assert "service.Echo.watermark_age" in series
        assert any(name.startswith("node.") for name in series)
        assert len(report.metrics.times) > 0


class TestTransportSendEvents:
    def test_every_client_send_lands_on_its_attempt_span(self):
        obs = Observability()
        report = _drill().run(obs=obs)
        sends = [
            (span, attrs)
            for span in obs.spans
            for _time, name, attrs in span.events
            if name == "transport.send"
        ]
        assert len(sends) >= report.outcomes("discrete").calls
        assert {span.kind for span, _attrs in sends} == {"attempt"}
        assert all(attrs["bytes"] > 0 and attrs["to"] for _span, attrs in sends)

    def test_a_send_outside_an_attempt_records_nothing(self):
        obs = Observability()
        obs.install(Scenario().build().world.scheduler)
        try:
            obs.note_client_send("server-1:8080", 64)
        finally:
            obs.uninstall()
        assert obs.spans == []


class TestObsOffIsInvisible:
    def test_report_fingerprint_is_untouched(self):
        baseline = _drill().run()
        observed_off = _drill().run(obs=False)
        assert observed_off.fingerprint() == baseline.fingerprint()
        assert observed_off.metrics is None

    def test_hooks_disarmed_after_an_observed_run(self):
        _drill().run(obs=True)
        assert _obs_hooks.ACTIVE is None
        assert _obs_hooks.CONTEXT is None
        assert _obs_hooks.SERVER_WIRE_CONTEXT is None


def _violation_scenario() -> Scenario:
    """The engineered §6 violation from the failover suite: one replica
    force-published ahead, the sticky client's replica crashes, and the
    failover target still serves the older version."""

    def publish_only_first_replica(runtime):
        replica = runtime.replicas("Echo")[0]
        replica.node.manager_interface.force_publication(replica.class_name)

    return (
        Scenario(name="obs-violation", sde_config=SDEConfig(generation_cost=0.01))
        .servers(2)
        .service("Echo", [_echo()], replicas=2, policy=POLICY_STICKY)
        .clients(
            2,
            service="Echo",
            calls=8,
            arguments=("hi",),
            think_time=0.02,
            retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
        )
        .at(0.030, edit("Echo", op("only_on_replica_0")))
        .at(0.040, publish_only_first_replica)
        .at(0.090, crash("server-1"))
    )


class TestRecencyViolationFlightDump:
    def _violation_scenario(self) -> Scenario:
        return _violation_scenario()

    def test_violation_auto_dumps_named_flight_file(self, tmp_path):
        obs = Observability(ObsConfig(dump_dir=tmp_path))
        report = self._violation_scenario().run(obs=obs)
        assert report.outcomes("all").recency_violations > 0
        dump = next(
            dump for dump in obs.flight_dumps if dump["reason"] == "recency-violation"
        )
        # The dump names the violating call's coordinates...
        detail = dump["detail"]
        assert detail["operation"] == "echo"
        assert detail["service"] == "Echo"
        assert "replica" in detail and "tier" in detail
        assert detail["version"] < detail["watermark"]
        # ...and its span tree contains the annotated violating call.
        violating = [
            span
            for span in dump["spans"] + dump["open_spans"]
            if span["attrs"].get("recency_violation")
        ]
        assert violating and violating[0]["span_id"] == detail["span_id"]
        # The file landed under the configured dump dir, named by counter.
        path = tmp_path / "flight-001-recency-violation.json"
        assert path.exists()
        assert json.loads(path.read_text())["reason"] == "recency-violation"

    def test_violation_dump_is_deterministic(self, tmp_path):
        first = Observability(ObsConfig(dump_dir=tmp_path / "a"))
        second = Observability(ObsConfig(dump_dir=tmp_path / "b"))
        report_one = self._violation_scenario().run(obs=first)
        report_two = self._violation_scenario().run(obs=second)
        strip = lambda dump: {k: v for k, v in dump.items() if k != "path"}
        assert [strip(d) for d in first.flight_dumps] == [
            strip(d) for d in second.flight_dumps
        ]
        assert report_one.metrics_fingerprint() is not None
        assert report_one.metrics_fingerprint() == report_two.metrics_fingerprint()


class TestDumpDirEnv:
    def test_env_var_redirects_flight_dumps(self, tmp_path, monkeypatch):
        target = tmp_path / "env-dumps"
        monkeypatch.setenv("REPRO_OBS_DUMP_DIR", str(target))
        obs = Observability()
        report = _violation_scenario().run(obs=obs)
        assert report.outcomes("all").recency_violations > 0
        assert (target / "flight-001-recency-violation.json").exists()

    def test_explicit_dump_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DUMP_DIR", str(tmp_path / "env-dumps"))
        explicit = tmp_path / "explicit-dumps"
        obs = Observability(ObsConfig(dump_dir=explicit))
        _violation_scenario().run(obs=obs)
        assert (explicit / "flight-001-recency-violation.json").exists()
        assert not (tmp_path / "env-dumps").exists()

    def test_unset_env_keeps_dumps_in_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_DUMP_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        obs = Observability()
        _violation_scenario().run(obs=obs)
        assert obs.flight_dumps and "path" not in obs.flight_dumps[0]
        assert list(tmp_path.iterdir()) == []


class TestPublicApiWiring:
    def test_obs_true_uses_defaults(self):
        report = _drill().run(obs=True)
        assert report.metrics is not None

    def test_scheduler_trace_rides_the_ring_cap(self):
        obs = Observability(ObsConfig(scheduler_trace=True, ring_capacity=64))
        _drill().run(obs=obs)
        trace = obs.dispatch_trace
        assert 0 < len(trace) <= 64
        time, label = trace[0]
        assert isinstance(time, float) and isinstance(label, str)

    def test_span_ring_capacity_bounds_memory(self):
        obs = Observability(ObsConfig(ring_capacity=16, metrics=False))
        _drill().run(obs=obs)
        assert len(obs.spans) == 16
        assert obs.tracer.finished_count > 16

    def test_recorded_trace_carries_spans_channel(self, tmp_path):
        scenario = fault_drill_scenario(clients=8, servers=2, calls=2)
        report, reader = record(scenario, tmp_path / "drill.jsonl", obs=True)
        assert report.metrics is not None
        spans = reader.spans
        assert spans and any(span["kind"] == "server" for span in spans)
        # Replay ignores the channel: records stay well-formed JSONL.
        kinds = {record_["kind"] for record_ in reader.records}
        assert "span" in kinds
