"""Unit tests for the :mod:`repro.obs` building blocks.

Context tokens, the tracer's bounded ring, the metrics sampler's tick
machinery, the flight recorder's dump budget and the two exporters — each
exercised in isolation against a bare :class:`~repro.sim.Scheduler`.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    FlightRecorder,
    MetricsSampler,
    ObsConfig,
    Observability,
    TraceContext,
    Tracer,
    chrome_trace_events,
    export_chrome_trace,
    export_metrics_json,
    export_spans_jsonl,
)
from repro.obs.spans import KIND_ATTEMPT, KIND_CALL, KIND_INSTANT
from repro.sim import Scheduler


class TestTraceContext:
    def test_roundtrip_str_and_bytes(self):
        context = TraceContext(trace_id=255, span_id=16)
        assert context.encode() == "ff.10"
        assert context.encode_bytes() == b"ff.10"
        assert TraceContext.decode("ff.10") == context
        assert TraceContext.decode(b"ff.10") == context

    @pytest.mark.parametrize(
        "token",
        [None, "", b"", "deadbeef", "zz.1", "1.zz", ".", "1.", ".1", b"\xff\xfe.1"],
    )
    def test_malformed_tokens_decode_to_none(self, token):
        """Tolerance contract: junk degrades to "no parent", never a fault."""
        assert TraceContext.decode(token) is None


class TestTracerRing:
    def _tracer(self, capacity=4096):
        return Tracer(Scheduler(), capacity=capacity)

    def test_parentless_span_roots_its_own_trace(self):
        tracer = self._tracer()
        root = tracer.begin("call", KIND_CALL)
        child = tracer.begin("attempt", KIND_ATTEMPT, parent=root)
        assert root.trace_id == root.span_id
        assert root.parent_id is None
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        # A wire context parents the same way a local span does.
        remote = tracer.begin("server", KIND_ATTEMPT, parent=child.context)
        assert remote.trace_id == root.trace_id
        assert remote.parent_id == child.span_id

    def test_ring_evicts_oldest_but_counts_everything(self):
        tracer = self._tracer(capacity=8)
        for index in range(20):
            tracer.end(tracer.begin(f"span-{index}", KIND_CALL))
        assert len(tracer.finished) == 8
        assert tracer.finished_count == 20
        assert [span.name for span in tracer.spans] == [
            f"span-{index}" for index in range(12, 20)
        ]

    def test_open_spans_until_ended(self):
        tracer = self._tracer()
        span = tracer.begin("call", KIND_CALL)
        assert tracer.open_spans == [span]
        tracer.end(span, {"outcome": "success"})
        assert tracer.open_spans == []
        assert span.attrs["outcome"] == "success"
        assert span.end is not None

    def test_instant_is_zero_duration(self):
        tracer = self._tracer()
        span = tracer.instant("fault.crash", attrs={"node": "server-1"})
        assert span.kind == KIND_INSTANT
        assert span.end == span.start

    def test_fingerprint_is_deterministic_and_state_sensitive(self):
        def build():
            tracer = self._tracer()
            root = tracer.begin("call", KIND_CALL, attrs={"client": "c0"})
            root.add_event(0.0, "transport.send", {"bytes": 64})
            tracer.end(root, {"outcome": "success"})
            tracer.instant("fault.crash", attrs={"node": "server-1"})
            return tracer

        assert build().fingerprint() == build().fingerprint()
        extra = build()
        extra.instant("fault.heal")
        assert extra.fingerprint() != build().fingerprint()

    def test_trees_group_by_trace(self):
        tracer = self._tracer()
        first = tracer.begin("a", KIND_CALL)
        second = tracer.begin("b", KIND_CALL)
        child = tracer.begin("a.1", KIND_ATTEMPT, parent=first)
        for span in (child, first, second):
            tracer.end(span)
        trees = tracer.trees()
        assert set(trees) == {first.trace_id, second.trace_id}
        assert [span.name for span in trees[first.trace_id]] == ["a.1", "a"]


class TestMetricsSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ReproError):
            MetricsSampler(Scheduler(), interval=0.0)

    def test_samples_gauges_at_fixed_interval(self):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01)
        reads = {"count": 0}

        def gauge():
            reads["count"] += 1
            return float(reads["count"])

        sampler.register("g", gauge)
        sampler.start()
        scheduler.run_for(0.055)
        sampler.stop()
        report = sampler.report()
        assert report.times == (0.01, 0.02, 0.03, 0.04, 0.05)
        assert report.series["g"] == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert "g" in repr(report) or report.interval == 0.01

    def test_stop_cancels_future_ticks(self):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01)
        sampler.register("g", lambda: 1.0)
        sampler.start()
        scheduler.run_for(0.025)
        sampler.stop()
        scheduler.run_for(0.05)
        assert sampler.report().times == (0.01, 0.02)

    def test_close_takes_one_closing_sample(self):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01)
        sampler.register("g", lambda: scheduler.now)
        sampler.start()
        scheduler.run_for(0.025)
        sampler.close()
        sampler.close()
        scheduler.run_for(0.05)
        assert sampler.report().series["g"] == (0.01, 0.02, 0.025)

    def test_close_adds_no_sample_at_a_sampled_instant(self):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01)
        sampler.register("g", lambda: scheduler.now)
        sampler.start()
        scheduler.run_for(0.02)
        sampler.close()
        assert sampler.report().times == (0.01, 0.02)

    def test_series_ring_is_bounded(self):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01, max_samples=4)
        sampler.register("g", lambda: scheduler.now)
        sampler.start()
        scheduler.run_for(0.1)
        sampler.stop()
        report = sampler.report()
        assert len(report.times) == 4
        assert report.times[-1] == pytest.approx(0.1)
        assert len(report.series["g"]) == 4

    def test_fingerprint_tracks_series_state(self):
        def sample(values):
            scheduler = Scheduler()
            sampler = MetricsSampler(scheduler, interval=0.01)
            iterator = iter(values)
            sampler.register("g", lambda: next(iterator))
            sampler.start()
            scheduler.run_for(0.01 * len(values))
            sampler.stop()
            return sampler.report()

        assert sample([1.0, 2.0]).fingerprint() == sample([1.0, 2.0]).fingerprint()
        assert sample([1.0, 2.0]).fingerprint() != sample([1.0, 3.0]).fingerprint()


class TestFlightRecorder:
    def _recorder(self, tmp_path=None, max_dumps=8):
        tracer = Tracer(Scheduler())
        tracer.end(tracer.begin("call", KIND_CALL, attrs={"client": "c0"}))
        tracer.begin("open", KIND_CALL)
        return FlightRecorder(tracer, dump_dir=tmp_path, max_dumps=max_dumps)

    def test_trip_snapshots_ring_and_open_spans(self):
        recorder = self._recorder()
        dump = recorder.trip("recency-violation", client="c0", replica=1, tier="fresh")
        assert dump["reason"] == "recency-violation"
        assert dump["detail"] == {"client": "c0", "replica": 1, "tier": "fresh"}
        assert [span["name"] for span in dump["spans"]] == ["call"]
        assert [span["name"] for span in dump["open_spans"]] == ["open"]
        assert recorder.dumps == [dump]

    def test_dump_budget_suppresses_a_storm(self):
        recorder = self._recorder(max_dumps=2)
        assert recorder.trip("recency-violation") is not None
        assert recorder.trip("recency-violation") is not None
        assert recorder.trip("recency-violation") is None
        assert recorder.trip("recency-violation") is None
        assert len(recorder.dumps) == 2
        assert recorder.suppressed_trips == 2

    def test_dump_dir_writes_deterministic_file_names(self, tmp_path):
        recorder = self._recorder(tmp_path=tmp_path)
        dump = recorder.trip("no-alive-replica-storm", service="Echo")
        path = tmp_path / "flight-001-no-alive-replica-storm.json"
        assert path.exists()
        assert dump["path"] == str(path)
        loaded = json.loads(path.read_text())
        assert loaded["reason"] == "no-alive-replica-storm"
        assert loaded["detail"]["service"] == "Echo"


class TestExporters:
    def _spans(self):
        tracer = Tracer(Scheduler())
        root = tracer.begin("echo", KIND_CALL, attrs={"client": "c0"})
        root.add_event(0.0, "transport.send", {"bytes": 64})
        tracer.end(root)
        tracer.instant("fault.crash", attrs={"node": "server-1"})
        return tracer.spans

    def test_jsonl_one_object_per_span(self, tmp_path):
        path = export_spans_jsonl(self._spans(), tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "echo"
        assert first["events"][0]["name"] == "transport.send"

    def test_chrome_events_use_microseconds_and_phases(self):
        events = chrome_trace_events(self._spans())
        by_phase = {event["ph"] for event in events}
        assert by_phase <= {"X", "i"}
        instant = next(event for event in events if event["name"] == "fault.crash")
        assert instant["ph"] == "i"
        assert instant["tid"] == "server-1"
        send = next(event for event in events if event["name"] == "transport.send")
        assert send["cat"] == "event"

    def test_chrome_trace_file_is_perfetto_shaped(self, tmp_path):
        path = export_chrome_trace(self._spans(), tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert payload["traceEvents"]

    def test_metrics_json_carries_fingerprint(self, tmp_path):
        scheduler = Scheduler()
        sampler = MetricsSampler(scheduler, interval=0.01)
        sampler.register("g", lambda: 1.0)
        sampler.start()
        scheduler.run_for(0.03)
        sampler.stop()
        report = sampler.report()
        path = export_metrics_json(report, tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["fingerprint"] == report.fingerprint()
        assert payload["series"]["g"] == [1.0, 1.0, 1.0]


class TestObservabilityResolve:
    def test_off_values_resolve_to_none(self):
        assert Observability.resolve(None) is None
        assert Observability.resolve(False) is None

    def test_on_values_resolve_to_instances(self):
        assert isinstance(Observability.resolve(True), Observability)
        config = ObsConfig(sample_interval=0.5)
        resolved = Observability.resolve(config)
        assert resolved.config is config
        instance = Observability()
        assert Observability.resolve(instance) is instance

    def test_junk_rejected(self):
        with pytest.raises(ReproError):
            Observability.resolve("yes")
