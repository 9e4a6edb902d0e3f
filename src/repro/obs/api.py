"""The observability front door: configuration, install, and hook targets.

An :class:`Observability` instance owns the three pillars — the span
:class:`~repro.obs.spans.Tracer`, the :class:`~repro.obs.metrics
.MetricsSampler` and the :class:`~repro.obs.recorder.FlightRecorder` —
and is what the hot-path hook sites talk to through
:data:`repro.obs.hooks.ACTIVE`.  Turn it on per run::

    report = scenario.run(obs=True)                  # defaults
    report = scenario.run(obs=ObsConfig(dump_dir="obs-dumps"))

    obs = Observability(ObsConfig(sample_interval=0.01))
    report = scenario.run(obs=obs)
    obs.export_chrome("trace.json")                  # open in Perfetto
    obs.span_fingerprint()                           # byte-deterministic

Determinism rules: span ids come from a sequence counter, timestamps from
the simulated clock, dump file names from a counter — nothing reads wall
clock or process randomness, so two identical runs produce byte-identical
span trees, metrics series and flight dumps.  With observability *off*
every hook site reduces to one ``is not None`` test and wire bytes are
untouched, so existing scenarios' report fingerprints never move.  With it
*on* the simulation honestly models the tracing overhead — in-band
context headers enlarge messages, the sampler's ticks are scheduler
events — so an observed run's report fingerprint differs from an
unobserved one (while staying byte-identical run-to-run);
``report.metrics`` itself stays outside ``ClusterReport.fingerprint()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.obs import hooks
from repro.obs.context import TraceContext
from repro.obs.export import (
    export_chrome_trace,
    export_metrics_json,
    export_spans_jsonl,
)
from repro.obs.metrics import MetricsReport, MetricsSampler
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import (
    KIND_ATTEMPT,
    KIND_CALL,
    KIND_REBIND,
    KIND_SERVER,
    Span,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.driver import FleetDriver
    from repro.obs.analyze import LatencyProfile
    from repro.obs.slo import SLO, SLOResult

#: Consecutive ``NoAliveReplicaError`` selections that count as a storm.
STORM_THRESHOLD = 8


@dataclass(frozen=True)
class ObsConfig:
    """What to collect and how much memory to grant it."""

    #: Sample time-series gauges onto ``ClusterReport.metrics``.
    metrics: bool = True
    #: Simulated seconds between metric samples.
    sample_interval: float = 0.005
    #: Bound of the finished-span ring.
    ring_capacity: int = 4096
    #: Where flight-recorder dumps are written (None: in memory only).
    dump_dir: "str | Path | None" = None
    #: Declarative :class:`~repro.obs.slo.SLO` objectives: each registers a
    #: cumulative good/total gauge pair on the sampler and is evaluated
    #: (compliance + burn-rate alerts) onto ``ClusterReport.slo_results``.
    slos: "tuple[SLO, ...]" = ()


class Observability:
    """One run's observability state and the API the hook sites call."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.scheduler = None
        self.tracer: Tracer | None = None
        self.sampler: MetricsSampler | None = None
        self.recorder: FlightRecorder | None = None
        #: Version tier of the most recent registry decision; the fleet
        #: driver reads it into the attempt span's attributes.
        self.last_tier: str | None = None
        self._no_alive_streak = 0
        self._last_server_span: "Span | None" = None
        self._installed = False

    # -- resolution and lifecycle -----------------------------------------

    @staticmethod
    def resolve(obs: "Observability | ObsConfig | bool | None") -> "Observability | None":
        """Normalise a ``Scenario.run(obs=...)`` argument."""
        if obs is None or obs is False:
            return None
        if obs is True:
            return Observability()
        if isinstance(obs, ObsConfig):
            return Observability(obs)
        if isinstance(obs, Observability):
            return obs
        raise ReproError(
            f"obs must be an Observability, ObsConfig, bool or None, got {obs!r}"
        )

    def install(self, scheduler) -> "Observability":
        """Arm the hook sites for one run on ``scheduler``'s world.

        Re-installing (a second run with the same instance) starts fresh
        collectors, so each run's fingerprints describe that run alone.
        """
        config = self.config
        self.scheduler = scheduler
        self.tracer = Tracer(scheduler, config.ring_capacity)
        self.recorder = FlightRecorder(self.tracer, config.dump_dir)
        self.sampler = (
            MetricsSampler(scheduler, config.sample_interval) if config.metrics else None
        )
        self.last_tier = None
        self._no_alive_streak = 0
        self._last_server_span = None
        hooks.ACTIVE = self
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Disarm the hook sites; collected data stays readable."""
        if not self._installed:
            return
        self._installed = False
        if hooks.ACTIVE is self:
            hooks.ACTIVE = None
        hooks.CONTEXT = None
        hooks.SERVER_WIRE_CONTEXT = None
        if self.sampler is not None:
            self.sampler.stop()

    # -- run lifecycle (fleet-driver hooks) --------------------------------

    def begin_run(self, driver: "FleetDriver") -> None:
        """Register the world's gauges and start the sampler."""
        sampler = self.sampler
        if sampler is None:
            return
        scheduler = self.scheduler
        seen_nodes: set[int] = set()
        for entry in driver.registry.services:
            replicas = entry.replicas

            def in_flight(replicas=replicas) -> int:
                return sum(replica.in_flight for replica in replicas)

            def stall_depth(replicas=replicas) -> int:
                return sum(
                    replica.call_handler.stall_queue_depth for replica in replicas
                )

            sampler.register(f"service.{entry.name}.in_flight", in_flight)
            sampler.register(f"service.{entry.name}.stall_queue", stall_depth)
            # Recency watermark age: simulated seconds since the service's
            # published version frontier last advanced — the §6 quantity a
            # stalled publication or a partitioned replica makes grow.
            state = {"frontier": -1, "since": scheduler.now}

            def watermark_age(replicas=replicas, state=state) -> float:
                frontier = max(
                    (replica.publisher.version for replica in replicas), default=-1
                )
                if frontier != state["frontier"]:
                    state["frontier"] = frontier
                    state["since"] = scheduler.now
                return scheduler.now - state["since"]

            sampler.register(f"service.{entry.name}.watermark_age", watermark_age)
            for replica in replicas:
                node = replica.node
                if node is None or id(node) in seen_nodes:
                    continue
                seen_nodes.add(id(node))
                core = node.server_core
                if core is not None:

                    def busy_cores(core=core) -> int:
                        return core.busy_cores

                    sampler.register(f"node.{node.name}.busy_cores", busy_cores)
                node_replicas = [
                    r
                    for service in driver.registry.services
                    for r in service.replicas
                    if r.node is node
                ]

                def node_stall(node_replicas=node_replicas) -> int:
                    return sum(
                        r.call_handler.stall_queue_depth for r in node_replicas
                    )

                sampler.register(f"node.{node.name}.stall_queue", node_stall)
        for flow in driver.flows:

            def backlog(flow=flow) -> float:
                return flow.backlog

            sampler.register(f"flow.{flow.name}.backlog", backlog)
        if self.config.slos:
            from repro.obs.slo import register_slo_gauges

            register_slo_gauges(sampler, driver, self.config.slos)
        sampler.start()

    def end_run(self) -> None:
        """The run's window closed: take the closing metrics sample, so the
        final values (an SLO's totals) count calls that finished after the
        last tick, and stop the sampler."""
        if self.sampler is not None:
            self.sampler.close()

    # -- client-call spans (fleet-driver hooks) ----------------------------

    def begin_call(self, client, operation: str) -> Span:
        """Root span of one client call (covers every retry attempt)."""
        return self.tracer.begin(
            operation,
            KIND_CALL,
            attrs={
                "client": client.report.name,
                "service": client.plan.service,
                "protocol": client.plan.protocol,
                "probe": client._probe,
            },
        )

    def begin_attempt(self, client, operation: str, replica) -> Span:
        """One attempt span, child of the call span, carrying the registry's
        routing decision (replica, node, version tier)."""
        return self.tracer.begin(
            operation,
            KIND_ATTEMPT,
            parent=client._call_span,
            attrs={
                "attempt": client._attempts,
                "replica": replica.index,
                "node": replica.node.name if replica.node is not None else None,
                "tier": self.last_tier,
            },
        )

    def end_attempt(self, client, outcome: str) -> None:
        """Close the in-flight attempt span with its outcome."""
        span = client._attempt_span
        if span is not None:
            client._attempt_span = None
            self.tracer.end(span, {"outcome": outcome})

    def end_call(self, client, outcome: str) -> None:
        """Close the call span; a silent wrong answer trips the recorder."""
        span = client._call_span
        if span is not None:
            client._call_span = None
            self.tracer.end(span, {"outcome": outcome})
        if outcome == "other":
            self.recorder.trip(
                "silent-wrong-answer",
                client=client.report.name,
                service=client.plan.service,
                operation=client._operation,
            )

    def begin_rebind(self, client, replica) -> Span:
        """Span covering a §5.7 stub refresh after a stale fault."""
        return self.tracer.begin(
            "rebind",
            KIND_REBIND,
            attrs={
                "client": client.report.name,
                "service": client.plan.service,
                "replica": replica.index,
            },
        )

    def end_span(self, span: "Span | None", attrs: "dict | None" = None) -> None:
        """Close an optional span (no-op on None)."""
        if span is not None:
            self.tracer.end(span, attrs)

    # -- server-side spans (call-handler hook) -----------------------------

    def server_dispatch(self, handler, operation: str, outcome) -> None:
        """Open a server span for one dispatched call.

        The wire context staged by the protocol endpoint (SOAP Header block
        or GIOP service-context slot) is consumed here — synchronously, in
        the same dispatch frame that staged it — and becomes the span's
        parent, which is how server-side work joins the client's causal
        tree.  The span closes when the handler reports through the
        ``DispatchOutcome`` callbacks, so a §5.7 stall shows up as server
        time, not as transport time.
        """
        wire = hooks.SERVER_WIRE_CONTEXT
        hooks.SERVER_WIRE_CONTEXT = None
        self._last_server_span = None
        if wire is None:
            return
        parent = TraceContext.decode(wire)
        if parent is None:
            return
        span = self.tracer.begin(
            f"server.{operation}",
            KIND_SERVER,
            parent=parent,
            attrs={
                "node": handler.manager.host.name,
                "class": handler.dynamic_class.name,
                "queued": handler.stalled,
            },
        )
        on_result, on_fault = outcome.on_result, outcome.on_fault
        tracer = self.tracer
        obs = self

        def traced_result(value, signature):
            tracer.end(span, {"outcome": "result"})
            obs._last_server_span = span
            on_result(value, signature)

        def traced_fault(error):
            tracer.end(span, {"outcome": "fault", "fault": type(error).__name__})
            obs._last_server_span = span
            on_fault(error)

        outcome.on_result = traced_result
        outcome.on_fault = traced_fault

    def note_server_charge(self, cost: float, wait: float) -> None:
        """Stamp the just-closed server span with its CPU-charge window.

        The transport endpoint calls this from the same synchronous frame
        in which the dispatch outcome resolved: ``cost`` is the modeled
        CPU service time and ``wait`` the queueing delay a bounded
        :class:`~repro.sim.servercore.ServerCore` imposed before it.  The
        span gains absolute ``cpu_from`` / ``cpu_until`` boundaries, which
        is what lets :mod:`repro.obs.analyze` split reply latency into
        ``core_wait`` + ``cpu`` instead of folding both into network time.
        A settle that lands in a later frame (or with no traced dispatch,
        e.g. an interface-document fetch) finds no pending span and is a
        no-op — attribution degrades gracefully, the sum invariant holds
        either way.
        """
        span = self._last_server_span
        self._last_server_span = None
        if span is None or span.end != self.scheduler.now:
            return
        span.attrs["cpu_from"] = span.end + wait
        span.attrs["cpu_until"] = span.end + wait + cost

    # -- registry hooks ----------------------------------------------------

    def note_select(self, tier: "str | None") -> None:
        """Record a successful replica selection's version tier."""
        self.last_tier = tier
        self._no_alive_streak = 0

    def note_no_alive(self, service: str) -> None:
        """Count a ``NoAliveReplicaError``; a streak trips the recorder."""
        self._no_alive_streak += 1
        if self._no_alive_streak == STORM_THRESHOLD:
            self.recorder.trip(
                "no-alive-replica-storm",
                service=service,
                consecutive_failures=self._no_alive_streak,
            )

    # -- invariant trips ---------------------------------------------------

    def note_recency_violation(self, span: "Span | None" = None, **detail: Any) -> None:
        """A §6 recency violation: annotate the causal span and dump."""
        if span is not None:
            span.attrs["recency_violation"] = True
            detail.setdefault("trace_id", span.trace_id)
            detail.setdefault("span_id", span.span_id)
        self.recorder.trip("recency-violation", **detail)

    # -- instants (faults, rollouts, cohort flows) -------------------------

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a point event as a zero-duration span."""
        self.tracer.instant(name, attrs=attrs)

    # -- transport ---------------------------------------------------------

    def note_client_send(self, destination: Any, size: int, context: Any = None) -> None:
        """A client request of ``size`` bytes leaving for ``destination``.

        Recorded as a ``transport.send`` event, at the time the bytes leave,
        on the span of the attempt that issued the request: ``context`` is
        ``hooks.CONTEXT`` as it was at issue time (``None``: no attempt).
        """
        if context is None:
            return
        span = self.tracer._open.get(context.span_id)
        if span is not None:
            span.add_event(
                self.scheduler.now,
                "transport.send",
                {"to": str(destination), "bytes": size},
            )

    # -- results -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Finished spans (the bounded ring), oldest first."""
        return self.tracer.spans if self.tracer is not None else []

    @property
    def flight_dumps(self) -> list[dict]:
        """Flight-recorder dumps collected so far."""
        return self.recorder.dumps if self.recorder is not None else []

    def span_fingerprint(self) -> str:
        """Byte-deterministic digest of the finished span tree."""
        if self.tracer is None:
            raise ReproError("observability was never installed")
        return self.tracer.fingerprint()

    def metrics_report(self) -> "MetricsReport | None":
        """The sampled series (None when metrics are disabled)."""
        return self.sampler.report() if self.sampler is not None else None

    def evaluate_slos(self) -> "list[SLOResult]":
        """Evaluate the config's declared SLOs over the sampled series."""
        if not self.config.slos:
            return []
        from repro.obs.slo import evaluate_slos

        return evaluate_slos(self.metrics_report(), self.config.slos)

    def profile(self) -> "LatencyProfile":
        """Critical-path latency attribution over the finished spans."""
        from repro.obs.analyze import build_profile

        return build_profile(self.spans)

    def flush_spans(self, trace_writer) -> None:
        """Append every finished span to a ``repro-trace/1`` writer."""
        for span in self.spans:
            trace_writer.note_span(span.to_dict())

    def export_jsonl(self, path: "str | Path") -> Path:
        """Write finished spans as JSON lines."""
        return export_spans_jsonl(self.spans, path)

    def export_chrome(self, path: "str | Path") -> Path:
        """Write a Perfetto-loadable Chrome ``trace_event`` file."""
        return export_chrome_trace(self.spans, path)

    def export_metrics(self, path: "str | Path") -> Path:
        """Write the metrics series + fingerprint (and any declared SLOs,
        so ``analyze slo`` can re-evaluate them offline) as JSON."""
        report = self.metrics_report()
        if report is None:
            raise ReproError("metrics are disabled in this ObsConfig")
        return export_metrics_json(report, path, slos=self.config.slos)

    def export_profile(self, path: "str | Path") -> Path:
        """Write the latency-attribution profile as JSON."""
        import json

        path = Path(path)
        path.write_text(json.dumps(self.profile().to_dict(), indent=2) + "\n")
        return path

    def __repr__(self) -> str:
        spans = len(self.tracer.finished) if self.tracer is not None else 0
        return f"Observability(spans={spans}, installed={self._installed})"


__all__ = ["ObsConfig", "Observability", "TraceContext"]
