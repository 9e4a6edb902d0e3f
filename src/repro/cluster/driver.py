"""The generic fleet driver: N clients × any services × any protocols.

This is the measured core of a scenario run, generalising the seed's
single-service workload driver: every client is callback-driven (it uses
the transport layer's asynchronous request path rather than blocking the
scheduler), so all request streams genuinely interleave, and because the
scheduler dispatches equal-time events in insertion order the whole run is
deterministic — the same plan always produces the same per-call round-trip
times, whatever mix of services, replicas and protocols is in play.

Per-replica server statistics (stall queue, endpoint connections/replies,
publications) and per-node CPU statistics are snapshotted before the
measured window and reported as deltas, so repeated runs against one world
stay independent.

Clients are failover-aware when their plan carries a
:class:`~repro.faults.RetryPolicy`: transport-level failures and timeouts
are retried through the registry's alive-replica routing, availability is
accounted (failed/retried/abandoned, downtime, recovery latency via the
wired :class:`~repro.faults.FaultInjector`), and every successful reply
updates the client's §6 recency watermark — the report's
``recency_violations`` counter stays 0 whenever the stall protocol's
guarantee holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.cluster.protocols import (
    OUTCOME_NOT_INITIALIZED,
    OUTCOME_OTHER,
    OUTCOME_STALE,
    OUTCOME_SUCCESS,
    ProtocolClient,
    ProtocolClientFactory,
    client_protocol_factory,
)
from repro.cluster.registry import Replica, ServiceRegistry
from repro.cluster.report import (
    ClientReport,
    ClusterReport,
    NodeReport,
    ReplicaReport,
    ServiceReport,
)
from repro.errors import NoAliveReplicaError, TransportError
from repro.faults.policy import RetryPolicy
from repro.net.simnet import Host
from repro.obs import hooks as _obs_hooks
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cohort import CohortFlow
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class ClientPlan:
    """What one fleet client should do."""

    index: int
    host: Host
    protocol: str
    service: str
    calls: int
    operation: str
    arguments: tuple[Any, ...] = ()
    #: Virtual seconds between receiving a reply and issuing the next call.
    think_time: float = 0.0
    #: Workload-relative virtual time of this client's first call.
    start_offset: float = 0.0
    #: Direct every *k*-th call (1-based numbers divisible by *k*) at
    #: ``stale_operation`` — §5.7 stall-protocol pressure.
    stale_every: int | None = None
    stale_operation: str = "no_such_operation"
    #: Retry/failover policy: transport-level failures (connection aborted
    #: by a crash, no alive replica, per-attempt timeout) are retried —
    #: routed by the failover-aware registry — up to the attempt budget.
    #: ``None`` keeps the seed behaviour: such failures count as faults.
    retry: RetryPolicy | None = None


class _FleetClient:
    """One callback-driven client of the fleet.

    With a :class:`RetryPolicy` on its plan the client is failover-aware:
    an attempt that fails at the transport level — the connection was
    aborted by a crash, no replica was alive, or the per-attempt timeout
    expired — is reissued (the registry then routes around dead replicas)
    until the attempt budget runs out and the call is abandoned.  A call's
    reported RTT spans first attempt to final outcome, so failover cost is
    visible in the latency percentiles.

    The client also keeps the §6 recency high-water mark: every successful
    reply observes the serving replica's published interface version, and a
    version older than one already observed is counted as a recency
    violation (the stall protocol guarantees zero, across failover).
    """

    def __init__(self, driver: "FleetDriver", plan: ClientPlan) -> None:
        self.driver = driver
        self.plan = plan
        self.retry = plan.retry
        self.entry = driver.registry.lookup(plan.service)
        factory = driver.protocol_factory(plan.protocol)
        self.stack: ProtocolClient = factory(plan.host, plan.index, self.entry.replicas)
        self.report = ClientReport(
            name=plan.host.name, protocol=plan.protocol, service=plan.service
        )
        #: The stack's stub-binding state, read by version-aware routing:
        #: which description this client compiled stubs from, per replica,
        #: plus the recency watermark.  Inert (pure bookkeeping) unless the
        #: service entry has ``version_routing`` armed.
        self.binding = self.stack.binding
        self._calls_issued = 0
        #: The operation this client currently calls; starts at the plan's
        #: and may switch to an upgrade-declared successor after a rebind.
        self._operation = plan.operation
        #: True while the in-progress call is a deliberate ``stale_every``
        #: probe (those must not trigger a rebind).
        self._probe = False
        #: Attempts made for the call currently in progress.
        self._attempts = 0
        #: Virtual time the current call's *first* attempt was issued.
        self._call_started = 0.0
        #: Token identifying the in-flight attempt; a reply or timeout for
        #: a superseded attempt compares unequal and becomes a no-op.
        self._pending: object | None = None
        #: Highest published interface version observed via a successful
        #: reply (the §6 recency watermark; -1 = nothing observed yet).
        self._seen_version = -1
        #: Open observability spans for the call in progress (None when
        #: observability is off or spans are disabled).
        self._call_span = None
        self._attempt_span = None
        #: Version tier ("compatible" / "fresh" / None) of the most recent
        #: selection for this client — flight-dump context.
        self._tier: str | None = None

    def start(self) -> None:
        """Issue this client's first call."""
        self._next_call()

    def _next_call(self) -> None:
        if self.driver.closed:
            # The driver's measured window is over (a deadline cut the run
            # short): a leftover think-timer event must not issue calls into
            # a later run's window.
            return
        plan = self.plan
        if self._calls_issued >= plan.calls:
            self.driver._client_finished()
            return
        self._calls_issued += 1
        call_number = self._calls_issued
        operation, arguments = self._operation, plan.arguments
        self._probe = bool(plan.stale_every and call_number % plan.stale_every == 0)
        if self._probe:
            operation, arguments = plan.stale_operation, ()
        self._attempts = 0
        self._call_started = self.driver.scheduler.now
        obs = self.driver.obs
        if obs is not None:
            self._call_span = obs.begin_call(self, operation)
        self._issue(operation, arguments)

    # -- one attempt ---------------------------------------------------------

    def _issue(self, operation: str, arguments: tuple[Any, ...]) -> None:
        if self.driver.closed:
            return
        driver = self.driver
        self._attempts += 1
        try:
            replica = driver.registry.select(
                self.plan.service, self.report.name, binding=self.binding
            )
        except NoAliveReplicaError:
            self._attempt_failed(operation, arguments)
            return
        self.report.replica_sequence.append(replica.index)
        ServiceRegistry.begin_call(replica)
        token = object()
        self._pending = token
        scheduler = driver.scheduler
        timeout_event = None
        retry = self.retry
        if retry is not None and retry.timeout is not None:
            timeout_event = scheduler.schedule(
                retry.timeout,
                self._on_timeout,
                token,
                replica,
                operation,
                arguments,
                label=(
                    f"{self.report.name} attempt timeout"
                    if scheduler.tracing
                    else "attempt timeout"
                ),
            )
        obs = driver.obs
        if obs is None:
            deferred = self.stack.call(replica, operation, arguments)
        else:
            self._tier = (
                obs.last_select[1] if obs.last_select is not None else None
            )
            span = obs.begin_attempt(self, operation, replica)
            self._attempt_span = span
            if span is not None:
                # In-band propagation: the protocol stack reads the context
                # while it builds the request (SOAP Header block / GIOP
                # service-context slot), synchronously in this frame.
                _obs_hooks.CONTEXT = span.context
            try:
                deferred = self.stack.call(replica, operation, arguments)
            finally:
                _obs_hooks.CONTEXT = None
        deferred.subscribe(
            partial(self._on_reply, token, timeout_event, replica, operation, arguments)
        )

    def _on_timeout(
        self, token: object, replica: Replica, operation: str, arguments: tuple[Any, ...]
    ) -> None:
        if token is not self._pending:
            return  # the attempt already resolved; this timer lost the race
        self._pending = None
        obs = self.driver.obs
        if obs is not None:
            obs.end_attempt(self, "timeout")
        ServiceRegistry.end_call(replica)
        if self.driver.closed:
            return
        # The hung attempt still owns a FIFO expectation on its connection;
        # reset it so a later reply cannot mis-correlate with the retry.
        self.stack.reset_replica(replica)
        self._attempt_failed(operation, arguments)

    def _on_reply(
        self,
        token: object,
        timeout_event,
        replica: Replica,
        operation: str,
        arguments: tuple[Any, ...],
        value: Any,
        error: BaseException | None,
        _delay: float,
    ) -> None:
        if token is not self._pending:
            # A late reply of a timed-out attempt: its accounting (in-flight
            # slot, failed-attempt counters) was settled at timeout time.
            return
        self._pending = None
        if timeout_event is not None:
            timeout_event.cancel()
        ServiceRegistry.end_call(replica)
        if self.driver.closed:
            # A reply landing after the window: release the in-flight slot
            # (above) but leave the frozen report and the call loop alone.
            return
        outcome = self.stack.classify(value, error)
        obs = self.driver.obs
        if (
            self.retry is not None
            and isinstance(error, TransportError)
            and outcome == OUTCOME_OTHER
        ):
            # Strictly transport-level failure (connection aborted, dead
            # server, ...) under a retry policy: fail over instead of
            # recording a fault.  Deterministic application-level errors
            # (protocol faults, malformed replies) are never retried —
            # they would fail identically every time.
            if obs is not None:
                obs.end_attempt(self, "retry")
            self._attempt_failed(operation, arguments)
            return
        if obs is not None:
            obs.end_attempt(self, outcome)
        self.report.rtts.append(self.driver.scheduler.now - self._call_started)
        self._count(outcome)
        self._note_trace(operation, outcome, replica.index)
        self.driver._note_version_call(replica)
        rollout = self.entry.active_rollout
        if rollout is not None:
            rollout.note_call(outcome)
        if outcome == OUTCOME_SUCCESS:
            self._observe_recency(replica)
            self.driver._note_success(replica)
        elif (
            outcome == OUTCOME_STALE
            and not self._probe
            and self.entry.version_routing
        ):
            # A planned call hit a replica whose interface moved under the
            # client's stubs (a breaking publication): the §5.7 stale fault
            # is the visible signal — never a silently wrong answer — and
            # the client rebinds before its next call.
            if obs is not None:
                obs.end_call(self, outcome)
            self._rebind(replica)
            return
        if obs is not None:
            obs.end_call(self, outcome)
        self._after_call()

    # -- failure/retry path --------------------------------------------------

    def _attempt_failed(self, operation: str, arguments: tuple[Any, ...]) -> None:
        if self.driver.closed:
            return
        self.report.failed_attempts += 1
        retry = self.retry
        if retry is not None and self._attempts < retry.max_attempts:
            self.report.retried_calls += 1
            if retry.backoff > 0:
                scheduler = self.driver.scheduler
                scheduler.schedule(
                    retry.backoff,
                    self._issue,
                    operation,
                    arguments,
                    label=(
                        f"{self.report.name} retry backoff"
                        if scheduler.tracing
                        else "retry backoff"
                    ),
                )
            else:
                self._issue(operation, arguments)
            return
        # Budget exhausted (or no policy): the call is abandoned — it has no
        # RTT and no outcome classification, only the abandoned counter.
        self.report.abandoned_calls += 1
        obs = self.driver.obs
        if obs is not None:
            obs.end_call(self, "abandoned")
        self._note_trace(operation, "abandoned", None)
        self._after_call()

    # -- bookkeeping ---------------------------------------------------------

    def _note_trace(self, operation: str, outcome: str, replica: int | None) -> None:
        """Stream this call's final outcome into the run's trace, if any."""
        trace = self.driver.trace
        if trace is not None:
            trace.note_call(
                issued_at=self._call_started,
                completed_at=self.driver.scheduler.now,
                client=self.report.name,
                protocol=self.plan.protocol,
                service=self.plan.service,
                operation=operation,
                outcome=outcome,
                replica=replica,
            )

    def _after_call(self) -> None:
        think = self.plan.think_time
        if think > 0:
            scheduler = self.driver.scheduler
            scheduler.schedule(
                think,
                self._next_call,
                label=(
                    f"{self.report.name} think time" if scheduler.tracing else "think time"
                ),
            )
        else:
            self._next_call()

    # -- interface evolution: rebind after a breaking publication ------------

    def _rebind(self, replica: Replica) -> None:
        """Refresh this client's stubs for ``replica``, then resume calling.

        The stall protocol guarantees the published interface was current
        when the stale fault was served, so the version observed here
        legitimately raises the routing watermark — after which the fresh
        tier keeps this client off replicas still publishing older versions.
        """
        self.binding.observe(replica.publisher.version)
        if not replica.alive:
            # The replica crashed after serving the stale fault: a re-fetch
            # to the dead node would never resolve.  Skip the refresh — the
            # next call routes elsewhere and rebinds there if still needed.
            self._after_call()
            return
        obs = self.driver.obs
        rebind_span = obs.begin_rebind(self, replica) if obs is not None else None
        deferred = self.stack.rebind_replica(replica)

        def rebound(_value: Any, error: BaseException | None, _delay: float) -> None:
            if self.driver.closed:
                return
            if error is not None:
                # The re-fetch failed (e.g. a crash aborted it in flight):
                # the stubs were not refreshed, so this is not a rebind —
                # the client simply resumes and will fault-and-retry again.
                if obs is not None:
                    obs.end_span(rebind_span, {"outcome": "failed"})
                self._after_call()
                return
            self.report.rebinds += 1
            rollout = self.entry.active_rollout
            if rollout is not None:
                rollout.note_rebind()
            description = self.binding.bound.get(replica.index)
            if description is not None:
                self._re_resolve_operation(description)
            if obs is not None:
                obs.end_span(
                    rebind_span,
                    {"outcome": "rebound", "version": replica.publisher.version},
                )
            self._after_call()

        deferred.subscribe(rebound)

    def _re_resolve_operation(self, description: Any) -> None:
        """Point future calls at the upgrade's successor when ours is gone."""
        if description.has_operation(self._operation):
            return
        successor = self.entry.operation_successors.get(self._operation)
        if successor and description.has_operation(successor):
            self._operation = successor

    def _observe_recency(self, replica: Replica) -> None:
        version = replica.managed.publisher.version
        self.binding.observe(version)
        if version < self._seen_version:
            self.report.recency_violations += 1
            obs = self.driver.obs
            if obs is not None:
                obs.note_recency_violation(
                    span=self._call_span,
                    client=self.report.name,
                    service=self.plan.service,
                    operation=self._operation,
                    replica=replica.index,
                    node=replica.node.name if replica.node is not None else None,
                    tier=self._tier,
                    version=version,
                    watermark=self._seen_version,
                )
        else:
            self._seen_version = version

    def _count(self, outcome: str) -> None:
        report = self.report
        if outcome == OUTCOME_SUCCESS:
            report.successes += 1
        elif outcome == OUTCOME_STALE:
            report.stale_faults += 1
        elif outcome == OUTCOME_NOT_INITIALIZED:
            report.not_initialized_faults += 1
        else:
            report.other_faults += 1


class _ReplicaSnapshot:
    """Pre-run server-side counters for one replica."""

    def __init__(self, replica: Replica) -> None:
        self.replica = replica
        stats = replica.call_handler.stats
        self.stalled_calls = stats.stalled_calls
        self.queued_while_stalled = stats.queued_while_stalled
        self.lifetime_max_stall_depth = stats.max_stall_queue_depth
        self.calls_routed = replica.calls_routed
        publisher_stats = replica.publisher.stats
        self.publications = publisher_stats.publications
        self.forced_publications = publisher_stats.forced_publications
        self.stale_call_publications = publisher_stats.stale_call_publications
        endpoint = transport_endpoint(replica.call_handler)
        self.endpoint = endpoint
        self.replies_sent = endpoint.stats.replies_sent if endpoint else 0
        self.connections = len(endpoint.connections) if endpoint else 0
        # max is not delta-able like the counters: measure this run's high
        # water with a clean gauge, then restore the lifetime maximum.
        stats.max_stall_queue_depth = 0

    def restore_gauges(self) -> None:
        """Put the lifetime high-water mark back (abnormal-exit path)."""
        stats = self.replica.call_handler.stats
        stats.max_stall_queue_depth = max(
            stats.max_stall_queue_depth, self.lifetime_max_stall_depth
        )

    def report(self, calls_by_version: dict[int, int] | None = None) -> ReplicaReport:
        """Build this replica's per-run report and restore lifetime gauges."""
        replica = self.replica
        stats = replica.call_handler.stats
        run_max_depth = stats.max_stall_queue_depth
        stats.max_stall_queue_depth = max(run_max_depth, self.lifetime_max_stall_depth)
        publisher = replica.publisher
        return ReplicaReport(
            calls_by_version=dict(calls_by_version or {}),
            service=replica.service,
            index=replica.index,
            node=replica.node.name,
            class_name=replica.class_name,
            calls_routed=replica.calls_routed - self.calls_routed,
            stalled_calls=stats.stalled_calls - self.stalled_calls,
            queued_while_stalled=stats.queued_while_stalled - self.queued_while_stalled,
            max_stall_queue_depth=run_max_depth,
            connections=(
                len(self.endpoint.connections) - self.connections if self.endpoint else 0
            ),
            replies_sent=(
                self.endpoint.stats.replies_sent - self.replies_sent if self.endpoint else 0
            ),
            publications=publisher.stats.publications - self.publications,
            forced_publications=(
                publisher.stats.forced_publications - self.forced_publications
            ),
            stale_call_publications=(
                publisher.stats.stale_call_publications - self.stale_call_publications
            ),
            interface_version=publisher.version,
        )


class _NodeSnapshot:
    """Pre-run CPU counters for one server machine.

    Like the stall-queue depth, ``max_queue_delay`` is a high-water gauge,
    not a delta-able counter: it is zeroed for the run and the lifetime
    maximum is restored when the report is built.
    """

    def __init__(self, node) -> None:
        self.node = node
        core = node.server_core
        self.core = core
        if core is not None:
            self.busy_seconds = core.busy_seconds
            self.waited_seconds = core.waited_seconds
            self.lifetime_max_wait = core.max_queue_delay
            core.max_queue_delay = 0.0
        else:
            self.busy_seconds = 0.0
            self.waited_seconds = 0.0
            self.lifetime_max_wait = 0.0

    def restore_gauges(self) -> None:
        """Put the lifetime high-water mark back (abnormal-exit path)."""
        if self.core is not None:
            self.core.max_queue_delay = max(
                self.core.max_queue_delay, self.lifetime_max_wait
            )

    def report(self) -> NodeReport:
        """Build this node's per-run report and restore lifetime gauges."""
        core = self.core
        if core is None:
            return NodeReport(name=self.node.name, cores=None)
        run_max_wait = core.max_queue_delay
        core.max_queue_delay = max(run_max_wait, self.lifetime_max_wait)
        return NodeReport(
            name=self.node.name,
            cores=core.cores,
            busy_seconds=core.busy_seconds - self.busy_seconds,
            waited_seconds=core.waited_seconds - self.waited_seconds,
            max_core_wait=run_max_wait,
        )


def transport_endpoint(call_handler):
    """Best-effort transport endpoint of a call handler, any technology.

    The SOAP handler exposes it through its HTTP server, the CORBA handler
    through its server ORB; a third-party handler may expose ``endpoint``
    directly, or nothing at all (connection/reply deltas then read 0).
    """
    http_server = getattr(call_handler, "http_server", None)
    if http_server is not None:
        return http_server.endpoint
    orb = getattr(call_handler, "orb", None)
    if orb is not None:
        return orb.endpoint
    return getattr(call_handler, "endpoint", None)


class FleetDriver:
    """Run a fleet of clients against the registry's services and report."""

    def __init__(
        self,
        scheduler: Scheduler,
        registry: ServiceRegistry,
        plans: Iterable[ClientPlan],
        scripted_events: Iterable[tuple[float, Callable[[], None]]] = (),
        protocol_factories: dict[str, ProtocolClientFactory] | None = None,
        description: str = "cluster fleet",
        until: float | None = None,  # run-relative horizon, like the offsets
        faults: "FaultInjector | None" = None,
        cohorts: "Iterable[CohortFlow]" = (),
        trace: "Any | None" = None,
        obs: "Any | None" = None,
    ) -> None:
        self.scheduler = scheduler
        self.registry = registry
        self.plans = tuple(plans)
        self.scripted_events = tuple(scripted_events)
        self._protocol_factories = protocol_factories or {}
        self.description = description
        self.until = until
        #: Optional :class:`repro.traffic.trace.TraceWriter`: per-call
        #: outcomes, cohort-flow batches and timeline firings are streamed
        #: into it while the run is in flight.  ``None`` costs nothing.
        self.trace = trace
        #: Optional installed :class:`repro.obs.Observability`: span/metric
        #: hook sites all reduce to one ``is not None`` test when off.
        self.obs = obs
        #: The world's fault injector, when one is wired in: successful
        #: replies stamp recovery times and the report gains availability
        #: metrics (downtime, recovery latency) derived from its outage log.
        self.faults = faults
        #: Set once the measured window ends; leftover client events (think
        #: timers, in-flight replies of a deadline-cut run) become no-ops so
        #: they cannot contaminate a later run on the same world.
        self.closed = False
        #: Per-replica completed-call counts keyed by the serving replica's
        #: published interface version at reply time (``id(replica)`` ->
        #: ``{version: calls}``) — the rollout observability feed.
        self._version_calls: dict[int, dict[int, int]] = {}
        self.clients = [_FleetClient(self, plan) for plan in self.plans]
        self._finished_clients = 0
        #: True once every client and flow has finished: the run's stop
        #: condition, read once per dispatched event.
        self._finished = False
        #: Cohort flows: the modeled client mass riding the same registry
        #: and server cores as the discrete fleet (see repro.cluster.cohort).
        self.flows = list(cohorts)
        self._finished_flows = 0

    def protocol_factory(self, name: str) -> ProtocolClientFactory:
        """Scenario-local client-stack factory, else the global registry."""
        local = self._protocol_factories.get(name)
        return local if local is not None else client_protocol_factory(name)

    def run(self) -> ClusterReport:
        """Prepare the fleet, run it to completion, and report."""
        for client in self.clients:
            client.stack.prepare()
        for flow in self.flows:
            # Flow preparation fetches documents and runs the calibration
            # probe — real pre-window traffic, like the clients' fetches —
            # so it must precede the snapshots below.
            flow.prepare(self)

        snapshots = [
            _ReplicaSnapshot(replica)
            for service in self.registry.services
            for replica in service.replicas
        ]
        nodes = []
        seen_nodes = set()
        for service in self.registry.services:
            for replica in service.replicas:
                if id(replica.node) not in seen_nodes:
                    seen_nodes.add(id(replica.node))
                    nodes.append(replica.node)
        node_snapshots = [_NodeSnapshot(node) for node in nodes]

        if self.obs is not None:
            self.obs.begin_run(self)
        try:
            started_at = self.scheduler.now
            events_before = self.scheduler.dispatched_count
            for offset, action in self.scripted_events:
                self.scheduler.schedule(
                    offset, self._guard(action), label="workload scripted event"
                )
            for client in self.clients:
                self.scheduler.schedule(
                    client.plan.start_offset,
                    client.start,
                    label=f"{client.report.name} start",
                )
            for flow in self.flows:
                self.scheduler.schedule(0.0, flow.start, label=f"{flow.name} start")
            deadline = started_at + self.until if self.until is not None else None
            if deadline is not None:
                # A sentinel pins an event at the deadline, so the stop
                # predicate triggers exactly there even when the queue is
                # sparse — without it, run_until would first dispatch
                # whatever event lies beyond the horizon and overshoot.
                self.scheduler.schedule(self.until, _noop, label="run deadline")
            if self.clients or self.flows:
                self.scheduler.run_until(
                    # Without a deadline, getattr bound by partial reads the
                    # flag with no Python frame per dispatched event.
                    partial(getattr, self, "_finished")
                    if deadline is None
                    else lambda: self._finished or self.scheduler.now >= deadline,
                    description=self.description,
                    max_events=1_000_000_000,
                )
            if deadline is not None and self.scheduler.now < deadline:
                self.scheduler.run_for(deadline - self.scheduler.now)
            finished_at = self.scheduler.now
        except BaseException:
            # An event (a user timeline action, a handler) raised out of the
            # window: the zeroed high-water gauges must still be restored.
            for snapshot in snapshots:
                snapshot.restore_gauges()
            for node_snapshot in node_snapshots:
                node_snapshot.restore_gauges()
            raise
        finally:
            # Whatever happened, leftover fleet events must go quiet.
            self.closed = True
            if self.obs is not None:
                self.obs.end_run()

        service_reports = []
        snapshot_by_replica = {id(s.replica): s for s in snapshots}
        for service in self.registry.services:
            service_reports.append(
                ServiceReport(
                    name=service.name,
                    technology=service.technology,
                    policy=service.policy.name,
                    replicas=[
                        snapshot_by_replica[id(replica)].report(
                            self._version_calls.get(id(replica))
                        )
                        for replica in service.replicas
                    ],
                )
            )
        node_reports = [node_snapshot.report() for node_snapshot in node_snapshots]
        if self.faults is not None and self.faults.has_outages:
            self._apply_availability(node_reports, service_reports, started_at, finished_at)
        rollouts = [
            record
            for service in self.registry.services
            for record in service.rollout_history
            if record.started_at >= started_at
        ]
        report = ClusterReport(
            started_at=started_at,
            finished_at=finished_at,
            clients=[client.report for client in self.clients],
            services=service_reports,
            nodes=node_reports,
            rollouts=rollouts,
            events_dispatched=self.scheduler.dispatched_count - events_before,
            cohorts=[flow.report for flow in self.flows],
        )
        if self.obs is not None:
            report.metrics = self.obs.metrics_report()
            report.slo_results = self.obs.evaluate_slos()
            if self.trace is not None:
                self.obs.flush_spans(self.trace)
        return report

    def _guard(self, action: Callable[[], None]) -> Callable[[], None]:
        """Make a scripted event a no-op once this run's window has closed,
        so a timeline entry beyond a deadline cannot fire into a later run."""

        def fire() -> None:
            if not self.closed:
                if self.trace is not None:
                    self.trace.note_timeline(
                        self.scheduler.now, getattr(action, "__trace_event__", None)
                    )
                action()

        return fire

    def _client_finished(self) -> None:
        self._finished_clients += 1
        self._note_finished()

    def _flow_finished(self, flow: object) -> None:
        self._finished_flows += 1
        self._note_finished()

    def _note_finished(self) -> None:
        self._finished = (
            self._finished_clients == len(self.clients)
            and self._finished_flows == len(self.flows)
        )

    def _note_version_call(self, replica: Replica, count: int = 1) -> None:
        """Count ``count`` completed calls under the replica's current version."""
        per_version = self._version_calls.setdefault(id(replica), {})
        version = replica.managed.publisher.version
        per_version[version] = per_version.get(version, 0) + count

    def _note_success(self, replica: Replica) -> None:
        """Stamp recovery bookkeeping for a successful reply (fault drills)."""
        faults = self.faults
        if faults is not None and faults.has_outages and replica.node is not None:
            faults.note_recovery(replica.node.name, self.scheduler.now)

    def _apply_availability(
        self,
        node_reports: list[NodeReport],
        service_reports: list[ServiceReport],
        started_at: float,
        finished_at: float,
    ) -> None:
        """Fold the injector's outage log into the per-node/replica reports."""
        faults = self.faults
        downtime_by_node: dict[str, float] = {}
        for node_report in node_reports:
            name = node_report.name
            downtime = faults.downtime(name, started_at, finished_at)
            downtime_by_node[name] = downtime
            node_report.downtime_s = downtime
            node_report.outages = sum(
                1
                for outage in faults.outages_for(name)
                if outage.downtime_within(started_at, finished_at) > 0.0
                or started_at <= outage.crashed_at <= finished_at
            )
            node_report.recovery_latency_s = faults.recovery_latency(
                name, started_at, finished_at
            )
        for service_report in service_reports:
            for replica_report in service_report.replicas:
                replica_report.downtime_s = downtime_by_node.get(
                    replica_report.node, 0.0
                )


def _noop() -> None:
    """The deadline sentinel: dispatching it only advances the clock."""
