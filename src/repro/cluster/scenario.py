"""The declarative Scenario API: describe a whole simulated world, run it.

One :class:`Scenario` describes an N-server × M-client live-development
world — machines, services with replicas and routing policies, client
fleets with protocol mixes, and a timeline of developer actions — then
``run()`` builds it, drives it deterministically on the discrete-event
scheduler, and returns a :class:`~repro.cluster.report.ClusterReport`::

    report = (
        Scenario()
        .servers(4, cores=2)
        .service("Echo", [op("echo", [("m", STRING)], STRING, body=lambda s, m: m)],
                 replicas=4)
        .clients(64, protocol_mix={"soap": 0.5, "corba": 0.5},
                 calls=5, operation="echo", arguments=("hi",))
        .at(0.5, edit("Echo", op("added_later")))
        .at(0.6, publish("Echo"))
        .run()
    )

``build()`` returns the underlying :class:`ScenarioRuntime` instead, for
interactive use (connect a CDE binding, edit classes, publish, inspect) —
the workflow the examples walk through.

The API is protocol-agnostic end to end: ``technology()`` registers a
third :class:`~repro.core.sde.api.Technology` on every server node and a
matching client-side stack, after which services and clients can use it
exactly like the SOAP and CORBA built-ins (the §5.3 extensibility claim,
lifted to the scenario layer).

Fault timeline actions (``crash`` / ``restart`` / ``partition`` /
``heal`` / ``drop_link`` / ``restore_link`` from :mod:`repro.faults`)
compose in ``at(...)`` exactly like the developer actions, and
``clients(..., retry=RetryPolicy(...))`` makes a fleet fail over through
them — see ARCHITECTURE.md "Fault model".
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from itertools import compress, cycle, islice, tee
from typing import Any, Callable, Iterable, Sequence

from repro.cluster.cohort import CohortFlow, CohortModel
from repro.cluster.driver import ClientPlan, FleetDriver
from repro.cluster.protocols import BUILTIN_STACKS, ProtocolClientFactory, stack_factory
from repro.cluster.registry import (
    POLICY_ROUND_ROBIN,
    Replica,
    ServiceEntry,
    ServiceRegistry,
    make_policy,
)
from repro.cluster.report import ClusterReport
from repro.cluster.topology import ClusterWorld, ServerNode
from repro.core.cde import ClientDevelopmentEnvironment, DynamicClientBinding
from repro.core.sde import SDEConfig, Technology
from repro.errors import ClusterError, ServiceNotFoundError
from repro.faults import FaultInjector, RetryPolicy
from repro.interface import Parameter
from repro.jpie import DynamicClass
from repro.net import LatencyModel
from repro.rmitypes import RmiType, VOID
from repro.traffic.arrivals import ArrivalProcess, _checked, resolve_offsets

#: Default protocol for services that do not name a technology.
DEFAULT_TECHNOLOGY = "soap"


@dataclass
class OperationSpec:
    """A compact way to describe a distributed method."""

    name: str
    parameters: tuple[tuple[str, RmiType], ...]
    return_type: RmiType = VOID
    body: Callable[..., Any] | None = None

    def parameter_objects(self) -> tuple[Parameter, ...]:
        """Convert the ``(name, type)`` pairs into Parameter objects."""
        return tuple(Parameter(name, rmi_type) for name, rmi_type in self.parameters)


def op(
    name: str,
    parameters: Iterable[tuple[str, RmiType]] = (),
    returns: RmiType = VOID,
    body: Callable[..., Any] | None = None,
) -> OperationSpec:
    """Describe one distributed operation (`op/edit` helper)."""
    return OperationSpec(name, tuple(parameters), returns, body)


# -- timeline action helpers ---------------------------------------------------


def edit(service: str, *operations: OperationSpec):
    """Timeline action: add distributed methods to every replica of a service."""

    def action(runtime: "ScenarioRuntime") -> None:
        for replica in runtime.replicas(service):
            for spec in operations:
                replica.managed.dynamic_class.add_method(
                    spec.name,
                    spec.parameter_objects(),
                    spec.return_type,
                    body=spec.body,
                    distributed=True,
                )

    action.__trace_event__ = {
        "kind": "edit",
        "service": service,
        "operations": operations,
    }
    return action


def publish(service: str):
    """Timeline action: force publication on every replica of a service."""

    def action(runtime: "ScenarioRuntime") -> None:
        for replica in runtime.replicas(service):
            replica.node.manager_interface.force_publication(replica.class_name)

    action.__trace_event__ = {"kind": "publish", "service": service}
    return action


def churn(service: str, rounds: int = 3, period: float = 1.0, prefix: str = "churned_op_"):
    """Timeline action: repeated edit+publish rounds (interface churn).

    Every ``period`` virtual seconds, for ``rounds`` rounds, one new
    distributed method is added to every replica of ``service`` and a
    publication is forced — sustained interface churn under load.
    """

    def action(runtime: "ScenarioRuntime") -> None:
        state = {"round": 0}
        epoch = runtime.run_epoch

        def one_round() -> None:
            if runtime.run_epoch != epoch:
                # A later run() started: this churn sequence belongs to a
                # finished window and must not leak edits into the new one.
                return
            index = state["round"]
            state["round"] += 1
            for replica in runtime.replicas(service):
                replica.managed.dynamic_class.add_method(
                    f"{prefix}{index}", (), VOID, body=lambda _self: None, distributed=True
                )
                replica.node.manager_interface.force_publication(replica.class_name)
            if state["round"] < rounds:
                runtime.world.scheduler.schedule(period, one_round, label="interface churn")

        one_round()

    action.__trace_event__ = {
        "kind": "churn",
        "service": service,
        "rounds": rounds,
        "period": period,
        "prefix": prefix,
    }
    return action


# -- declarative specs ---------------------------------------------------------


@dataclass(frozen=True)
class _ServiceSpec:
    name: str
    operations: tuple[OperationSpec, ...]
    technology: str | None
    replicas: int
    policy: Any
    version_routing: bool = False


@dataclass(frozen=True)
class _ClientGroupSpec:
    count: int
    protocol_mix: tuple[tuple[str, float], ...] | None
    service: str | None
    calls: int
    operation: str | None
    arguments: tuple[Any, ...]
    think_time: float
    arrival: Any
    stale_every: int | None
    stale_operation: str
    retry: RetryPolicy | None
    cohort: CohortModel | None = None


class Scenario:
    """Declarative description of an N-server × M-client simulated world."""

    def __init__(
        self,
        name: str = "scenario",
        latency: LatencyModel | None = None,
        sde_config: SDEConfig | None = None,
    ) -> None:
        self.name = name
        self._latency = latency
        self._base_config = sde_config
        self._server_count = 1
        self._server_cores: int | None = None
        self._default_technology: str | None = None
        self._technologies: list[tuple[Technology, ProtocolClientFactory]] = []
        self._services: list[_ServiceSpec] = []
        self._client_groups: list[_ClientGroupSpec] = []
        self._timeline: list[tuple[float, Callable[..., None]]] = []
        self._slos: list[Any] = []

    # -- machines -----------------------------------------------------------

    def servers(
        self,
        count: int = 1,
        *,
        cores: int | None = None,
        technology: str | None = None,
        config: SDEConfig | None = None,
    ) -> "Scenario":
        """Declare the server fleet: ``count`` machines, each its own SDE.

        ``cores`` bounds every machine's CPU concurrency; ``technology``
        sets the default technology for services that do not name one;
        ``config`` overrides the scenario-wide :class:`SDEConfig` template.
        """
        if count < 1:
            raise ClusterError("a scenario needs at least one server")
        self._server_count = count
        self._server_cores = cores
        if technology is not None:
            self._default_technology = technology
        if config is not None:
            self._base_config = config
        return self

    def technology(
        self, technology: Technology, client: ProtocolClientFactory
    ) -> "Scenario":
        """Register a third :class:`Technology` on every server node, with
        ``client``, the factory of its client-side stack — the technology's
        one registration (fleet clients, cohort flows and ``connect`` all
        build their stacks from it)."""
        self._technologies.append((technology, client))
        return self

    # -- services -----------------------------------------------------------

    def service(
        self,
        name: str,
        operations: Iterable[OperationSpec] = (),
        *,
        technology: str | None = None,
        replicas: int = 1,
        policy: Any = POLICY_ROUND_ROBIN,
        version_routing: bool = False,
    ) -> "Scenario":
        """Declare a service: replicas spread round-robin over the servers.

        ``version_routing`` arms version-aware replica selection from the
        start (clients stay on replicas fresh w.r.t. their §6 watermark and
        compatible with their bound stubs); a ``rolling`` / ``canary``
        rollout arms it automatically when it starts, so the flag is only
        needed for scenarios that diverge replica versions by hand.
        """
        if replicas < 1:
            raise ClusterError(f"service {name!r} needs at least one replica")
        self._services.append(
            _ServiceSpec(
                name, tuple(operations), technology, replicas, policy, version_routing
            )
        )
        return self

    # -- clients ------------------------------------------------------------

    def clients(
        self,
        count: int,
        *,
        protocol_mix: dict[str, float] | None = None,
        service: str | None = None,
        calls: int = 10,
        operation: str | None = None,
        arguments: tuple[Any, ...] = (),
        think_time: float = 0.0,
        arrival: Any = 0.0,
        stale_every: int | None = None,
        stale_operation: str = "no_such_operation",
        retry: RetryPolicy | None = None,
        cohort: CohortModel | None = None,
    ) -> "Scenario":
        """Declare a fleet of ``count`` clients.

        Each client targets either the named ``service`` or — under a
        ``protocol_mix`` like ``{"soap": 0.5, "corba": 0.5}`` — the first
        declared service of its assigned protocol; protocols are assigned by
        a deterministic weighted interleave (weights must be finite and
        non-negative; 0 omits a protocol).  ``arrival`` staggers start
        times: a float ``s`` starts client *i* at ``i * s``, a callable maps
        the client index to its offset, and an
        :class:`~repro.traffic.arrivals.ArrivalProcess` (``Poisson``,
        ``ParetoHeavyTail``, ``Diurnal``, ``FlashCrowd``, ``ClientChurn``)
        draws the whole group's offsets from one seeded stream — open-loop
        load shapes, identical for discrete clients and cohort flow mass
        (see :mod:`repro.traffic`).  ``operation`` defaults to the first
        operation declared for the target service.  ``retry`` makes the
        group failover-aware: a :class:`repro.faults.RetryPolicy` reissues
        transport-failed or timed-out calls against whatever replicas the
        routing policy still considers alive.

        ``cohort`` scales the group past the discrete fleet's practical
        ceiling: the group's first ``cohort.representatives`` clients stay
        fully discrete while the remaining mass runs as aggregate
        :class:`~repro.cluster.cohort.CohortFlow` arrival processes through
        the same routing policies and server-core model (see
        :mod:`repro.cluster.cohort`).  ``clients(1_000_000,
        cohort=CohortModel(representatives=32), ...)`` is the
        million-client form.
        """
        if count < 1:
            raise ClusterError("a client group needs at least one client")
        if service is not None and protocol_mix is not None:
            raise ClusterError("give a client group either a service or a protocol_mix")
        if protocol_mix and not all(math.isfinite(w) and w >= 0 for w in protocol_mix.values()):
            raise ClusterError(
                f"protocol_mix weights must be finite and non-negative: {protocol_mix}"
            )
        if cohort is not None and not isinstance(cohort, CohortModel):
            raise ClusterError(
                f"cohort must be a CohortModel, got {type(cohort).__name__}"
            )
        self._client_groups.append(
            _ClientGroupSpec(
                count=count,
                protocol_mix=tuple(protocol_mix.items()) if protocol_mix else None,
                service=service,
                calls=calls,
                operation=operation,
                arguments=tuple(arguments),
                think_time=think_time,
                arrival=arrival,
                stale_every=stale_every,
                stale_operation=stale_operation,
                retry=retry,
                cohort=cohort,
            )
        )
        return self

    # -- objectives ---------------------------------------------------------

    def slo(self, *objectives: Any) -> "Scenario":
        """Declare service-level objectives evaluated after every run.

        ``objectives`` are :class:`repro.obs.slo.SLO` declarations (see
        :func:`~repro.obs.slo.latency_slo` and friends).  Declaring any
        arms observability metrics automatically if ``run(obs=...)`` does
        not: good/total series land in ``report.metrics`` and verdicts
        (compliance plus multi-window burn-rate alerts) on
        ``report.slo_results``.
        """
        self._slos.extend(objectives)
        return self

    # -- timeline -----------------------------------------------------------

    def at(self, time: float, action: Callable[..., None]) -> "Scenario":
        """Schedule a developer action at a run-relative virtual time.

        ``action`` is either one of the :func:`edit` / :func:`publish` /
        :func:`churn` helpers (called with the runtime) or any zero-argument
        callable.
        """
        self._timeline.append((time, action))
        return self

    # -- execution ----------------------------------------------------------

    def build(self) -> "ScenarioRuntime":
        """Build the world (servers, services, registry) without running it."""
        return ScenarioRuntime(self)

    def run(
        self,
        until: float | None = None,
        trace: Any | None = None,
        obs: Any | None = None,
    ) -> ClusterReport:
        """Build the world, publish every service, drive the fleet, report.

        ``trace`` is an optional :class:`repro.traffic.trace.TraceWriter`;
        use :func:`repro.traffic.record` for the full record protocol.
        ``obs`` arms observability for the run: ``True`` for defaults, an
        :class:`repro.obs.ObsConfig`, or a prepared
        :class:`repro.obs.Observability` instance (pass the instance to read
        spans/metrics/flight dumps back after the run).
        """
        return self.build().run(until=until, trace=trace, obs=obs)

    def __repr__(self) -> str:
        return (
            f"Scenario({self.name!r}, servers={self._server_count}, "
            f"services={[s.name for s in self._services]}, "
            f"client_groups={len(self._client_groups)})"
        )


def _weighted_interleave(mix: Sequence[tuple[str, float]], count: int) -> list[str]:
    """Deterministically spread ``count`` slots over weighted protocol names.

    Returns the interleave's repeating unit: position ``p`` of the ``count``
    slots speaks ``unit[p % len(unit)]``.  The unit is the whole sequence
    unless the greedy provably repeats sooner.
    """
    names = [name for name, weight in mix if weight > 0]
    if not names:
        raise ClusterError("protocol_mix needs at least one positive weight")
    weights = dict(mix)
    total = sum(weights[name] for name in names)
    shares = [weights[name] / total for name in names]
    # Each share is a float m / 2**k.  While every |m| * slot < 2**53 each
    # product and lag below is exact, so the greedy is exact rational
    # arithmetic; if every lag is back to 0 at slot D (the largest 2**k) the
    # state is the start state again and the first D slots repeat.  If not
    # (shares that do not sum to exactly 1), the same loop runs on to
    # ``count``.  For the 50/50 mix D == 2; a 0.7/0.3 mix has D near 2**54
    # and runs to ``count`` from the start.
    numerators, denominators = zip(*(share.as_integer_ratio() for share in shares))
    period = max(denominators)
    if period >= count or max(map(abs, numerators)) * count >= 2**53:
        period = count
    assigned = [0] * len(names)
    rest = range(1, len(names))
    sequence = []
    for stop in (period, count):
        for slot in range(len(sequence) + 1, stop + 1):
            # The protocol furthest behind its target share wins the slot
            # (the strict ``>`` keeps declaration order on ties), so mixes
            # interleave instead of blocking.  No Python-level call per slot.
            best, lag = 0, shares[0] * slot - assigned[0]
            for i in rest:
                behind = shares[i] * slot - assigned[i]
                if behind > lag:
                    best, lag = i, behind
            assigned[best] += 1
            sequence.append(names[best])
        if all(taken == share * stop for taken, share in zip(assigned, shares)):
            break
    return sequence


class ScenarioRuntime:
    """A built scenario world: servers up, services deployed and registered."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.world = ClusterWorld(latency=scenario._latency)
        base_config = scenario._base_config if scenario._base_config is not None else SDEConfig()
        self.nodes: list[ServerNode] = []
        for index in range(scenario._server_count):
            config = replace(base_config)
            if scenario._server_cores is not None and config.server_cores is None:
                config.server_cores = scenario._server_cores
            # A single-machine scenario keeps the seed's host name (message
            # sizes embed URLs, so the name feeds size-dependent delays —
            # this keeps one-server runs byte-comparable with the seed).
            name = "server" if scenario._server_count == 1 else f"server-{index + 1}"
            node = self.world.add_server(name, config)
            for technology, _client in scenario._technologies:
                node.sde.register_technology(technology)
            self.nodes.append(node)
        self._protocol_factories = {
            **BUILTIN_STACKS,
            **{technology.name: client for technology, client in scenario._technologies},
        }
        self.registry = ServiceRegistry()
        self._service_specs: dict[str, _ServiceSpec] = {}
        self._placement_cursor = 0
        self._deploy_services()
        self._cde: ClientDevelopmentEnvironment | None = None
        self._published_services: set[str] = set()
        #: The world's fault injector — the ``crash`` / ``restart`` /
        #: ``partition`` / ``heal`` / ``drop_link`` timeline actions act
        #: through it, and the fleet driver reads its outage log for the
        #: report's availability metrics.  Created eagerly (it is inert
        #: until a fault is injected) so mid-run timeline actions and the
        #: driver share one instance.
        self.fault_injector = FaultInjector(self.world)
        #: Bumped by every run(); self-rescheduling timeline actions (churn)
        #: compare against it so a finished window's rounds go quiet.
        self.run_epoch = 0

    # -- deployment ---------------------------------------------------------

    def _default_technology(self) -> str:
        return self.scenario._default_technology or DEFAULT_TECHNOLOGY

    def _deploy_services(self) -> None:
        for spec in self.scenario._services:
            technology_name = spec.technology or self._default_technology()
            entry = ServiceEntry(spec.name, technology_name, make_policy(spec.policy))
            entry.version_routing = spec.version_routing
            suffixed = spec.replicas > len(self.nodes)
            for index in range(spec.replicas):
                # The placement cursor advances across services, so a later
                # service fills the machines an earlier one left idle.
                node = self.nodes[self._placement_cursor % len(self.nodes)]
                self._placement_cursor += 1
                # Underscore, not dash: the class name must stay a valid
                # identifier (the dashed variant failed class creation).
                class_name = f"{spec.name}_{index + 1}" if suffixed else spec.name
                gateway = node.sde.gateway_class(technology_name)
                dynamic_class = node.environment.create_class(class_name, superclass=gateway)
                for op_spec in spec.operations:
                    dynamic_class.add_method(
                        op_spec.name,
                        op_spec.parameter_objects(),
                        op_spec.return_type,
                        body=op_spec.body,
                        distributed=True,
                    )
                dynamic_class.new_instance()
                replica = entry.add_replica(node, node.sde.managed_server(class_name))
                self._watch_publications(entry, replica)
            self.registry.register(entry)
            self._service_specs[spec.name] = spec

    @staticmethod
    def _watch_publications(entry: ServiceEntry, replica: Replica) -> None:
        """Feed the service's version graph from this replica's publisher.

        The minimal deployment-time publication already happened before the
        replica joined the registry, so the publisher's history is
        backfilled first and the listener keeps the graph current from here
        on (pure bookkeeping — no scheduler events, determinism preserved).
        """
        graph = entry.version_graph
        publisher = replica.publisher
        for record in publisher.publication_history:
            graph.record(replica.index, record.version, record.description, record.time)
        publisher.publication_listeners.append(
            lambda record, index=replica.index: graph.record(
                index, record.version, record.description, record.time
            )
        )

    # -- inspection ---------------------------------------------------------

    def replicas(self, service: str) -> list[Replica]:
        """The deployed replicas of ``service``, in index order."""
        return self.registry.lookup(service).replicas

    def _replica(self, service: str, index: int) -> Replica:
        """One replica of ``service``; no negative or past-the-end index."""
        replicas = self.replicas(service)
        if not 0 <= index < len(replicas):
            raise ClusterError(
                f"service {service!r} has {len(replicas)} replica(s); "
                f"replica index {index} is out of range"
            )
        return replicas[index]

    def dynamic_class(self, service: str, replica: int = 0) -> DynamicClass:
        """The dynamic class backing one replica of ``service``."""
        return self._replica(service, replica).managed.dynamic_class

    def node_of(self, service: str, replica: int = 0) -> ServerNode:
        """The server node hosting one replica of ``service``."""
        return self._replica(service, replica).node

    # -- interactive developer actions --------------------------------------

    def publish(self, service: str | None = None) -> None:
        """Force publication (all services by default) and let it complete."""
        entries: Iterable[ServiceEntry] = (
            (self.registry.lookup(service),) if service is not None else self.registry.services
        )
        self._force_and_settle(entries)

    def _force_and_settle(self, entries: Iterable[ServiceEntry]) -> None:
        generation_cost = 0.0
        for entry in entries:
            for replica in entry.replicas:
                replica.node.manager_interface.force_publication(replica.class_name)
                generation_cost = max(generation_cost, replica.node.sde.config.generation_cost)
            self._published_services.add(entry.name)
        self.world.run_for(generation_cost * 2)

    def settle(self) -> None:
        """Let pending stability timers expire and publications complete."""
        margin = max(
            node.sde.config.publication_timeout + node.sde.config.generation_cost * 2
            for node in self.nodes
        )
        self.world.run_for(margin + 0.001)

    @property
    def cde(self) -> ClientDevelopmentEnvironment:
        """A lazily created CDE session on its own client machine."""
        if self._cde is None:
            self._cde = ClientDevelopmentEnvironment(self.world.add_client("cde"))
        return self._cde

    def connect(self, name: str, replica: int = 0) -> DynamicClientBinding:
        """Connect a CDE binding to one replica of a registered service, or
        to a class created live on a server node (``replica`` then counts
        the nodes managing a class of that name, in node order)."""
        try:
            target = self._replica(name, replica)
        except ServiceNotFoundError:
            nodes = [node for node in self.nodes if node.sde.is_managed(name)]
            if not 0 <= replica < len(nodes):
                raise ClusterError(
                    f"no service {name!r}, and {len(nodes)} node(s) manage a class "
                    f"of that name; replica index {replica} is out of range"
                ) from None
            node = nodes[replica]
            target = Replica(name, replica, node, node.sde.managed_server(name))
        technology = target.managed.technology.name
        return self.cde.connect(stack_factory(self._protocol_factories, technology), target)

    # -- the measured run ---------------------------------------------------

    def run(
        self,
        until: float | None = None,
        trace: Any | None = None,
        obs: Any | None = None,
    ) -> ClusterReport:
        """Publish where still needed, drive the declared fleet, and report.

        Client fleets need current interface documents, so services not yet
        force-published (manually or by an earlier run) are published first;
        a client-less timeline run keeps the organic publication behaviour
        (stability timers, polling) intact.  ``until`` is a run-relative
        horizon: the run covers ``until`` virtual seconds from the measured
        window's start, whatever the world's clock already reads.  The
        timeline is part of the world's history, so it is armed exactly
        once — by the first run; an action cut off by that run's deadline
        never fires (developer actions are not replayed by later runs).
        """
        self.run_epoch += 1
        if self.scenario._client_groups:
            pending = [
                entry
                for entry in self.registry.services
                if entry.name not in self._published_services
            ]
            if pending:
                self._force_and_settle(pending)
        plans, flows = self._build_plans()
        if not plans and not flows and until is None and self.scenario._timeline:
            raise ClusterError(
                "a scenario with timeline actions but no clients needs run(until=...)"
            )
        scripted = (
            [(time, self._bind_action(action)) for time, action in self.scenario._timeline]
            if self.run_epoch == 1
            else []
        )
        from repro.obs.api import Observability

        observability = Observability.resolve(obs)
        slos = tuple(self.scenario._slos)
        if slos:
            # Declared objectives arm metrics on their own; an explicit
            # obs argument keeps its config and merely gains the SLOs
            # (unless it already declares its own set, which wins).
            from repro.obs.api import ObsConfig

            if observability is None:
                observability = Observability(ObsConfig(slos=slos))
            elif not observability.config.slos:
                observability.config = replace(observability.config, slos=slos)
        if observability is not None:
            observability.install(self.world.scheduler)
        driver = FleetDriver(
            self.world.scheduler,
            self.registry,
            plans,
            scripted_events=scripted,
            protocol_factories=self._protocol_factories,
            description=f"scenario {self.scenario.name}",
            until=until,
            faults=self.fault_injector,
            cohorts=flows,
            trace=trace,
            obs=observability,
        )
        try:
            return driver.run()
        finally:
            if observability is not None:
                observability.uninstall()

    # -- plan building ------------------------------------------------------

    def _service_for_protocol(self, protocol: str) -> ServiceEntry:
        for entry in self.registry.services:
            if entry.technology == protocol:
                return entry
        raise ClusterError(f"no declared service uses technology {protocol!r}")

    def _default_operation(self, service: str) -> str:
        spec = self._service_specs[service]
        if not spec.operations:
            raise ClusterError(
                f"service {service!r} declares no operations; name one in clients()"
            )
        return spec.operations[0].name

    def _build_plans(self) -> tuple[list[ClientPlan], list[CohortFlow]]:
        plans: list[ClientPlan] = []
        flows: list[CohortFlow] = []
        discrete_counts = [
            group.count
            if group.cohort is None
            else min(group.count, group.cohort.representatives)
            for group in self.scenario._client_groups
        ]
        hosts = self.world.client_fleet(sum(discrete_counts))
        index = 0
        for group, discrete_count in zip(self.scenario._client_groups, discrete_counts):
            # One resolution covers the FULL group (scalar spacing, callable,
            # or seeded ArrivalProcess — see repro.traffic.arrivals), so the
            # discrete representatives and the flow mass read their offsets
            # from the same stream: cohort aggregation never shifts when
            # anyone arrives.  The representatives take the first offsets
            # now; the flows read the rest tick by tick.
            offsets = resolve_offsets(group.arrival, group.count)
            starts = _checked(list(islice(offsets, discrete_count)))
            # The protocol interleave covers the FULL group, so the
            # representatives' assignments are exactly what positions
            # 0..reps-1 would get in the all-discrete group and the flow
            # mass inherits the rest — cohort aggregation never shifts who
            # speaks which protocol.  Position p speaks unit[p % len(unit)],
            # and the unit is one interleave period (two names for a 50/50
            # mix), so no per-client list or Python call is made here
            # (ARCHITECTURE.md "Plan building").
            if group.service is not None:
                entry = self.registry.lookup(group.service)
                unit = [entry.technology]
                service_of = {entry.technology: entry.name}
            else:
                mix = group.protocol_mix or ((self._default_technology(), 1.0),)
                unit = _weighted_interleave(mix, group.count)
                service_of = {
                    protocol: self._service_for_protocol(protocol).name
                    for protocol in dict.fromkeys(unit)
                }
            for position in range(discrete_count):
                protocol = unit[position % len(unit)]
                service = service_of[protocol]
                operation = group.operation or self._default_operation(service)
                plans.append(
                    ClientPlan(
                        index=index,
                        host=hosts[index],
                        protocol=protocol,
                        service=service,
                        calls=group.calls,
                        operation=operation,
                        arguments=group.arguments,
                        think_time=group.think_time,
                        start_offset=starts[position],
                        stale_every=group.stale_every,
                        stale_operation=group.stale_operation,
                        retry=group.retry,
                    )
                )
                index += 1
            if group.cohort is None or group.count <= discrete_count:
                continue
            # One flow per protocol of the mass, in first-position order,
            # reading exactly its own positions' offsets: mass position j is
            # group position reps + j, so it speaks the unit rotated by reps.
            # With several protocols each flow filters its own tee of the
            # stream; every flow reads up to the same clock, so the tees stay
            # about a chunk apart.  A callable's offsets come in position
            # order, so each flow sorts its share of them.
            mass = group.count - discrete_count
            turn = discrete_count % len(unit)
            rotated = unit[turn:] + unit[:turn]
            laps, rest = divmod(mass, len(rotated))
            kinds = list(dict.fromkeys(rotated[:mass]))
            streams = tee(offsets, len(kinds)) if len(kinds) > 1 else [offsets]
            ordered = isinstance(group.arrival, ArrivalProcess) or not callable(group.arrival)
            for protocol, stream in zip(kinds, streams):
                if len(kinds) > 1:
                    stream = compress(stream, cycle(map(protocol.__eq__, rotated)))
                service = service_of[protocol]
                flow_number = len(flows) + 1
                flows.append(
                    CohortFlow(
                        index=flow_number,
                        name=f"cohort-{flow_number}",
                        protocol=protocol,
                        service=service,
                        operation=group.operation or self._default_operation(service),
                        arguments=group.arguments,
                        calls=group.calls,
                        think_time=group.think_time,
                        arrivals=stream if ordered else iter(sorted(stream)),
                        mass=laps * rotated.count(protocol) + rotated[:rest].count(protocol),
                        model=group.cohort,
                        host=self.world.add_client(f"cohort-client-{flow_number}"),
                        world=self.world,
                        registry=self.registry,
                    )
                )
        return plans, flows

    def _bind_action(self, action: Callable[..., None]) -> Callable[[], None]:
        try:
            parameter_count = len(inspect.signature(action).parameters)
        except (TypeError, ValueError):
            parameter_count = 1
        if parameter_count == 0:
            return action
        bound = lambda: action(self)  # noqa: E731 - metadata is attached below
        meta = getattr(action, "__trace_event__", None)
        if meta is not None:
            # Keep the trace metadata visible on the bound callable, so the
            # driver's scripted-event guard can record the firing.
            bound.__trace_event__ = meta  # type: ignore[attr-defined]
        return bound

    def __repr__(self) -> str:
        return (
            f"ScenarioRuntime({self.scenario.name!r}, "
            f"nodes={[n.name for n in self.nodes]}, "
            f"services={[s.name for s in self.registry.services]})"
        )
