"""§5.3 extensibility, lifted to the Scenario layer.

The paper claims further RMI technologies can be plugged into SDE without
touching the manager.  The seed proves that server-side (a recording toy
technology); here a *complete* third technology — its own plain-text wire
protocol over HTTP, publisher, call handler, gateway class and client-side
stack — is registered through ``Scenario.technology(...)`` and runs
end-to-end: deployment, publication, replica routing, fleet calls, fault
classification and determinism, all through the declarative API.
"""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, edit, op, publish
from repro.cluster.protocols import (
    OUTCOME_OTHER,
    OUTCOME_STALE,
    OUTCOME_SUCCESS,
    ProtocolClient,
)
from repro.core.sde import SDEConfig, Technology
from repro.core.sde.call_handler import CallHandler, DispatchOutcome
from repro.core.sde.publisher import DLPublisher
from repro.errors import ClusterError, NonExistentMethodError
from repro.net.http import HttpServer
from repro.net.http.messages import HttpResponse
from repro.net.transport import Deferred
from repro.rmitypes import STRING

TOY = "toy"
TOY_GATEWAY = "ToyServer"
TOY_BASE_PORT = 8400


class ToyPublisher(DLPublisher):
    """Publishes the interface as a plain-text operation list."""

    def render(self, description):
        operations = ",".join(description.operation_names())
        return f"TOY {description.service_name} v{description.version} ops={operations}"

    @property
    def document_path(self):
        return f"/toy/{self.dynamic_class.name}.txt"

    @property
    def content_type(self):
        return "text/plain"


class ToyCallHandler(CallHandler):
    """Serves ``operation\\narg`` POST bodies over a plain HTTP endpoint."""

    def __init__(self, manager, server, port):
        super().__init__(manager, server)
        self.port = port
        self.http_server = HttpServer(
            manager.host,
            port,
            name=f"sde-toy:{server.dynamic_class.name}",
            cores=manager.server_core,
        )
        self.http_server.add_route(self.endpoint_path, self._handle, methods=("POST",))

    @property
    def endpoint_path(self):
        return f"/toy/{self.dynamic_class.name}"

    @property
    def endpoint_url(self):
        return f"http://{self.manager.host.name}:{self.port}{self.endpoint_path}"

    def start(self):
        self.http_server.start()

    def stop(self):
        self.http_server.stop()

    def _handle(self, request):
        operation, _, argument = request.body.partition("\n")
        reply = _ToyReply(Deferred(f"toy reply for {operation}"))
        self.dispatch(operation, (argument,), reply)
        return reply.deferred


class _ToyReply(DispatchOutcome):
    """The toy technology's per-call reply: a plain-text HTTP response."""

    def __init__(self, deferred):
        self.deferred = deferred

    def on_result(self, value, _signature):
        self.deferred.complete(HttpResponse.ok_text(f"OK {value}"))

    def on_fault(self, error):
        kind = "STALE" if isinstance(error, NonExistentMethodError) else "FAULT"
        self.deferred.complete(HttpResponse.ok_text(f"{kind} {type(error).__name__}"))


def _toy_technology() -> Technology:
    def publisher_factory(manager, server):
        return ToyPublisher(
            dynamic_class=server.dynamic_class,
            interface_server=manager.interface_server,
            scheduler=manager.scheduler,
            namespace=f"{manager.config.namespace_prefix}:{server.name}",
            endpoint_url=server.call_handler.endpoint_url,
            timeout=manager.config.publication_timeout,
            generation_cost=manager.config.generation_cost,
            strategy=manager.config.publication_strategy,
            poll_interval=manager.config.poll_interval,
        )

    def handler_factory(manager, server):
        return ToyCallHandler(manager, server, TOY_BASE_PORT + manager.deployments)

    return Technology(
        name=TOY,
        gateway_class_name=TOY_GATEWAY,
        publisher_factory=publisher_factory,
        call_handler_factory=handler_factory,
    )


class ToyProtocolClient(ProtocolClient):
    """Client-side stack for the toy protocol: plain-text POSTs."""

    technology = TOY

    def __init__(self, host, index, replicas):
        super().__init__(host, index, replicas)
        self.documents = {}

    def prepare_replica(self, replica):
        document = self.fetch(replica.publisher.document_url)
        assert document.startswith("TOY ")
        self.documents[replica.index] = document

    def call(self, replica, operation, arguments):
        body = operation + "\n" + "".join(str(a) for a in arguments)
        wire = self.http.request_async(
            "POST", replica.call_handler.endpoint_url, body=body
        )

        def decode(response, error):
            if error is not None:
                raise error
            return response.body

        return wire.transform(decode)

    def classify(self, value, error):
        if error is not None:
            return OUTCOME_OTHER
        if value.startswith("OK "):
            return OUTCOME_SUCCESS
        if value.startswith("STALE "):
            return OUTCOME_STALE
        return OUTCOME_OTHER


def _toy_scenario(clients: int = 6, **scenario_kwargs) -> Scenario:
    return (
        Scenario(name="toy-world", **scenario_kwargs)
        .servers(2)
        .technology(_toy_technology(), client=ToyProtocolClient)
        .service(
            "Shout",
            [op("shout", (("message", STRING),), STRING,
                body=lambda _self, message: message.upper())],
            technology=TOY,
            replicas=2,
        )
        .clients(clients, service="Shout", calls=4, arguments=("hey",))
    )


class TestThirdTechnologyThroughScenario:
    def test_toy_technology_runs_end_to_end(self):
        report = _toy_scenario().run()
        outcomes = report.outcomes("all")
        assert outcomes.calls == 24
        assert outcomes.successes == 24
        service = report.service("Shout")
        assert service.technology == TOY
        assert service.replica_count == 2
        # Both replicas actually served traffic through the round-robin policy.
        assert all(replica.calls_routed > 0 for replica in service.replicas)
        assert service.replies_sent == 24
        # The toy publisher published a versioned plain-text document.
        assert service.interface_version >= 2

    def test_toy_technology_is_deterministic(self):
        first = _toy_scenario().run()
        second = _toy_scenario().run()
        assert first.all_rtts == second.all_rtts
        assert first.duration == second.duration

    def test_toy_stale_call_classification(self):
        """A stale call against the toy technology follows the §5.7 path:
        it stalls until publication catches up, then faults as stale."""
        report = (
            _toy_scenario(clients=4, sde_config=SDEConfig(publication_timeout=5.0))
            .at(0.0, edit("Shout", op("added_later")))
            .run()
        )
        assert report.outcomes("discrete").successes == 16

        stale = (
            Scenario(name="toy-stale", sde_config=SDEConfig(publication_timeout=5.0))
            .technology(_toy_technology(), client=ToyProtocolClient)
            .service(
                "Shout",
                [op("shout", (("message", STRING),), STRING,
                    body=lambda _self, message: message.upper())],
                technology=TOY,
            )
            .clients(4, service="Shout", calls=6, arguments=("hey",),
                     stale_every=3, think_time=0.05)
            .at(0.0, edit("Shout", op("added_later")))
            .run()
        )
        assert stale.outcomes("discrete").stale_faults == 4 * 2
        assert stale.service("Shout").stalled_calls > 0

    def test_cde_binding_drives_the_toy_stack(self):
        """CDE connects through the scenario's client stack for the
        technology, so a third technology needs no CDE code of its own."""
        runtime = _toy_scenario().build()
        runtime.publish("Shout")
        binding = runtime.connect("Shout", replica=1)
        assert binding.invoke("shout", "hey") == "OK HEY"
        assert binding.stats[OUTCOME_SUCCESS] == 1

    def test_connect_to_a_technology_without_a_client_stack_raises(self):
        """A technology registered on a server node but not through
        ``Scenario.technology`` has no client stack: ``connect`` names the
        stacks the scenario knows."""
        runtime = Scenario(name="no-toy-stack").build()
        node = runtime.nodes[0]
        node.sde.register_technology(_toy_technology())
        node.environment.create_class("Loose", superclass=node.sde.gateway_class(TOY))
        runtime.settle()
        with pytest.raises(ClusterError, match=r"'toy'.*\['corba', 'soap'\]"):
            runtime.connect("Loose")
