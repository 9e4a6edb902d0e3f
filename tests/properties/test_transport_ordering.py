"""Property-based tests for transport ordering and §5.7 stall semantics.

Two invariants the multi-client scale-out work leans on:

* **per-connection FIFO** — whatever processing delays individual requests
  incur (including deferred replies resolving out of order), the replies on
  one connection leave in request-arrival order;
* **§5.7 drain order** — calls queued behind a stall are processed in
  arrival order once the publisher catches up, for any randomized arrival
  pattern.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Scenario, ScenarioRuntime, op
from repro.core.sde import SDEConfig
from repro.core.sde.call_handler import DispatchOutcome
from repro.net import Network, loopback_profile
from repro.net.latency import LatencyModel
from repro.net.simnet import Address
from repro.net.transport import Deferred, Endpoint
from repro.rmitypes import INT, VOID
from repro.sim import Scheduler


# ---------------------------------------------------------------------------
# Transport-level FIFO (the Connection invariant)
# ---------------------------------------------------------------------------


class TestConnectionFifoProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12
        ),
        propagation=st.floats(min_value=0.00001, max_value=0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_replies_leave_in_arrival_order(self, delays, propagation):
        """Per-request processing delays never reorder replies on one
        connection."""
        scheduler = Scheduler()
        network = Network(
            scheduler, LatencyModel(propagation=propagation, per_message_overhead=0.0001)
        )
        server = network.add_host("server")
        client = network.add_host("client")

        def handler(message, connection):
            index = int(message.payload)
            return message.payload, delays[index]

        endpoint = Endpoint(server, 9000, handler, name="fifo-prop")
        endpoint.start()

        received: list[bytes] = []
        client.bind(40000, lambda message, _host: received.append(message.payload))
        for index in range(len(delays)):
            client.send(Address("server", 9000), b"%d" % index, source_port=40000)
        scheduler.run_until_idle()

        assert received == [b"%d" % index for index in range(len(delays))]

    @given(
        completion_order=st.permutations(list(range(6))),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_deferred_resolution_order_is_irrelevant(self, completion_order, gaps):
        """Resolving deferred replies in any order still transmits FIFO."""
        scheduler = Scheduler()
        network = Network(scheduler, loopback_profile())
        server = network.add_host("server")
        client = network.add_host("client")

        deferreds: dict[int, Deferred] = {}

        def handler(message, connection):
            deferred: Deferred = Deferred()
            deferreds[int(message.payload)] = deferred
            return deferred

        endpoint = Endpoint(server, 9000, handler)
        endpoint.start()

        received: list[bytes] = []
        client.bind(40000, lambda message, _host: received.append(message.payload))
        for index in range(6):
            client.send(Address("server", 9000), b"%d" % index, source_port=40000)
        scheduler.run_until(lambda: len(deferreds) == 6, description="requests arrive")

        # Resolve in the hypothesis-chosen order at hypothesis-chosen times.
        at = 0.0
        for position, index in enumerate(completion_order):
            at += gaps[position]
            scheduler.schedule(at, deferreds[index].complete, b"%d" % index)
        scheduler.run_until_idle()

        assert received == [b"%d" % index for index in range(6)]


# ---------------------------------------------------------------------------
# §5.7: stalled calls drain in arrival order
# ---------------------------------------------------------------------------


def _stalled_runtime() -> ScenarioRuntime:
    """A world whose EchoService has an unpublished edit pending, so the
    next stale call stalls (timer running, no generation in progress)."""
    runtime = (
        Scenario(sde_config=SDEConfig(publication_timeout=30.0, reactive_publication=True))
        .service("EchoService", [op("echo", (("x", INT),), INT, body=lambda _self, x: x)])
        .build()
    )
    runtime.publish("EchoService")
    runtime.dynamic_class("EchoService").add_method("pending_edit", (), VOID, distributed=True)
    return runtime


class TestStallDrainProperties:
    @given(
        arrivals=st.lists(
            # All arrivals land inside the 0.25 s generation window that the
            # stalled call triggers, so every one of them queues.
            st.floats(min_value=0.0, max_value=0.02),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_queued_calls_drain_in_arrival_order(self, arrivals):
        """For any arrival pattern behind a stall, processing order equals
        arrival order once the publisher has caught up."""
        runtime = _stalled_runtime()
        handler = runtime.replicas("EchoService")[0].call_handler
        completed: list[str] = []

        class Recorded(DispatchOutcome):
            def __init__(self, tag: str) -> None:
                self.tag = tag

            def on_result(self, value, signature) -> None:
                completed.append(self.tag)

            def on_fault(self, error) -> None:
                completed.append(self.tag)

        def dispatch(tag: str, operation: str, arguments: tuple) -> None:
            handler.dispatch(operation, arguments, Recorded(tag))

        # The stale call stalls the handler (the §5.7 trigger)...
        dispatch("stale", "not_a_method", ())
        assert handler.stalled
        # ...and the randomized arrivals queue behind it.
        at = 0.0
        for index, gap in enumerate(arrivals):
            at += gap
            runtime.world.scheduler.schedule(at, dispatch, f"call-{index}", "echo", (index,))
        runtime.world.run_until_idle()

        assert not handler.stalled
        assert completed[0] == "stale"
        assert completed[1:] == [f"call-{index}" for index in range(len(arrivals))]
        assert handler.stats.max_stall_queue_depth == len(arrivals)

    @given(calls=st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_stalled_replies_reach_clients_in_order(self, calls):
        """End to end over HTTP: a stale call stalls the handler, further
        calls pipeline behind it, and the replies come back in send order
        once the publisher catches up."""
        from repro.soap.envelope import SoapRequest, SoapResponse

        runtime = _stalled_runtime()
        scheduler = runtime.world.scheduler
        handler = runtime.replicas("EchoService")[0].call_handler
        binding = runtime.connect("EchoService")
        description = binding.description
        registry = description.type_registry()
        http = binding.stack.http

        def post_async(operation, arguments):
            request = SoapRequest.for_call(
                operation, arguments, namespace=description.namespace, registry=registry
            )
            return http.request_async(
                "POST", description.endpoint_url, body=request.to_xml()
            )

        completion_order: list[str] = []
        deferreds = [post_async("not_a_method", ())]
        deferreds[0].subscribe(lambda *_: completion_order.append("stale"))
        scheduler.run_until(lambda: handler.stalled, description="stall begins")

        for index in range(1, calls):
            deferred = post_async("echo", (index,))
            deferred.subscribe(
                lambda *_, tag=f"echo-{index}": completion_order.append(tag)
            )
            deferreds.append(deferred)
        scheduler.run_until_idle()

        assert completion_order == ["stale"] + [f"echo-{i}" for i in range(1, calls)]
        assert handler.stats.stalled_calls == 1
        assert handler.stats.queued_while_stalled == calls - 1
        assert handler.stats.max_stall_queue_depth == calls - 1
        # The queued echo calls all produced real results after the drain.
        for index in range(1, calls):
            response = SoapResponse.from_xml(deferreds[index].wait(scheduler).body, registry)
            assert not response.is_fault
            assert response.return_value == index
