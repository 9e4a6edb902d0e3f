"""Tests for the static SOAP server baseline (the "Axis" stack) and the
client cost of the fleet's SOAP stack that Table 1 calls it through."""

import pytest

from repro.cluster.protocols import SoapProtocolClient
from repro.errors import NonExistentMethodError, RemoteApplicationError, SoapError
from repro.interface import OperationSignature, Parameter
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType
from repro.soap import SoapServiceDefinition, StaticSoapServer

POINT = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))


def calculator(host, cost_model=None):
    definition = SoapServiceDefinition("Calculator", "urn:calc")
    definition.structs.append(POINT)
    definition.add_operation(
        OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT),
        lambda a, b: a + b,
    )
    definition.add_operation(
        OperationSignature("norm", (Parameter("p", POINT),), DOUBLE),
        lambda p: (p["x"] ** 2 + p["y"] ** 2) ** 0.5,
    )
    definition.add_operation(
        OperationSignature("fail", (Parameter("reason", STRING),), STRING),
        lambda reason: (_ for _ in ()).throw(RuntimeError(reason)),
    )
    definition.add_operation(
        OperationSignature("echo", (Parameter("m", STRING),), STRING), lambda m: m
    )
    return StaticSoapServer(host, 8180, definition, cost_model=cost_model)


@pytest.fixture
def build_world(static_world):
    """``(runtime, server, binding)`` for a CDE bound to a static calculator."""

    def build(server_cost=None, **stack_options):
        return static_world(lambda host: calculator(host, server_cost), "soap", **stack_options)

    return build


def rtt(runtime, binding, operation, *arguments):
    start = runtime.world.now
    binding.invoke(operation, *arguments)
    return runtime.world.now - start


class TestServiceDefinition:
    def test_duplicate_operation_rejected(self):
        definition = SoapServiceDefinition("X", "urn:x")
        signature = OperationSignature("op", (), INT)
        definition.add_operation(signature, lambda: 1)
        with pytest.raises(SoapError):
            definition.add_operation(signature, lambda: 2)

    def test_lookup_helpers(self):
        definition = SoapServiceDefinition("X", "urn:x")
        signature = OperationSignature("op", (), INT)
        definition.add_operation(signature, lambda: 1)
        assert definition.signature("op") == signature
        assert definition.implementation("op")() == 1
        assert definition.signature("missing") is None


class TestStaticRoundTrips:
    def test_wsdl_served_over_http(self, build_world):
        _runtime, server, binding = build_world()
        document = binding.stack.fetch(server.document_url)
        assert server.document_url == f"{server.endpoint_url}?wsdl"
        assert "Calculator" in document
        assert server.endpoint_url in document
        assert binding.description.operation_names() == server.description.operation_names()

    def test_connect_and_call(self, build_world):
        runtime, server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.add(2, 3) == 5
        assert server.calls_served == 1

    def test_struct_argument(self, build_world):
        runtime, _server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.norm({"x": 3.0, "y": 4.0}) == pytest.approx(5.0)

    def test_invoke_by_name(self, build_world):
        _runtime, _server, binding = build_world()
        assert binding.invoke("add", 10, 20) == 30

    def test_application_exception_becomes_fault(self, build_world):
        _runtime, server, binding = build_world()
        with pytest.raises(RemoteApplicationError, match="kaput"):
            binding.invoke("fail", "kaput")
        assert server.faults_returned == 1

    def test_unknown_operation_fault(self, build_world):
        """The server, not the client, decides whether an operation exists:
        the binding sends the call and takes the §6 stale-call path."""
        _runtime, server, binding = build_world()
        with pytest.raises(NonExistentMethodError):
            binding.invoke("subtract", 1, 2)
        assert server.faults_returned == 1
        assert binding.stats["stale"] == 1

    def test_call_before_connect_rejected(self, build_world):
        """A stack calls only a replica whose WSDL it has bound."""
        runtime, _server, binding = build_world()
        stack = SoapProtocolClient(runtime.cde.host, 1, (binding.replica,))
        with pytest.raises(KeyError):
            stack.call(binding.replica, "add", (1, 2))
        assert stack.http.requests_sent == 0

    def test_refresh_rebuilds_stub(self, build_world):
        runtime, _server, binding = build_world()
        stubs = runtime.cde.create_stub_class(binding)
        first = binding.description
        delta = binding.refresh()
        assert delta.empty
        assert binding.description == first
        assert set(stubs.operation_names) == {"add", "norm", "fail", "echo"}
        assert stubs.updates_applied == 2

    def test_stopped_server_unreachable(self, build_world):
        _runtime, server, binding = build_world()
        server.stop()
        with pytest.raises(Exception):
            binding.invoke("add", 1, 2)


class TestCostAccounting:
    def test_cost_model_increases_rtt(self, build_world):
        fast_runtime, _server, fast = build_world()
        cost = era_2004_cost_model()
        slow_runtime, _server, slow = build_world(cost_model=cost)
        assert rtt(slow_runtime, slow, "add", 1, 2) > rtt(fast_runtime, fast, "add", 1, 2)

    def test_client_speed_factor_scales_cost(self, build_world):
        cost = era_2004_cost_model()
        slow_runtime, _server, slow = build_world(cost, cost_model=cost, speed_factor=4.0)
        fast_runtime, _server, fast = build_world(cost, cost_model=cost, speed_factor=1.0)
        assert rtt(slow_runtime, slow, "echo", "hi") > rtt(fast_runtime, fast, "echo", "hi")

    def test_charges_are_exact_delays_on_the_call_path(self, build_world):
        """The request leaves ``text_processing(len(wire)) × k`` after the
        call, and the call resolves ``text_processing(len(body)) × k`` after
        the reply arrives; ``call`` itself advances no time."""
        cost, k = era_2004_cost_model(), 2.5
        runtime, _server, binding = build_world(cost_model=cost, speed_factor=k)
        network = runtime.world.network
        network.record_deliveries = True
        scheduler = runtime.world.scheduler
        start = scheduler.now
        deferred = binding.stack.call(binding.replica, "echo", ("hi",))
        assert not deferred.completed
        assert scheduler.now == start
        assert deferred.wait(scheduler).return_value == "hi"
        post, reply = network.delivered_messages
        wire = post.payload.split(b"\r\n\r\n", 1)[1]
        body = reply.payload.split(b"\r\n\r\n", 1)[1].decode()
        assert post.sent_at == start + cost.text_processing(len(wire)) * k
        assert scheduler.now == reply.delivered_at + cost.text_processing(len(body)) * k
