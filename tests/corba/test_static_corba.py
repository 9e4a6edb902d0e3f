"""Tests for the static CORBA server/client baseline (the "OpenORB" stack)."""

import pytest

from repro.corba import CorbaServiceDefinition, StaticCorbaClient, StaticCorbaServer
from repro.errors import CorbaError, CorbaUserException
from repro.interface import OperationSignature, Parameter
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType

POINT = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))


def build_definition():
    definition = CorbaServiceDefinition("Calculator", "urn:calc")
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
        OperationSignature("reject", (Parameter("why", STRING),), STRING),
        lambda why: (_ for _ in ()).throw(CorbaUserException("Rejected", why)),
    )
    return definition


class TestDeployment:
    def test_duplicate_operation_rejected(self):
        definition = build_definition()
        with pytest.raises(CorbaError):
            definition.add_operation(OperationSignature("add", (), INT), lambda: 0)

    def test_idl_and_ior_available(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        assert "interface Calculator" in server.idl_document
        assert server.ior.object_key == "Calculator"
        assert server.ior.port == 9000


class TestClientServerRoundTrips:
    def test_direct_connect_and_call(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        stub = client.connect(server.idl_document, server.ior)
        assert stub.add(2, 3) == 5
        assert server.calls_served == 1

    def test_connect_with_stringified_ior(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        stub = client.connect(server.idl_document, server.ior.stringify())
        assert stub.add(1, 1) == 2

    def test_struct_argument_roundtrip(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        stub = client.connect(server.idl_document, server.ior)
        assert stub.norm({"x": 6.0, "y": 8.0}) == pytest.approx(10.0)

    def test_user_exception(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        client.connect(server.idl_document, server.ior)
        with pytest.raises(CorbaUserException) as excinfo:
            client.invoke("reject", "bad input")
        assert excinfo.value.type_name == "Rejected"

    def test_stub_arity_and_type_checks(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        stub = client.connect(server.idl_document, server.ior)
        with pytest.raises(CorbaError):
            stub.add(1)
        with pytest.raises(Exception):
            stub.add("one", 2)

    def test_unknown_operation_rejected_client_side(self, network, scheduler):
        server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        server.start()
        client = StaticCorbaClient(network.host("client"))
        client.connect(server.idl_document, server.ior)
        with pytest.raises(CorbaError):
            client.invoke("subtract", 1, 2)

    def test_call_before_connect_rejected(self, network, scheduler):
        client = StaticCorbaClient(network.host("client"))
        with pytest.raises(CorbaError):
            client.invoke("add", 1, 2)

    def test_cost_model_increases_rtt(self, network, scheduler):
        cost = era_2004_cost_model()
        fast_server = StaticCorbaServer(network.host("server"), 9000, build_definition())
        fast_server.start()
        client = StaticCorbaClient(network.host("client"))
        stub = client.connect(fast_server.idl_document, fast_server.ior)
        start = scheduler.now
        stub.add(1, 2)
        fast_rtt = scheduler.now - start
        fast_server.stop()

        slow_server = StaticCorbaServer(network.host("server"), 9001, build_definition(), cost_model=cost)
        slow_server.start()
        slow_client = StaticCorbaClient(network.host("client"), cost_model=cost)
        slow_stub = slow_client.connect(slow_server.idl_document, slow_server.ior)
        start = scheduler.now
        slow_stub.add(1, 2)
        assert scheduler.now - start > fast_rtt
