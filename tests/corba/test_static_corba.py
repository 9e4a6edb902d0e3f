"""Tests for the static CORBA server baseline (the "OpenORB" stack), bound
by the fleet's CORBA client stack through its published IDL and IOR."""

import pytest

from repro.cluster.protocols import CorbaProtocolClient
from repro.corba import StaticCorbaServer
from repro.corba.ior import IOR
from repro.errors import CorbaUserException, MemberNotFoundError, SignatureError
from repro.interface import InterfaceError, OperationSignature, Parameter, ServiceDefinition
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType

POINT = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))


def build_definition():
    definition = ServiceDefinition("Calculator", "urn:calc")
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


@pytest.fixture
def build_world(static_world):
    """``(runtime, server, binding)`` for a CDE bound to a static calculator."""

    def build(server_cost=None, **stack_options):
        def make_server(host):
            return StaticCorbaServer(
                host, 9000, build_definition(), cost_model=server_cost, http_port=8180
            )

        return static_world(make_server, "corba", **stack_options)

    return build


class TestDeployment:
    def test_duplicate_operation_rejected(self, build_world):
        """The deployed definition refuses a second ``add``, and the server
        keeps dispatching the first."""
        _runtime, server, binding = build_world()
        with pytest.raises(InterfaceError, match=r"^operation 'add' is already defined$"):
            server.definition.add_operation(OperationSignature("add", (), INT), lambda: 0)
        assert binding.invoke("add", 2, 3) == 5

    def test_idl_and_ior_available(self, build_world):
        """Figure 2 step 1: the IDL document and the IOR are served over HTTP."""
        runtime, server, binding = build_world()
        assert server.ior.object_key == "Calculator"
        assert server.ior.port == 9000
        scheduler = runtime.world.scheduler
        idl = binding.stack.get_document(server.document_url, str)
        assert "interface Calculator" in idl.wait(scheduler)
        ior = binding.stack.get_document(server.ior_url, str)
        assert ior.wait(scheduler) == server.ior.stringify()


class TestClientServerRoundTrips:
    def test_direct_connect_and_call(self, build_world):
        runtime, server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.add(2, 3) == 5
        assert server.orb.endpoint.stats.replies_sent == 1

    def test_connect_with_stringified_ior(self, build_world):
        """The stack initialises its ORB from the stringified IOR it fetched."""
        runtime, server, binding = build_world()
        ior = binding.stack.get_document(server.ior_url, IOR.from_string)
        assert ior.wait(runtime.world.scheduler) == server.ior
        assert binding.invoke("add", 1, 1) == 2

    def test_struct_argument_roundtrip(self, build_world):
        runtime, _server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.norm({"x": 6.0, "y": 8.0}) == pytest.approx(10.0)

    def test_user_exception(self, build_world):
        runtime, _server, binding = build_world()
        deferred = binding.stack.call(binding.replica, "reject", ("bad input",))
        with pytest.raises(CorbaUserException) as excinfo:
            deferred.wait(runtime.world.scheduler)
        assert excinfo.value.type_name == "Rejected"

    def test_stub_arity_and_type_checks(self, build_world):
        runtime, server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        sent = binding.stack.orb.channel.requests_sent
        with pytest.raises(SignatureError):
            stub.add(1)
        with pytest.raises(SignatureError):
            stub.add("one", 2)
        assert server.orb.endpoint.stats.replies_sent == 0
        assert binding.stack.orb.channel.requests_sent == sent

    def test_unknown_operation_rejected_client_side(self, build_world):
        runtime, server, binding = build_world()
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        sent = binding.stack.orb.channel.requests_sent
        with pytest.raises(MemberNotFoundError):
            stub.invoke("subtract", 1, 2)
        assert server.orb.endpoint.stats.replies_sent == 0
        assert binding.stack.orb.channel.requests_sent == sent

    def test_call_before_connect_rejected(self, build_world):
        """A stack calls only a replica whose IDL and IOR it has bound."""
        runtime, _server, binding = build_world()
        stack = CorbaProtocolClient(runtime.cde.host, 1, (binding.replica,))
        with pytest.raises(KeyError):
            stack.call(binding.replica, "add", (1, 2))
        assert stack.orb is None
        assert stack.http.requests_sent == 0

    def test_cost_model_increases_rtt(self, build_world):
        cost = era_2004_cost_model()
        rtts = []
        for runtime, _server, binding in (
            build_world(),
            build_world(cost_model=cost),
        ):
            start = runtime.world.now
            assert binding.invoke("add", 1, 2) == 3
            rtts.append(runtime.world.now - start)
        fast_rtt, slow_rtt = rtts
        assert slow_rtt > fast_rtt
