"""Tests for the ORB core, POA, servants and DSI."""

import pytest

from repro.corba.dsi import DynamicServant, ServerRequest
from repro.corba.orb import ClientOrb, RemoteObjectReference, ServerOrb
from repro.corba.poa import PortableObjectAdapter
from repro.corba.servant import StaticServant
from repro.errors import CorbaSystemException, CorbaUserException
from repro.interface import OperationSignature, Parameter
from repro.net.transport import Deferred
from repro.rmitypes import INT, STRING


def build_static_world(network):
    poa = PortableObjectAdapter()
    servant = StaticServant("Calculator")
    servant.register(
        OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT),
        lambda a, b: a + b,
    )
    servant.register(
        OperationSignature("fail", (Parameter("reason", STRING),), STRING),
        lambda reason: (_ for _ in ()).throw(CorbaUserException("MailError", reason)),
    )
    servant.register(
        OperationSignature("crash", (), STRING),
        lambda: (_ for _ in ()).throw(RuntimeError("unexpected")),
    )
    poa.activate_object("Calculator", servant)
    orb = ServerOrb(network.host("server"), 9000, poa=poa)
    orb.start()
    client_orb = ClientOrb(network.host("client"))
    return orb, client_orb, servant


class TestPoa:
    def test_activate_and_lookup(self):
        poa = PortableObjectAdapter()
        servant = StaticServant("X")
        poa.activate_object("X", servant)
        assert poa.servant_for("X") is servant

    def test_duplicate_activation_rejected(self):
        poa = PortableObjectAdapter()
        poa.activate_object("X", StaticServant("X"))
        with pytest.raises(CorbaSystemException):
            poa.activate_object("X", StaticServant("X"))

    def test_unknown_key_raises_object_not_exist(self):
        with pytest.raises(CorbaSystemException) as excinfo:
            PortableObjectAdapter().servant_for("ghost")
        assert excinfo.value.name == "OBJECT_NOT_EXIST"



class TestStaticServant:
    def test_invoke(self):
        servant = StaticServant("Calc")
        servant.register(OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT), lambda a, b: a + b)
        assert servant.invoke("add", [2, 3]) == 5
        assert servant.operation_names() == ("add",)

    def test_unknown_operation(self):
        with pytest.raises(CorbaSystemException) as excinfo:
            StaticServant("Calc").invoke("nope", [])
        assert excinfo.value.name == "BAD_OPERATION"

    def test_wrong_arity(self):
        servant = StaticServant("Calc")
        servant.register(OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT), lambda a, b: a + b)
        with pytest.raises(CorbaSystemException) as excinfo:
            servant.invoke("add", [1])
        assert excinfo.value.name == "BAD_PARAM"

    def test_duplicate_registration_rejected(self):
        servant = StaticServant("Calc")
        signature = OperationSignature("op", (), INT)
        servant.register(signature, lambda: 1)
        with pytest.raises(CorbaSystemException):
            servant.register(signature, lambda: 2)


class TestRemoteInvocation:
    def test_successful_call(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        assert reference.invoke("add", 2, 3) == 5
        assert orb.requests_handled == 1

    def test_string_to_object_roundtrip(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        stringified = orb.object_reference("Calculator").stringify()
        reference = client_orb.string_to_object(stringified)
        assert reference.invoke("add", 10, 20) == 30

    def test_user_exception_propagates(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        with pytest.raises(CorbaUserException) as excinfo:
            reference.invoke("fail", "mailbox full")
        assert excinfo.value.type_name == "MailError"
        assert "mailbox full" in excinfo.value.message
        assert orb.user_exceptions_sent == 1

    def test_unexpected_exception_becomes_system_exception(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        with pytest.raises(CorbaSystemException) as excinfo:
            reference.invoke("crash")
        assert excinfo.value.name == "UNKNOWN"

    def test_interpreter_signal_is_not_a_reply(self, network, scheduler):
        # KeyboardInterrupt (like SystemExit) must stop the run, never come
        # back to the caller as a GIOP exception reply.
        orb, client_orb, servant = build_static_world(network)

        def interrupted():
            raise KeyboardInterrupt

        servant.register(OperationSignature("interrupt", (), STRING), interrupted)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        deferred = reference.invoke_async("interrupt")
        with pytest.raises(KeyboardInterrupt):
            scheduler.run_until_idle()
        assert not deferred.completed
        assert orb.system_exceptions_sent == 0

    def test_unknown_operation_is_bad_operation(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        with pytest.raises(CorbaSystemException) as excinfo:
            reference.invoke("nonexistent")
        assert excinfo.value.name == "BAD_OPERATION"

    def test_unknown_object_key(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        ior = orb.object_reference("Calculator")
        from repro.corba.ior import IOR

        wrong = IOR(ior.type_id, ior.host, ior.port, "Ghost")
        with pytest.raises(CorbaSystemException) as excinfo:
            RemoteObjectReference(client_orb, wrong).invoke("add", 1, 2)
        assert excinfo.value.name == "OBJECT_NOT_EXIST"

    def test_stopped_orb_unreachable(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        orb.stop()
        with pytest.raises(Exception):
            reference.invoke("add", 1, 2)

    def test_sequential_calls_have_distinct_request_ids(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        assert [reference.invoke("add", i, i) for i in range(3)] == [0, 2, 4]
        assert client_orb.calls_made == 3


class TestDsi:
    def test_dynamic_servant_dispatch(self, network, scheduler):
        seen = []

        def handler(request: ServerRequest):
            seen.append((request.operation, tuple(request.arguments)))
            request.set_result(f"handled {request.operation}")

        poa = PortableObjectAdapter()
        poa.activate_object("Dyn", DynamicServant("Dyn", handler))
        orb = ServerOrb(network.host("server"), 9000, poa=poa)
        orb.start()
        client_orb = ClientOrb(network.host("client"))
        reference = RemoteObjectReference(client_orb, orb.object_reference("Dyn"))
        assert reference.invoke("anything", 1, "two") == "handled anything"
        assert seen == [("anything", (1, "two"))]

    def test_dynamic_servant_exception(self, network, scheduler):
        def handler(request: ServerRequest):
            request.set_exception(CorbaUserException("Nope", "not today"))

        poa = PortableObjectAdapter()
        poa.activate_object("Dyn", DynamicServant("Dyn", handler))
        orb = ServerOrb(network.host("server"), 9000, poa=poa)
        orb.start()
        client_orb = ClientOrb(network.host("client"))
        with pytest.raises(CorbaUserException):
            RemoteObjectReference(client_orb, orb.object_reference("Dyn")).invoke("x")

    def test_handler_must_complete_request(self):
        request = ServerRequest("op", [])
        with pytest.raises(CorbaSystemException):
            request.outcome()

    def test_deferred_result_releases_reply_later(self, network, scheduler):
        deferred_holder = []

        def handler(request: ServerRequest):
            deferred = Deferred()
            deferred_holder.append(deferred)
            request.set_result(deferred)

        poa = PortableObjectAdapter()
        poa.activate_object("Dyn", DynamicServant("Dyn", handler))
        orb = ServerOrb(network.host("server"), 9000, poa=poa)
        orb.start()
        scheduler.schedule(1.0, lambda: deferred_holder[0].complete("late result"))
        client_orb = ClientOrb(network.host("client"))
        result = RemoteObjectReference(client_orb, orb.object_reference("Dyn")).invoke("slow")
        assert result == "late result"
        assert scheduler.now >= 1.0


class TestConnectionRecovery:
    def test_invoke_recovers_after_server_restart(self, network, scheduler):
        """A failed call (dead server) resets the client connection, so the
        next call after a restart correlates correctly instead of matching
        the dead call's stale FIFO expectation."""
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        assert reference.invoke("add", 1, 2) == 3

        orb.stop()
        with pytest.raises(Exception):
            reference.invoke("add", 3, 4)

        orb.start()
        assert reference.invoke("add", 3, 4) == 7

    def test_user_exception_keeps_connection_usable(self, network, scheduler):
        orb, client_orb, _servant = build_static_world(network)
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        with pytest.raises(CorbaUserException):
            reference.invoke("fail", "nope")
        assert reference.invoke("add", 2, 2) == 4

    def test_unmarshallable_result_becomes_system_exception(self, network, scheduler):
        """A servant result the CDR layer cannot encode still yields a GIOP
        reply (and leaves the connection usable) instead of hanging."""
        orb, client_orb, servant = build_static_world(network)
        servant.register(
            OperationSignature("weird", (), STRING),
            lambda: object(),
        )
        reference = RemoteObjectReference(client_orb, orb.object_reference("Calculator"))
        with pytest.raises(CorbaSystemException):
            reference.invoke("weird")
        assert reference.invoke("add", 1, 1) == 2
