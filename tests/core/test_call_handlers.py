"""Tests for the SDE call handlers (§5.1.3, §5.2.3, §5.7)."""

import pytest

from repro.cluster import op
from repro.core.sde.call_handler import CallStats, DispatchOutcome
from repro.errors import (
    NonExistentMethodError,
    RemoteApplicationError,
    ServerNotInitializedError,
)
from repro.jpie import Modifier
from repro.net.http import HttpClient, HttpRequest, HttpResponse
from repro.net.transport import ClientChannel
from repro.rmitypes import INT, STRING
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import FaultCodes


def _operations():
    return [
        op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b),
        op(
            "explode", (("reason", STRING),), STRING,
            body=lambda self, reason: (_ for _ in ()).throw(RuntimeError(reason)),
        ),
    ]


def _calculator(scenario, technology="soap"):
    """A published Calculator and the replica serving it."""
    runtime = scenario.service("Calculator", _operations(), technology=technology).build()
    runtime.publish("Calculator")
    return runtime, runtime.replicas("Calculator")[0]


class TestSoapCallHandler:
    def test_server_not_initialized_before_first_instance(self, fast_scenario):
        runtime = fast_scenario.build()
        node = runtime.nodes[0]
        sde = node.sde
        calculator = node.environment.create_class("Calculator", superclass=sde.soap_server_class)
        calculator.add_method("add", (), INT, body=lambda self: 0, distributed=True)
        runtime.settle()
        binding = runtime.connect("Calculator")
        with pytest.raises(ServerNotInitializedError):
            binding.invoke("add")
        handler = sde.managed_server("Calculator").call_handler
        assert handler.stats.not_initialized_faults == 1
        # Creating the instance activates the handler and the call succeeds.
        calculator.new_instance()
        assert binding.invoke("add") == 0

    def test_successful_dispatch_and_stats(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        binding = runtime.connect("Calculator")
        assert binding.invoke("add", 2, 3) == 5
        # A call served at once touches no fault or stall counter.
        assert replica.call_handler.stats == CallStats()

    def test_application_exception_wrapped(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        binding = runtime.connect("Calculator")
        with pytest.raises(RemoteApplicationError) as excinfo:
            binding.invoke("explode", "boom")
        assert "boom" in str(excinfo.value)
        handler = replica.call_handler
        assert handler.stats.application_faults == 1

    def test_unknown_operation_returns_non_existent_method(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        binding = runtime.connect("Calculator")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("subtract", 5, 3)
        handler = replica.call_handler
        assert handler.stats.non_existent_method_faults == 1

    def test_match_serves_only_distributed_methods_that_fit(self, fast_scenario):
        """A non-distributed method, an arity mismatch and a failed argument
        validation all fall through to the §5.7 stale-call path."""
        runtime, replica = _calculator(fast_scenario)
        handler = replica.call_handler
        calculator = runtime.dynamic_class("Calculator")
        invoked = []
        add = calculator.method("add")
        add_body = add.body
        add.set_body(lambda self, a, b: invoked.append("add") or add_body(self, a, b))
        calculator.method("explode").set_body(lambda self, message: invoked.append("explode"))

        def outcome_of(operation, arguments):
            seen = []

            class Recorded(DispatchOutcome):
                def on_result(self, value, signature):
                    seen.append(value)

                def on_fault(self, error):
                    seen.append(type(error))

            handler.dispatch(operation, arguments, Recorded())
            runtime.world.run_until_idle()
            return seen

        assert outcome_of("add", (2, 3)) == [5]
        assert outcome_of("add", (2,)) == [NonExistentMethodError]
        assert outcome_of("add", ("two", 3)) == [NonExistentMethodError]
        calculator.method("explode").remove_modifier(Modifier.DISTRIBUTED)
        assert outcome_of("explode", ("boom",)) == [NonExistentMethodError]
        assert handler.stats.stalled_calls == 3
        assert invoked == ["add"]

    def test_changed_signature_treated_as_stale(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        calculator = runtime.dynamic_class("Calculator")
        binding = runtime.connect("Calculator")
        method = calculator.method("add")
        # Change arity: add now takes three ints.
        from repro.interface import Parameter

        method.set_parameters((Parameter("a", INT), Parameter("b", INT), Parameter("c", INT)))
        method.set_body(lambda self, a, b, c: a + b + c)
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)  # the old two-argument form
        # After the §6 refresh the client sees the new signature and can call it.
        assert binding.description.operation("add").arity == 3
        assert binding.invoke("add", 1, 2, 3) == 6

    def test_malformed_soap_request_fault(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        handler = replica.call_handler
        client = HttpClient(runtime.cde.host)
        response = client.request_async("POST", handler.endpoint_url, "this is not xml").wait(
            runtime.world.scheduler
        )
        parsed = SoapResponse.from_xml(response.body)
        assert parsed.is_fault
        assert parsed.fault.fault_string == FaultCodes.MALFORMED_REQUEST
        assert handler.stats.malformed_requests == 1

    def test_get_on_endpoint_points_to_wsdl(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario)
        handler = replica.call_handler
        client = HttpClient(runtime.cde.host)
        response = client.request_async("GET", handler.endpoint_url).wait(runtime.world.scheduler)
        assert response.ok
        assert response.body.endswith("/wsdl/Calculator.wsdl")

    def test_stale_call_blocks_until_publication(self, fast_scenario):
        """§5.7: the fault is only sent after the publisher caught up."""
        runtime, replica = _calculator(fast_scenario)
        calculator = runtime.dynamic_class("Calculator")
        binding = runtime.connect("Calculator")
        publisher = replica.publisher
        version_before = publisher.version
        calculator.method("add").rename("sum")  # timer starts; not yet published
        start = runtime.world.now
        with pytest.raises(NonExistentMethodError) as excinfo:
            binding.invoke("add", 1, 2)
        # The reply could not have been sent before the forced generation
        # completed (generation_cost), so the call took at least that long.
        assert runtime.world.now - start >= replica.node.sde.config.generation_cost
        assert publisher.version == version_before + 1
        assert excinfo.value.interface_version == publisher.version
        handler = replica.call_handler
        assert handler.stats.stalled_calls == 1

    def test_queued_calls_processed_after_stall(self, fast_scenario):
        """Calls arriving during a §5.7 stall are queued, not lost."""
        runtime, replica = _calculator(fast_scenario)
        calculator = runtime.dynamic_class("Calculator")
        handler = replica.call_handler
        calculator.method("add").rename("sum")

        # Issue the stale call and a valid call back to back from the HTTP
        # layer so the second arrives while the first is stalled.
        client_a = HttpClient(runtime.cde.host)
        client_b = HttpClient(runtime.cde.host)
        stale = SoapRequest.for_call("add", (1, 2), namespace=handler.server.publisher.namespace)
        valid = SoapRequest.for_call("sum", (1, 2), namespace=handler.server.publisher.namespace)

        responses = {}
        scheduler = runtime.world.scheduler
        scheduler.schedule(0.0, lambda: responses.update(stale=client_a.request_async("POST", handler.endpoint_url, stale.to_xml())))
        scheduler.schedule(0.001, lambda: responses.update(valid=client_b.request_async("POST", handler.endpoint_url, valid.to_xml())))
        scheduler.run_until_idle()

        stale_response = SoapResponse.from_xml(responses["stale"].wait(scheduler).body)
        valid_response = SoapResponse.from_xml(responses["valid"].wait(scheduler).body)
        assert stale_response.is_fault and stale_response.fault.is_non_existent_method
        assert not valid_response.is_fault and valid_response.return_value == 3
        assert handler.stats.queued_while_stalled >= 1


    @pytest.mark.parametrize("call", ["value", "fault", "stalled", "malformed"])
    def test_reply_bytes_are_the_framed_envelope(self, fast_scenario, call):
        """Every SOAP reply leaves as the bytes ``HttpResponse.ok_xml`` would
        frame for its envelope: value, fault, §5.7-stalled and malformed."""
        runtime, replica = _calculator(fast_scenario)
        handler = replica.call_handler
        namespace = handler.server.publisher.namespace
        if call == "stalled":
            runtime.dynamic_class("Calculator").method("add").rename("sum")
        body = {
            "value": SoapRequest.for_call("add", (2, 3), namespace=namespace).to_xml(),
            "fault": SoapRequest.for_call("explode", ("boom",), namespace=namespace).to_xml(),
            "stalled": SoapRequest.for_call("add", (2, 3), namespace=namespace).to_xml(),
            "malformed": "this is not xml",
        }[call]
        channel = ClientChannel(runtime.cde.host)
        address, path = HttpClient.parse_url(handler.endpoint_url)
        request = HttpRequest("POST", path, {"Content-Type": "text/xml"}, body).to_bytes()
        wire = channel.request_async(address, request, lambda message: message.payload).wait(
            runtime.world.scheduler
        )
        xml = wire.partition(b"\r\n\r\n")[2].decode("utf-8")
        assert wire == HttpResponse.ok_xml(xml).to_bytes()
        assert SoapResponse.from_xml(xml).is_fault == (call != "value")
        assert handler.stats.stalled_calls == (call == "stalled")


class TestCorbaCallHandler:
    def _corba_world(self, fast_scenario):
        runtime, replica = _calculator(fast_scenario, "corba")
        return runtime, replica, runtime.connect("Calculator")

    def test_successful_dispatch(self, fast_scenario):
        _runtime, _replica, binding = self._corba_world(fast_scenario)
        assert binding.invoke("add", 2, 3) == 5

    def test_application_exception_wrapped(self, fast_scenario):
        _runtime, _replica, binding = self._corba_world(fast_scenario)
        with pytest.raises(RemoteApplicationError):
            binding.invoke("explode", "bad")

    def test_unknown_operation(self, fast_scenario):
        _runtime, _replica, binding = self._corba_world(fast_scenario)
        with pytest.raises(NonExistentMethodError):
            binding.invoke("divide", 1, 2)

    def test_server_not_initialized(self, fast_scenario):
        runtime = fast_scenario.build()
        node = runtime.nodes[0]
        mailer = node.environment.create_class("Mailer", superclass=node.sde.corba_server_class)
        mailer.add_method("ping", (), STRING, body=lambda self: "pong", distributed=True)
        runtime.settle()
        binding = runtime.connect("Mailer")
        with pytest.raises(ServerNotInitializedError):
            binding.invoke("ping")
        mailer.new_instance()
        assert binding.invoke("ping") == "pong"

    def test_stale_call_triggers_reactive_publication(self, fast_scenario):
        runtime, replica, binding = self._corba_world(fast_scenario)
        calculator = runtime.dynamic_class("Calculator")
        publisher = replica.publisher
        version_before = publisher.version
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        assert publisher.version == version_before + 1
        assert binding.guarantee_records[-1].satisfied

    def test_dsi_means_orb_survives_interface_changes(self, fast_scenario):
        """§5.2.2: the Server ORB is never re-initialised on interface changes."""
        runtime, replica, binding = self._corba_world(fast_scenario)
        calculator = runtime.dynamic_class("Calculator")
        handler = replica.call_handler
        orb_before = handler.orb
        calculator.add_method("triple", (), INT, body=lambda self: 0, distributed=True)
        calculator.method("add").rename("sum")
        runtime.settle()
        assert handler.orb is orb_before
        assert handler.orb.running
        binding.refresh()
        assert binding.invoke("sum", 4, 4) == 8
