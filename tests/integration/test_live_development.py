"""End-to-end integration tests of the live development workflow (§4–§6)."""

import pytest

from repro.cluster import op
from repro.cluster.protocols import BUILTIN_STACKS
from repro.cluster.registry import Replica
from repro.corba import StaticCorbaServer
from repro.errors import NonExistentMethodError
from repro.interface import ServiceDefinition
from repro.jpie import export_operation_table
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType
from repro.soap import StaticSoapServer


def calculator_operations():
    return [
        op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b),
        op("scale", (("x", DOUBLE), ("k", DOUBLE)), DOUBLE, body=lambda self, x, k: x * k),
    ]


class TestLiveSoapWorkflow:
    def test_full_session(self, fast_scenario):
        # 1. The developer extends SOAPServer; deployment is automatic.
        runtime = fast_scenario.service("Calculator", calculator_operations()).build()
        calculator = runtime.dynamic_class("Calculator")
        assert runtime.node_of("Calculator").sde.is_managed("Calculator")

        # 2. The interface is published after a stable interval.
        runtime.settle()
        publisher = runtime.replicas("Calculator")[0].publisher
        assert publisher.is_published_current()

        # 3. A client connects through the published WSDL and calls methods.
        binding = runtime.connect("Calculator")
        assert binding.invoke("add", 20, 22) == 42
        assert binding.invoke("scale", 2.5, 4.0) == 10.0

        # 4. The developer edits the running server: new method, new body.
        calculator.add_method(
            "concat", (), STRING, body=lambda self: "", distributed=True
        )
        from repro.interface import Parameter

        calculator.method("concat").set_parameters((Parameter("a", STRING), Parameter("b", STRING)))
        calculator.method("concat").set_body(lambda self, a, b: a + b)
        calculator.method("add").set_body(lambda self, a, b: a + b + 100)
        runtime.settle()

        # 5. Behaviour changes are live immediately; interface changes after refresh.
        assert binding.invoke("add", 1, 1) == 102
        binding.refresh()
        assert binding.invoke("concat", "foo", "bar") == "foobar"

    def test_server_state_survives_live_edits(self, fast_scenario):
        runtime = fast_scenario.build()
        node = runtime.nodes[0]
        counter = node.environment.create_class("Counter", superclass=node.sde.soap_server_class)
        counter.add_field("count", INT, 0)
        counter.add_method(
            "increment", (), INT,
            body=lambda self: (self.set_field("count", self.get_field("count") + 1), self.get_field("count"))[1],
            distributed=True,
        )
        instance = counter.new_instance()
        runtime.settle()
        binding = runtime.connect("Counter")
        assert binding.invoke("increment") == 1
        assert binding.invoke("increment") == 2
        # Live body change: increment by ten, state (count=2) is preserved.
        counter.method("increment").set_body(
            lambda self: (self.set_field("count", self.get_field("count") + 10), self.get_field("count"))[1]
        )
        assert binding.invoke("increment") == 12
        assert instance.get_field("count") == 12

    def test_multiple_managed_servers_coexist(self, fast_scenario):
        runtime = (
            fast_scenario.service("Alpha", calculator_operations(), technology="soap")
            .service("Beta", calculator_operations(), technology="corba")
            .build()
        )
        runtime.settle()
        soap_binding = runtime.connect("Alpha")
        corba_binding = runtime.connect("Beta")
        assert soap_binding.invoke("add", 1, 2) == 3
        assert corba_binding.invoke("add", 3, 4) == 7

    def test_struct_types_flow_through_published_interface(self, fast_scenario):
        point = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))
        norm_op = op(
            "norm", (("p", point),), DOUBLE,
            body=lambda self, p: (p["x"] ** 2 + p["y"] ** 2) ** 0.5,
        )
        runtime = fast_scenario.service("Geometry", [norm_op]).build()
        runtime.dynamic_class("Geometry").declare_struct(point)
        runtime.publish("Geometry")
        binding = runtime.connect("Geometry")
        assert "Point" in binding.description.type_registry()
        assert binding.invoke("norm", {"x": 3.0, "y": 4.0}) == pytest.approx(5.0)


class TestLiveCorbaWorkflow:
    def test_full_session(self, fast_scenario):
        runtime = fast_scenario.build()
        node = runtime.nodes[0]
        mailer = node.environment.create_class("MailService", superclass=node.sde.corba_server_class)
        mailer.add_field("outbox", INT, 0)
        mailer.add_method(
            "send", (), INT,
            body=lambda self: (self.set_field("outbox", self.get_field("outbox") + 1), self.get_field("outbox"))[1],
            distributed=True,
        )
        mailer.new_instance()
        runtime.settle()

        binding = runtime.connect("MailService")
        assert binding.invoke("send") == 1

        # Live rename while the client still knows the old name.
        mailer.method("send").rename("deliver")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("send")
        assert binding.description.has_operation("deliver")
        assert binding.invoke("deliver") == 2
        assert binding.guarantee_records[-1].satisfied

    def test_ior_remains_valid_across_interface_changes(self, fast_scenario):
        runtime = fast_scenario.service(
            "MailService", calculator_operations(), technology="corba"
        ).build()
        runtime.publish("MailService")
        binding = runtime.connect("MailService")
        replica = runtime.replicas("MailService")[0]
        interface_server = replica.node.sde.interface_server
        ior_before = interface_server.document(replica.publisher.ior_path)
        replica.managed.dynamic_class.add_method(
            "ping", (), STRING, body=lambda self: "pong", distributed=True
        )
        runtime.settle()
        ior_after = interface_server.document(replica.publisher.ior_path)
        assert ior_before == ior_after
        binding.refresh()
        assert binding.invoke("ping") == "pong"


class TestExportToStaticServers:
    """§7: at the end of development the dynamic server is exported."""

    def test_export_soap_server(self, fast_scenario):
        runtime = fast_scenario.service("Calculator", calculator_operations()).build()
        runtime.publish("Calculator")
        managed = runtime.replicas("Calculator")[0].managed

        definition = ServiceDefinition("CalculatorExport", "urn:calc:export")
        for signature, implementation in export_operation_table(
            managed.dynamic_class, managed.instance
        ):
            definition.add_operation(signature, implementation)
        static_server = StaticSoapServer(runtime.nodes[0].host, 8200, definition)
        static_server.start()
        target = Replica("CalculatorExport", 0, runtime.nodes[0], static_server)
        binding = runtime.cde.connect(BUILTIN_STACKS["soap"], target)
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.add(5, 6) == 11

    def test_export_corba_server(self, fast_scenario):
        runtime = fast_scenario.service(
            "Calculator", calculator_operations(), technology="corba"
        ).build()
        runtime.publish("Calculator")
        managed = runtime.replicas("Calculator")[0].managed

        definition = ServiceDefinition("CalculatorExport", "urn:calc:export")
        for signature, implementation in export_operation_table(
            managed.dynamic_class, managed.instance
        ):
            definition.add_operation(signature, implementation)
        static_server = StaticCorbaServer(runtime.nodes[0].host, 9300, definition, http_port=8200)
        static_server.start()
        target = Replica("CalculatorExport", 0, runtime.nodes[0], static_server)
        binding = runtime.cde.connect(BUILTIN_STACKS["corba"], target)
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.add(7, 8) == 15


class TestFailureInjection:
    def test_partition_prevents_calls_but_not_local_edits(self, fast_scenario):
        runtime = fast_scenario.service("Calculator", calculator_operations()).build()
        runtime.publish("Calculator")
        binding = runtime.connect("Calculator")
        assert binding.invoke("add", 1, 2) == 3

        network = runtime.world.network
        network.partition("cde", "server")
        with pytest.raises(Exception):
            binding.invoke("add", 1, 2)

        # Local development continues during the partition.
        runtime.dynamic_class("Calculator").add_method(
            "ping", (), STRING, body=lambda self: "pong", distributed=True
        )
        runtime.settle()

        network.heal("cde", "server")
        binding.refresh()
        assert binding.invoke("ping") == "pong"
