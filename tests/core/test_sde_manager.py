"""Tests for the SDE Manager: automated deployment, single-instance rule,
technology plug-ins, and the SDE Manager Interface."""

import pytest

from repro.core.sde import SDEConfig, SDEManager, SDEManagerInterface, Technology
from repro.core.sde.call_handler import CallHandler, DispatchOutcome
from repro.core.sde.publisher import DLPublisher
from repro.errors import DeploymentError, PublicationError, TechnologyError
from repro.interface import Parameter
from repro.jpie import JPieEnvironment
from repro.rmitypes import INT
from repro.soap.wsdl import parse_wsdl


@pytest.fixture
def world(network, scheduler):
    environment = JPieEnvironment()
    manager = SDEManager(
        environment,
        scheduler,
        network.host("server"),
        SDEConfig(publication_timeout=1.0, generation_cost=0.05),
    )
    return environment, manager


class TestGatewayClasses:
    def test_gateway_classes_created(self, world):
        environment, manager = world
        assert environment.get_class("SDEServer") is not None
        assert manager.soap_server_class.name == "SOAPServer"
        assert manager.corba_server_class.name == "CORBAServer"
        assert manager.soap_server_class.is_subclass_of(environment.get_class("SDEServer"))

    def test_registered_technologies(self, world):
        _environment, manager = world
        assert [technology.name for technology in manager.technologies] == ["soap", "corba"]

    def test_gateway_lookup_by_technology(self, world):
        _environment, manager = world
        assert manager.gateway_class("soap").name == "SOAPServer"
        with pytest.raises(TechnologyError):
            manager.gateway_class("rmi-iiop")


class TestAutomatedDeployment:
    def test_extending_soap_gateway_deploys_automatically(self, world):
        environment, manager = world
        environment.create_class("Calculator", superclass=manager.soap_server_class)
        assert manager.is_managed("Calculator")
        server = manager.managed_server("Calculator")
        assert server.technology.name == "soap"
        assert server.call_handler is not None
        assert server.publisher is not None

    def test_minimal_interface_published_at_deployment(self, world):
        environment, manager = world
        environment.create_class("Calculator", superclass=manager.soap_server_class)
        publisher = manager.managed_server("Calculator").publisher
        document = manager.interface_server.document(publisher.document_path)
        parsed = parse_wsdl(document)
        assert parsed.operations == ()
        assert parsed.endpoint_url.endswith("/sde/Calculator")

    def test_extending_corba_gateway_publishes_ior(self, world):
        environment, manager = world
        environment.create_class("Mailer", superclass=manager.corba_server_class)
        publisher = manager.managed_server("Mailer").publisher
        assert manager.interface_server.document(publisher.ior_path).startswith("IOR:")

    def test_unrelated_classes_not_managed(self, world):
        environment, manager = world
        environment.create_class("PlainHelper")
        assert not manager.is_managed("PlainHelper")

    def test_gateway_classes_themselves_not_managed(self, world):
        _environment, manager = world
        assert not manager.is_managed("SOAPServer")
        assert not manager.is_managed("CORBAServer")

    def test_duplicate_deployment_rejected(self, world):
        environment, manager = world
        calculator = environment.create_class("Calculator", superclass=manager.soap_server_class)
        with pytest.raises(DeploymentError):
            manager.deploy(calculator, manager.technologies[0])

    def test_distinct_ports_per_managed_server(self, world):
        environment, manager = world
        environment.create_class("Alpha", superclass=manager.soap_server_class)
        environment.create_class("Beta", superclass=manager.soap_server_class)
        first = manager.managed_server("Alpha").call_handler.endpoint_url
        second = manager.managed_server("Beta").call_handler.endpoint_url
        assert first != second

    def test_unknown_managed_server_lookup(self, world):
        _environment, manager = world
        with pytest.raises(DeploymentError):
            manager.managed_server("Ghost")


class TestSingleInstanceRule:
    def test_first_instance_activates_call_handler(self, world):
        environment, manager = world
        calculator = environment.create_class("Calculator", superclass=manager.soap_server_class)
        assert not manager.managed_server("Calculator").call_handler.active
        instance = calculator.new_instance()
        assert manager.managed_server("Calculator").call_handler.active
        assert manager.managed_server("Calculator").instance is instance

    def test_second_instance_rejected(self, world):
        environment, manager = world
        calculator = environment.create_class("Calculator", superclass=manager.soap_server_class)
        calculator.new_instance()
        with pytest.raises(DeploymentError):
            calculator.new_instance()

    def test_unmanaged_classes_may_have_many_instances(self, world):
        environment, _manager = world
        helper = environment.create_class("Helper")
        helper.new_instance()
        helper.new_instance()


class TestTechnologyExtensibility:
    """§5.3: a third technology can be plugged in without touching the manager."""

    class RecordingPublisher(DLPublisher):
        def render(self, description):
            return f"TOY-INTERFACE {description.service_name} v{description.version} " + ",".join(
                description.operation_names()
            )

        @property
        def document_path(self):
            return f"/toy/{self.dynamic_class.name}.toy"

    class RecordingHandler(CallHandler):
        def __init__(self, manager, server):
            super().__init__(manager, server)
            self.started = False

        @property
        def endpoint_url(self):
            return f"toy://{self.manager.host.name}/{self.server.name}"

        def start(self):
            self.started = True

        def stop(self):
            self.started = False

    def _toy_technology(self):
        def publisher_factory(manager, server):
            return self.RecordingPublisher(
                dynamic_class=server.dynamic_class,
                interface_server=manager.interface_server,
                scheduler=manager.scheduler,
                namespace="urn:toy",
                endpoint_url=server.call_handler.endpoint_url,
                timeout=manager.config.publication_timeout,
                generation_cost=manager.config.generation_cost,
            )

        return Technology(
            name="toy",
            gateway_class_name="ToyServer",
            publisher_factory=publisher_factory,
            call_handler_factory=lambda manager, server: self.RecordingHandler(manager, server),
        )

    def test_register_and_deploy_third_technology(self, world, scheduler):
        environment, manager = world
        manager.register_technology(self._toy_technology())
        assert environment.get_class("ToyServer") is not None

        toy = environment.create_class("ToyService", superclass=environment.get_class("ToyServer"))
        toy.add_method("ping", (), INT, body=lambda self: 1, distributed=True)
        assert manager.is_managed("ToyService")
        server = manager.managed_server("ToyService")
        assert server.call_handler.started

        scheduler.run_for(2.0)
        document = manager.interface_server.document("/toy/ToyService.toy")
        assert document.startswith("TOY-INTERFACE ToyService")
        assert "ping" in document

    def test_duplicate_technology_name_rejected(self, world):
        _environment, manager = world
        with pytest.raises(TechnologyError):
            manager.register_technology(self._toy_technology())
            manager.register_technology(self._toy_technology())


class TestManagerInterface:
    def test_timeout_control(self, world):
        environment, manager = world
        environment.create_class("Calculator", superclass=manager.soap_server_class)
        ui = SDEManagerInterface(manager)
        ui.set_publication_timeout("Calculator", 9.0)
        assert ui.publication_timeout("Calculator") == 9.0
        with pytest.raises(PublicationError):
            ui.set_publication_timeout("Calculator", 0)

    def test_force_publication_and_view_documents(self, world, scheduler):
        environment, manager = world
        calculator = environment.create_class("Calculator", superclass=manager.soap_server_class)
        calculator.add_method(
            "add", (Parameter("a", INT), Parameter("b", INT)), INT,
            body=lambda self, a, b: a + b, distributed=True,
        )
        ui = SDEManagerInterface(manager)
        ui.force_publication("Calculator")
        scheduler.run_for(0.2)
        assert "add" in ui.view_interface_document("Calculator")
        assert "int add(int a, int b)" in ui.view_live_interface("Calculator")

    def test_publication_status_snapshot(self, world, scheduler):
        environment, manager = world
        calculator = environment.create_class("Calculator", superclass=manager.soap_server_class)
        ui = SDEManagerInterface(manager)
        status = ui.publication_status("Calculator")
        assert status.class_name == "Calculator"
        assert status.technology == "soap"
        assert status.version == 1  # the minimal publication
        assert status.published_current  # no distributed methods yet
        calculator.add_method("op", (), INT, body=lambda self: 0, distributed=True)
        status = ui.publication_status("Calculator")
        assert status.timer_running
        assert not status.published_current

    def test_managed_class_names(self, world):
        environment, manager = world
        environment.create_class("Alpha", superclass=manager.soap_server_class)
        environment.create_class("Beta", superclass=manager.corba_server_class)
        ui = SDEManagerInterface(manager)
        assert set(ui.managed_class_names()) == {"Alpha", "Beta"}

    def test_interface_server_control(self, world):
        _environment, manager = world
        ui = SDEManagerInterface(manager)
        assert ui.interface_server_running
        ui.stop_interface_server()
        assert not ui.interface_server_running
        ui.start_interface_server()
        assert ui.interface_server_running
