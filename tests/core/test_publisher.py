"""Tests for the DL Publisher: §5.6 stable-change detection and §5.7 recency."""

import pytest

from repro.core.sde.interface_server import InterfaceServer
from repro.core.sde.publisher import (
    STRATEGY_CHANGE_DRIVEN,
    STRATEGY_POLLING,
    STRATEGY_STABLE_TIMEOUT,
)
from repro.core.sde.wsdl_publisher import WsdlPublisher
from repro.core.sde.idl_publisher import IdlPublisher
from repro.corba.ior import IOR
from repro.errors import PublicationError
from repro.interface import Parameter
from repro.jpie import JPieEnvironment
from repro.rmitypes import INT
from repro.soap.wsdl import parse_wsdl


TIMEOUT = 2.0
GENERATION_COST = 0.5


@pytest.fixture
def world(network, scheduler):
    environment = JPieEnvironment()
    interface_server = InterfaceServer(network.host("server"), 8080)
    interface_server.start()
    dynamic_class = environment.create_class("Calculator")
    publisher = WsdlPublisher(
        dynamic_class=dynamic_class,
        interface_server=interface_server,
        scheduler=scheduler,
        namespace="urn:sde:Calculator",
        endpoint_url="http://server:8070/sde/Calculator",
        timeout=TIMEOUT,
        generation_cost=GENERATION_COST,
    )
    environment.undo_stack.add_listener(publisher.on_change_record)
    return environment, dynamic_class, publisher, interface_server, scheduler


def add_operation(dynamic_class, name="add"):
    dynamic_class.add_method(
        name,
        (Parameter("a", INT), Parameter("b", INT)),
        INT,
        body=lambda self, a, b: a + b,
        distributed=True,
    )


class TestMinimalPublication:
    def test_minimal_document_published_immediately(self, world):
        _env, _cls, publisher, interface_server, _scheduler = world
        publisher.publish_minimal()
        document = interface_server.document(publisher.document_path)
        assert document is not None
        parsed = parse_wsdl(document)
        assert parsed.operations == ()
        assert parsed.endpoint_url == "http://server:8070/sde/Calculator"
        assert publisher.version == 1


class TestStableTimeoutStrategy:
    def test_single_change_published_after_timeout_and_generation(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        assert publisher.version == 0
        scheduler.run_for(TIMEOUT - 0.1)
        assert publisher.version == 0  # still counting down
        scheduler.run_for(0.1 + GENERATION_COST + 0.01)
        assert publisher.version == 1
        assert publisher.is_published_current()

    def test_rapid_changes_coalesce_into_one_publication(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        for index in range(5):
            add_operation(dynamic_class, f"operation_{index}")
            scheduler.run_for(0.2)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        assert len(publisher.publication_history) == 1
        # Each of the four later changes restarted the first one's countdown.
        assert publisher.stats.timer_resets == 4

    def test_body_changes_do_not_trigger_publication(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        publications_before = len(publisher.publication_history)
        dynamic_class.method("add").set_body(lambda self, a, b: a * b)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        assert len(publisher.publication_history) == publications_before

    def test_changes_to_other_classes_ignored(self, world):
        environment, _cls, publisher, _server, scheduler = world
        other = environment.create_class("Other")
        add_operation(other)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        assert not publisher.timer.running
        assert publisher.stats.generations == 0
        assert publisher.publication_history == []

    def test_versions_increase_monotonically(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        publisher.publish_minimal()
        add_operation(dynamic_class, "first")
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        add_operation(dynamic_class, "second")
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        versions = [record.version for record in publisher.publication_history]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_redundant_generation_does_not_republish(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        publisher.force_publish()
        scheduler.run_for(GENERATION_COST + 0.1)
        # Two generations, one publication: the forced one was redundant.
        assert publisher.stats.generations == 2
        assert len(publisher.publication_history) == 1

    def test_timer_expiry_during_generation_queues_another(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class, "first")
        scheduler.run_for(TIMEOUT + 0.05)  # generation for "first" starts
        assert publisher.generation_in_progress
        # A short timeout makes the stability timer for "second" expire
        # before the ongoing generation ends.
        publisher.timeout = GENERATION_COST / 5
        add_operation(dynamic_class, "second")
        scheduler.run_for(GENERATION_COST / 4)
        assert publisher.generation_in_progress and not publisher.timer.running
        scheduler.run_until_idle()
        assert publisher.stats.generations == 2
        published_names = publisher.published_description.operation_names()
        assert published_names == ("first", "second")


class TestForcedPublication:
    def test_force_publish_bypasses_timer(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        publisher.force_publish()
        scheduler.run_for(GENERATION_COST + 0.01)
        assert publisher.version == 1
        assert publisher.stats.forced_publications == 1

    def test_timeout_tunable(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        publisher.timeout = 0.5
        add_operation(dynamic_class)
        scheduler.run_for(0.5 + GENERATION_COST + 0.01)
        assert publisher.version == 1

    def test_invalid_timeout_rejected(self, world):
        _env, _cls, publisher, _server, _scheduler = world
        with pytest.raises(ValueError):
            publisher.timeout = 0


class TestEnsureCurrent:
    """The §5.7 case analysis."""

    def test_idle_and_current_calls_back_immediately(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        called = []
        publisher.ensure_current(lambda: called.append(scheduler.now))
        assert called == [scheduler.now]
        assert publisher.stats.stale_call_publications == 0

    def test_timer_running_forces_immediate_generation(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)  # timer starts
        called = []
        publisher.ensure_current(lambda: called.append(scheduler.now))
        assert called == []  # must wait for the forced generation
        scheduler.run_for(GENERATION_COST + 0.01)
        assert len(called) == 1
        assert publisher.is_published_current()
        assert not publisher.timer.running

    def test_generation_in_progress_waits_for_completion(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class)
        scheduler.run_for(TIMEOUT + 0.05)
        assert publisher.generation_in_progress
        called = []
        publisher.ensure_current(lambda: called.append(scheduler.now))
        assert called == []
        scheduler.run_until_idle()
        assert len(called) == 1
        assert publisher.is_published_current()

    def test_generation_and_timer_running_waits_for_two_generations(self, world):
        _env, dynamic_class, publisher, _server, scheduler = world
        add_operation(dynamic_class, "first")
        scheduler.run_for(TIMEOUT + 0.05)  # generation running for "first"
        add_operation(dynamic_class, "second")  # timer running again
        assert publisher.generation_in_progress and publisher.timer.running
        called = []
        publisher.ensure_current(lambda: called.append(publisher.published_description.operation_names()))
        scheduler.run_until_idle()
        assert called == [("first", "second")]
        assert publisher.stats.generations == 2


class TestAlternativeStrategies:
    def _build(self, network, scheduler, strategy, poll_interval=1.0):
        environment = JPieEnvironment()
        interface_server = InterfaceServer(network.host("server"), 8081)
        interface_server.start()
        dynamic_class = environment.create_class("Svc")
        publisher = WsdlPublisher(
            dynamic_class=dynamic_class,
            interface_server=interface_server,
            scheduler=scheduler,
            namespace="urn:svc",
            endpoint_url="http://server:1/ep",
            timeout=TIMEOUT,
            generation_cost=GENERATION_COST,
            strategy=strategy,
            poll_interval=poll_interval,
        )
        publisher.start()
        environment.undo_stack.add_listener(publisher.on_change_record)
        return dynamic_class, publisher

    def test_change_driven_publishes_every_interface_change(self, network, scheduler):
        dynamic_class, publisher = self._build(network, scheduler, STRATEGY_CHANGE_DRIVEN)
        for index in range(3):
            add_operation(dynamic_class, f"operation_{index}")
            scheduler.run_for(GENERATION_COST + 0.05)
        assert len(publisher.publication_history) == 3

    def test_polling_publishes_on_next_tick(self, network, scheduler):
        dynamic_class, publisher = self._build(network, scheduler, STRATEGY_POLLING, poll_interval=1.0)
        add_operation(dynamic_class)
        scheduler.run_for(0.5)
        assert publisher.publication_history == []
        scheduler.run_for(1.0 + GENERATION_COST)
        assert len(publisher.publication_history) == 1

    def test_polling_does_not_regenerate_when_current(self, network, scheduler):
        dynamic_class, publisher = self._build(network, scheduler, STRATEGY_POLLING, poll_interval=1.0)
        add_operation(dynamic_class)
        scheduler.run_for(5.0)
        generations = publisher.stats.generations
        scheduler.run_for(5.0)
        assert publisher.stats.generations == generations

    def test_unknown_strategy_rejected(self, network, scheduler):
        with pytest.raises(PublicationError):
            self._build(network, scheduler, "guess")


class TestIdlPublisher:
    def test_idl_document_and_ior_published(self, network, scheduler):
        environment = JPieEnvironment()
        interface_server = InterfaceServer(network.host("server"), 8082)
        interface_server.start()
        dynamic_class = environment.create_class("Mailer")
        publisher = IdlPublisher(
            dynamic_class=dynamic_class,
            interface_server=interface_server,
            scheduler=scheduler,
            namespace="urn:mail",
            endpoint_url="iiop://server:9000/Mailer",
            timeout=TIMEOUT,
            generation_cost=GENERATION_COST,
        )
        environment.undo_stack.add_listener(publisher.on_change_record)
        publisher.publish_minimal()
        publisher.publish_ior(IOR("IDL:repro/Mailer:1.0", "server", 9000, "Mailer"))
        assert interface_server.document(publisher.document_path).startswith("// CORBA-IDL")
        assert interface_server.document(publisher.ior_path).startswith("IOR:")
        add_operation(dynamic_class, "send")
        scheduler.run_for(TIMEOUT + GENERATION_COST + 0.1)
        assert "send(" in interface_server.document(publisher.document_path)
