"""Tests for the public package surface and the paper's two-host world.

A one-server :class:`repro.Scenario` is the paper's testbed: the SDE server
desktop (host ``server``) plus, once a client connects, the CDE machine
(host ``cde``).
"""

import pytest

import repro
from repro import INT, STRING, OperationSpec, Scenario, op
from repro.core.sde import SDEConfig
from repro.errors import (
    DeploymentError,
    MiddlewareError,
    NonExistentMethodError,
    ReproError,
    ServerNotInitializedError,
    SoapError,
    CorbaError,
)


class TestPublicApi:
    def test_version_exported(self):
        assert repro.__version__ == "2.0.0"

    def test_quickstart_from_readme(self):
        runtime = (
            Scenario()
            .service("Calculator", [op("add", (("a", INT), ("b", INT)), INT,
                                       body=lambda self, a, b: a + b)])
            .build()
        )
        runtime.settle()
        client = runtime.connect("Calculator")
        assert client.invoke("add", 2, 3) == 5
        calculator = runtime.dynamic_class("Calculator")
        calculator.method("add").set_body(lambda self, a, b: (a + b) * 100)
        assert client.invoke("add", 2, 3) == 500

    def test_exception_hierarchy_rooted_at_repro_error(self):
        for exception_type in (
            MiddlewareError,
            NonExistentMethodError,
            ServerNotInitializedError,
            DeploymentError,
            SoapError,
            CorbaError,
        ):
            assert issubclass(exception_type, ReproError)

    def test_non_existent_method_error_carries_metadata(self):
        error = NonExistentMethodError("add", 7)
        assert error.operation == "add"
        assert error.interface_version == 7
        assert "add" in str(error) and "7" in str(error)


class TestTestbed:
    def test_default_hosts_and_clock(self):
        runtime = Scenario().build()
        world = runtime.world
        assert {host.name for host in world.network.hosts} == {"server"}
        assert runtime.cde.host.name == "cde"
        assert {host.name for host in world.network.hosts} == {"server", "cde"}
        assert world.now == 0.0
        world.run_for(1.5)
        assert world.now == pytest.approx(1.5)

    def test_soap_and_corba_servers_get_distinct_endpoints(self):
        runtime = (
            Scenario()
            .service("Alpha", technology="soap")
            .service("Beta", technology="corba")
            .build()
        )
        alpha = runtime.replicas("Alpha")[0].call_handler.endpoint_url
        beta = runtime.replicas("Beta")[0].call_handler.endpoint_url
        assert alpha.startswith("http://server:")
        assert beta.startswith("iiop://server:")

    def test_publish_now_skips_the_stability_wait(self):
        runtime = (
            Scenario(sde_config=SDEConfig(publication_timeout=60.0))
            .service("Slow", [op("ping", (), INT, body=lambda self: 1)])
            .build()
        )
        runtime.dynamic_class("Slow").add_method(
            "pong", (), INT, body=lambda self: 2, distributed=True
        )
        publisher = runtime.replicas("Slow")[0].publisher
        assert not publisher.is_published_current()
        runtime.publish("Slow")
        assert publisher.is_published_current()
        assert runtime.world.now < 60.0

    def test_operation_spec_parameter_objects(self):
        spec = op("greet", (("name", STRING),), STRING)
        assert isinstance(spec, OperationSpec)
        parameters = spec.parameter_objects()
        assert parameters[0].name == "name"
        assert parameters[0].param_type == STRING

    def test_custom_sde_config_respected(self):
        config = SDEConfig(publication_timeout=0.5, generation_cost=0.01)
        runtime = Scenario(sde_config=config).build()
        assert runtime.nodes[0].sde.config.publication_timeout == 0.5
        node = runtime.nodes[0]
        quick = node.environment.create_class("Quick", superclass=node.sde.soap_server_class)
        quick.add_method("ping", (), INT, body=lambda self: 1, distributed=True)
        quick.new_instance()
        runtime.world.run_for(0.6)
        assert node.sde.managed_server("Quick").publisher.is_published_current()

    def test_settle_publishes_pending_changes(self):
        runtime = (
            Scenario(sde_config=SDEConfig(publication_timeout=2.0, generation_cost=0.1))
            .service("Svc")
            .build()
        )
        runtime.dynamic_class("Svc").add_method(
            "op", (), INT, body=lambda self: 0, distributed=True
        )
        publisher = runtime.replicas("Svc")[0].publisher
        assert not publisher.is_published_current()
        runtime.settle()
        assert publisher.is_published_current()
