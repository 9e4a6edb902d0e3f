"""Tests for the technology-neutral interface description model and the
static service definition both static servers deploy."""

import pytest

from repro.corba import StaticCorbaServer
from repro.evolve import diff_descriptions
from repro.interface import (
    InterfaceDescription,
    InterfaceError,
    OperationSignature,
    Parameter,
    ServiceDefinition,
)
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType, VOID
from repro.soap import StaticSoapServer


def _add():
    return OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT)


def _greet():
    return OperationSignature("greet", (Parameter("name", STRING),), STRING)


class TestOperationSignature:
    def test_describe(self):
        assert _add().describe() == "int add(int a, int b)"

    def test_default_return_is_void(self):
        assert OperationSignature("ping").return_type == VOID

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(InterfaceError):
            OperationSignature("bad", (Parameter("x", INT), Parameter("x", INT)))

    def test_invalid_operation_name_rejected(self):
        with pytest.raises(ValueError):
            OperationSignature("not valid")

    def test_arity(self):
        assert _add().arity == 2

    def test_equality_is_structural(self):
        assert _add() == _add()
        assert _add() != _greet()


class TestInterfaceDescription:
    def test_operations_sorted_by_name(self):
        description = InterfaceDescription("Svc", "urn:x").with_operations([_greet(), _add()])
        assert description.operation_names() == ("add", "greet")

    def test_duplicate_operations_rejected(self):
        with pytest.raises(InterfaceError):
            InterfaceDescription("Svc", "urn:x", operations=(_add(), _add()))

    def test_minimal_description_has_no_operations(self):
        minimal = InterfaceDescription.minimal("Svc", "urn:x", "http://server:1/ep")
        assert minimal.operations == ()
        assert minimal.endpoint_url == "http://server:1/ep"
        assert minimal.version == 0

    def test_operation_lookup(self):
        description = InterfaceDescription("Svc", "urn:x").with_operations([_add()])
        assert description.has_operation("add")
        assert not description.has_operation("sub")
        assert description.operation("add").return_type == INT

    def test_with_version_and_endpoint_do_not_mutate(self):
        original = InterfaceDescription("Svc", "urn:x")
        versioned = original.with_version(3)
        assert original.version == 0 and original.endpoint_url == ""
        assert versioned.version == 3

    def test_same_signature_ignores_version(self):
        base = InterfaceDescription("Svc", "urn:x").with_operations([_add()])
        assert base.with_version(1).same_signature(base.with_version(9))

    def test_same_signature_detects_operation_changes(self):
        one = InterfaceDescription("Svc", "urn:x").with_operations([_add()])
        two = InterfaceDescription("Svc", "urn:x").with_operations([_greet()])
        assert not one.same_signature(two)

    def test_type_registry_contains_structs(self):
        point = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))
        description = InterfaceDescription("Svc", "urn:x").with_operations([_add()], [point])
        assert "Point" in description.type_registry()

    def test_describe_lists_operations_and_structs(self):
        point = StructType("Point", (FieldDef("x", DOUBLE),))
        description = InterfaceDescription("Svc", "urn:x").with_operations([_add()], [point])
        text = description.describe()
        assert "int add(int a, int b)" in text
        assert "struct Point" in text


class TestServiceDefinition:
    def _calculator(self):
        definition = ServiceDefinition("Calculator", "urn:calc")
        definition.structs.append(StructType("P", (FieldDef("x", DOUBLE),)))
        definition.add_operation(_greet(), lambda name: f"hi {name}")
        definition.add_operation(_add(), lambda a, b: a + b)
        return definition

    def test_duplicate_operation_rejected(self):
        definition = self._calculator()
        with pytest.raises(InterfaceError, match=r"^operation 'add' is already defined$"):
            definition.add_operation(OperationSignature("add"), lambda: 0)
        assert definition.signatures() == (_greet(), _add())

    def test_operation_lookup_returns_signature_and_implementation(self):
        definition = self._calculator()
        signature, implementation = definition.operation("add")
        assert signature == _add()
        assert implementation(2, 3) == 5
        assert definition.operation("missing") is None

    @pytest.mark.parametrize(
        "deploy",
        [
            lambda host, definition: StaticSoapServer(host, 8180, definition),
            lambda host, definition: StaticCorbaServer(host, 9000, definition, http_port=8180),
        ],
        ids=["soap", "corba"],
    )
    def test_static_servers_publish_the_definition(self, network, deploy):
        definition = self._calculator()
        server = deploy(network.host("server"), definition)
        description = server.description
        assert description == definition.description(description.endpoint_url)
        assert description.operation_names() == ("add", "greet")
        assert description.structs == tuple(definition.structs)
        assert description.endpoint_url.split("://")[1].startswith("server:")


class TestInterfaceDelta:
    def test_no_changes(self):
        description = InterfaceDescription("Svc", "urn:x").with_operations([_add()])
        assert diff_descriptions(description, description).empty

    def test_added_removed_changed(self):
        changed_add = OperationSignature(
            "add", (Parameter("a", INT), Parameter("b", INT), Parameter("c", INT)), INT
        )
        before = InterfaceDescription("Svc", "urn:x").with_operations([_add(), _greet()])
        after = InterfaceDescription("Svc", "urn:x").with_operations(
            [changed_add, OperationSignature("ping")]
        )
        delta = diff_descriptions(before, after)
        assert delta.added == ("ping",)
        assert delta.removed == ("greet",)
        assert delta.changed == ("add",)
        assert not delta.empty
        assert delta.summary() == "added: ping; removed: greet; changed: add"

    def test_diff_string_rendering(self):
        before = InterfaceDescription("Svc", "urn:x").with_operations([_add()])
        after = InterfaceDescription("Svc", "urn:x").with_operations([_greet()])
        assert diff_descriptions(before, after).summary() == "added: greet; removed: add"
        assert diff_descriptions(before, before).summary() == "no interface changes"
