"""Tests for the technology-neutral interface description model."""

import pytest

from repro.evolve import diff_descriptions
from repro.interface import (
    InterfaceDescription,
    InterfaceError,
    OperationSignature,
    Parameter,
)
from repro.rmitypes import DOUBLE, FieldDef, INT, STRING, StructType, VOID


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

    def test_parameter_types_and_arity(self):
        op = _add()
        assert op.arity == 2
        assert op.parameter_types() == (INT, INT)

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
