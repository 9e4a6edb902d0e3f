"""Tests for dynamic classes, methods and fields (the JPie substrate)."""

import pytest

from repro.errors import (
    DynamicClassError,
    MemberNotFoundError,
    SignatureError,
)
from repro.interface import Parameter
from repro.jpie import DynamicClass, JPieEnvironment, Modifier
from repro.jpie.listeners import ClassChangeKind
from repro.rmitypes import DOUBLE, INT, STRING, StructType, FieldDef


@pytest.fixture
def environment():
    return JPieEnvironment()


@pytest.fixture
def calculator(environment):
    cls = environment.create_class("Calculator")
    cls.add_method(
        "add",
        (Parameter("a", INT), Parameter("b", INT)),
        INT,
        body=lambda self, a, b: a + b,
        distributed=True,
    )
    cls.add_field("total", INT, 0)
    return cls


class TestClassStructure:
    def test_method_and_field_lookup(self, calculator):
        assert calculator.has_method("add")
        assert calculator.has_field("total")
        assert not calculator.has_method("sub")
        with pytest.raises(MemberNotFoundError):
            calculator.method("sub")
        with pytest.raises(MemberNotFoundError):
            calculator.field("missing")

    def test_duplicate_member_names_rejected(self, calculator):
        with pytest.raises(DynamicClassError):
            calculator.add_method("add")
        with pytest.raises(DynamicClassError):
            calculator.add_field("total", INT)

    def test_invalid_class_name_rejected(self):
        with pytest.raises(ValueError):
            DynamicClass("not a name")

    def test_subclass_relationship(self, environment):
        base = environment.create_class("Base")
        derived = environment.create_class("Derived", superclass=base)
        assert derived.is_subclass_of(base)
        assert not base.is_subclass_of(derived)
        assert derived.is_subclass_of(derived)

    def test_inherited_method_lookup(self, environment):
        base = environment.create_class("Base")
        base.add_method("ping", (), STRING, body=lambda self: "pong")
        derived = environment.create_class("Derived", superclass=base)
        instance = derived.new_instance()
        assert instance.invoke("ping") == "pong"

    def test_declare_struct_types(self, calculator):
        point = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))
        calculator.declare_struct(point)
        assert calculator.struct_types == (point,)


class TestLiveInstanceBehaviour:
    def test_instances_see_current_body(self, calculator):
        instance = calculator.new_instance()
        assert instance.invoke("add", 2, 3) == 5
        calculator.method("add").set_body(lambda self, a, b: (a + b) * 10)
        assert instance.invoke("add", 2, 3) == 50

    def test_instances_see_signature_changes(self, calculator):
        instance = calculator.new_instance()
        method = calculator.method("add")
        method.set_parameters((Parameter("a", INT), Parameter("b", INT), Parameter("c", INT)))
        method.set_body(lambda self, a, b, c: a + b + c)
        assert instance.invoke("add", 1, 2, 3) == 6
        with pytest.raises(SignatureError):
            instance.invoke("add", 1, 2)

    def test_argument_types_validated_against_current_signature(self, calculator):
        instance = calculator.new_instance()
        with pytest.raises(SignatureError):
            instance.invoke("add", "two", 3)

    def test_new_methods_available_to_existing_instances(self, calculator):
        instance = calculator.new_instance()
        calculator.add_method("square", (Parameter("x", INT),), INT, body=lambda self, x: x * x)
        assert instance.invoke("square", 4) == 16

    def test_removed_methods_unavailable(self, calculator):
        instance = calculator.new_instance()
        calculator.remove_method("add")
        with pytest.raises(MemberNotFoundError):
            instance.invoke("add", 1, 2)

    def test_field_access_and_type_checking(self, calculator):
        instance = calculator.new_instance()
        assert instance.get_field("total") == 0
        instance.set_field("total", 7)
        assert instance.get_field("total") == 7
        with pytest.raises(Exception):
            instance.set_field("total", "seven")

    def test_fields_added_and_removed_on_live_instances(self, calculator):
        instance = calculator.new_instance()
        calculator.add_field("name", STRING, "calc")
        assert instance.get_field("name") == "calc"
        calculator.remove_field("name")
        with pytest.raises(MemberNotFoundError):
            instance.get_field("name")

    def test_attribute_style_access(self, calculator):
        instance = calculator.new_instance()
        assert instance.add(1, 2) == 3
        assert instance.total == 0
        with pytest.raises(AttributeError):
            instance.nonexistent

    def test_method_rename_keeps_working_through_handle(self, calculator):
        instance = calculator.new_instance()
        method = calculator.method("add")
        method.rename("sum")
        assert calculator.has_method("sum")
        assert not calculator.has_method("add")
        assert instance.invoke("sum", 2, 2) == 4

    def test_rename_collision_rejected(self, calculator):
        calculator.add_method("sum", (), INT, body=lambda self: 0)
        with pytest.raises(DynamicClassError):
            calculator.method("add").rename("sum")

    def test_field_rename_preserves_values(self, calculator):
        instance = calculator.new_instance()
        instance.set_field("total", 42)
        calculator.field("total").rename("grand_total")
        assert instance.get_field("grand_total") == 42


class TestDistributedInterface:
    def test_distributed_methods_selected_by_modifier(self, calculator):
        calculator.add_method("local_helper", (), INT, body=lambda self: 1)
        assert [m.name for m in calculator.distributed_methods()] == ["add"]

    def test_toggle_distributed_modifier(self, calculator):
        method = calculator.method("add")
        method.remove_modifier(Modifier.DISTRIBUTED)
        assert calculator.distributed_signatures() == ()
        method.add_modifier(Modifier.DISTRIBUTED)
        assert [s.name for s in calculator.distributed_signatures()] == ["add"]

    def test_distributed_signatures_sorted_by_name(self, calculator):
        calculator.add_method("zeta", (), INT, body=lambda self: 0, distributed=True)
        calculator.add_method("alpha", (), INT, body=lambda self: 0, distributed=True)
        assert [s.name for s in calculator.distributed_signatures()] == ["add", "alpha", "zeta"]

    def test_modifier_membership(self, calculator):
        method = calculator.method("add")
        assert method.is_distributed
        assert Modifier.DISTRIBUTED in method.modifiers


class TestChangeEvents:
    def test_events_fired_for_mutations(self, calculator):
        events = []
        calculator.add_listener(lambda event: events.append(event.kind))
        calculator.add_method("noop", (), INT, body=lambda self: 0)
        calculator.method("noop").set_body(lambda self: 1)
        calculator.method("noop").set_return_type(STRING)
        calculator.method("noop").add_modifier(Modifier.DISTRIBUTED)
        calculator.method("noop").rename("renamed")
        calculator.remove_method("renamed")
        assert events == [
            ClassChangeKind.METHOD_ADDED,
            ClassChangeKind.METHOD_BODY_CHANGED,
            ClassChangeKind.METHOD_SIGNATURE_CHANGED,
            ClassChangeKind.METHOD_MODIFIERS_CHANGED,
            ClassChangeKind.METHOD_RENAMED,
            ClassChangeKind.METHOD_REMOVED,
        ]

    def test_interface_affecting_classification(self, calculator):
        events = []
        calculator.add_listener(events.append)
        calculator.method("add").set_body(lambda self, a, b: a - b)
        calculator.method("add").set_return_type(DOUBLE)
        body_event, signature_event = events
        assert not body_event.affects_interface
        assert signature_event.affects_interface

    def test_idempotent_modifier_changes_fire_no_event(self, calculator):
        events = []
        calculator.add_listener(events.append)
        calculator.method("add").add_modifier(Modifier.DISTRIBUTED)  # already set
        calculator.method("add").remove_modifier(Modifier.STATIC)  # never set
        assert events == []
