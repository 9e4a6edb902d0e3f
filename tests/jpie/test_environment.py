"""Tests for the JPie environment, undo/redo stack, debugger and export."""

import pytest

from repro.errors import ExportError, JPieError
from repro.interface import Parameter
from repro.jpie import (
    JPieEnvironment,
    export_operation_table,
    export_static_class,
)
from repro.rmitypes import INT, STRING


@pytest.fixture
def environment():
    return JPieEnvironment()


def make_counter_class(environment, name="Counter"):
    cls = environment.create_class(name)
    cls.add_field("count", INT, 0)
    cls.add_method(
        "increment",
        (Parameter("by", INT),),
        INT,
        body=lambda self, by: self.set_field("count", self.get_field("count") + by) or self.get_field("count"),
        distributed=True,
    )
    return cls


class TestEnvironment:
    def test_class_load_events(self, environment):
        loaded = []
        environment.add_class_load_listener(lambda event: loaded.append(event.class_name))
        environment.create_class("Alpha")
        environment.create_class("Beta")
        assert loaded == ["Alpha", "Beta"]

    def test_duplicate_class_name_rejected(self, environment):
        environment.create_class("Alpha")
        with pytest.raises(JPieError):
            environment.create_class("Alpha")

    def test_get_class(self, environment):
        created = environment.create_class("Alpha")
        assert environment.get_class("Alpha") is created
        with pytest.raises(JPieError):
            environment.get_class("Beta")

    def test_instance_listeners(self, environment):
        created = []
        environment.add_instance_listener(lambda cls, instance: created.append((cls.name, instance)))
        counter = make_counter_class(environment)
        instance = counter.new_instance()
        assert created == [("Counter", instance)]


class TestUndoRedoStack:
    def test_changes_recorded(self, environment):
        counter = make_counter_class(environment)
        assert environment.undo_stack.depth == 2  # field + method
        assert [r.class_name for r in environment.undo_stack.records] == ["Counter", "Counter"]

    def test_stack_listeners_see_pushes(self, environment):
        seen = []
        environment.undo_stack.add_listener(lambda record: seen.append(record.event.kind.value))
        make_counter_class(environment)
        assert seen == ["field-added", "method-added"]

    def test_undo_reverts_method_addition(self, environment):
        counter = make_counter_class(environment)
        counter.add_method("noop", (), INT, body=lambda self: 0)
        assert counter.has_method("noop")
        environment.undo_stack.undo()
        assert not counter.has_method("noop")

    def test_undo_reverts_method_removal(self, environment):
        counter = make_counter_class(environment)
        counter.remove_method("increment")
        assert not counter.has_method("increment")
        environment.undo_stack.undo()
        assert counter.has_method("increment")

    def test_undo_with_nothing_to_undo(self):
        environment = JPieEnvironment()
        with pytest.raises(JPieError):
            environment.undo_stack.undo()

    def test_undo_produces_new_change_event(self, environment):
        """Undo looks like another edit — publishers must see it (§5.6)."""
        counter = make_counter_class(environment)
        counter.add_method("noop", (), INT, body=lambda self: 0)
        seen = []
        environment.undo_stack.add_listener(lambda record: seen.append(record.event.kind.value))
        environment.undo_stack.undo()
        assert seen == ["method-removed"]

    def test_clear(self, environment):
        make_counter_class(environment)
        environment.undo_stack.clear()
        assert environment.undo_stack.depth == 0
        assert environment.undo_stack.last() is None


class TestDebugger:
    def test_report_and_inspect(self, environment):
        entry = environment.debugger.report("client", ValueError("bad input"), "call failed")
        assert environment.debugger.latest() is entry
        assert entry in environment.debugger.unresolved
        assert "ValueError" in str(entry)

    def test_display_listeners(self, environment):
        displayed = []
        environment.debugger.add_display_listener(displayed.append)
        environment.debugger.report("client", RuntimeError("x"))
        assert len(displayed) == 1

    def test_try_again_reexecutes_and_resolves(self, environment):
        attempts = []
        entry = environment.debugger.report(
            "client", RuntimeError("first failure"), retry=lambda: attempts.append(1) or "ok"
        )
        assert environment.debugger.try_again(entry) == "ok"
        assert entry.resolved
        assert environment.debugger.unresolved == ()

    def test_try_again_without_retry(self, environment):
        environment.debugger.report("client", RuntimeError("x"))
        with pytest.raises(JPieError):
            environment.debugger.try_again()

    def test_try_again_with_no_entries(self, environment):
        with pytest.raises(JPieError):
            environment.debugger.try_again()

    def test_resolve_and_clear(self, environment):
        entry = environment.debugger.report("client", RuntimeError("x"))
        environment.debugger.resolve(entry)
        assert environment.debugger.unresolved == ()
        environment.debugger.clear()
        assert environment.debugger.entries == ()


class TestExport:
    def test_export_static_class_freezes_behaviour(self, environment):
        counter = make_counter_class(environment)
        counter.add_method("describe", (), STRING, body=lambda self: "counter")
        Exported = export_static_class(counter)
        instance = Exported()
        assert instance.describe() == "counter"
        assert instance.count == 0
        # Later dynamic changes do not affect the exported class.
        counter.method("describe").set_body(lambda self: "changed")
        assert instance.describe() == "counter"

    def test_export_empty_class_rejected(self, environment):
        empty = environment.create_class("Empty")
        with pytest.raises(ExportError):
            export_static_class(empty)

    def test_export_operation_table(self, environment):
        counter = make_counter_class(environment)
        instance = counter.new_instance()
        table = export_operation_table(counter, instance)
        signatures = [signature.name for signature, _ in table]
        assert signatures == ["increment"]
        _signature, implementation = table[0]
        assert implementation(5) == 5
        assert implementation(3) == 8  # state carried by the chosen instance

    def test_export_operation_table_requires_distributed_methods(self, environment):
        plain = environment.create_class("Plain")
        plain.add_method("helper", (), INT, body=lambda self: 1)
        with pytest.raises(ExportError):
            export_operation_table(plain)

    def test_exported_table_is_frozen_against_later_changes(self, environment):
        counter = make_counter_class(environment)
        instance = counter.new_instance()
        table = export_operation_table(counter, instance)
        counter.method("increment").set_body(lambda self, by: -1)
        _signature, implementation = table[0]
        assert implementation(2) == 2  # still the old behaviour
