"""Unit tests for the typed interface-diff engine."""

from __future__ import annotations

import pytest

from repro.corba.idl import generate_idl, parse_idl
from repro.evolve import (
    CHANGE_ADDED,
    CHANGE_REMOVED,
    CHANGE_SIGNATURE,
    CLASS_BREAKING,
    CLASS_COMPATIBLE,
    CLASS_IDENTICAL,
    diff_descriptions,
    is_compatible,
)
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import FieldDef, INT, STRING, StructType, VOID
from repro.soap.wsdl import generate_wsdl, parse_wsdl


def _description(version: int, *operations: OperationSignature, structs=()) -> InterfaceDescription:
    return InterfaceDescription(
        service_name="Svc",
        namespace="urn:sde:Svc",
        operations=tuple(sorted(operations, key=lambda op: op.name)),
        structs=tuple(structs),
        version=version,
        endpoint_url="http://server:8070/rmi",
    )


ECHO = OperationSignature("echo", (Parameter("m", STRING),), STRING)
ECHO_V2 = OperationSignature("echo_v2", (Parameter("m", STRING),), STRING)
PING = OperationSignature("ping", (), INT)


class TestDiffDescriptions:
    def test_identical_interfaces_diff_empty(self):
        delta = diff_descriptions(_description(1, ECHO), _description(2, ECHO))
        assert delta.empty
        assert delta.compatible
        assert delta.classification == CLASS_IDENTICAL
        assert delta.old_version == 1 and delta.new_version == 2

    def test_added_operation_is_compatible(self):
        delta = diff_descriptions(_description(1, ECHO), _description(2, ECHO, PING))
        assert delta.added == ("ping",)
        assert not delta.removed and not delta.changed
        assert delta.classification == CLASS_COMPATIBLE
        assert [change.kind for change in delta.operations] == [CHANGE_ADDED]

    def test_removed_operation_is_breaking(self):
        delta = diff_descriptions(_description(1, ECHO, PING), _description(2, PING))
        assert delta.removed == ("echo",)
        assert delta.classification == CLASS_BREAKING
        (change,) = delta.breaking_changes
        assert change.kind == CHANGE_REMOVED
        assert change.old == ECHO and change.new is None

    def test_signature_change_is_breaking(self):
        changed = OperationSignature(
            "echo", (Parameter("m", STRING), Parameter("times", INT)), STRING
        )
        delta = diff_descriptions(_description(1, ECHO), _description(2, changed))
        assert delta.changed == ("echo",)
        assert delta.classification == CLASS_BREAKING
        (change,) = delta.operations
        assert change.kind == CHANGE_SIGNATURE
        assert change.old == ECHO and change.new == changed
        assert "->" in change.describe()

    def test_return_type_change_is_a_signature_change(self):
        changed = OperationSignature("ping", (), VOID)
        delta = diff_descriptions(_description(1, PING), _description(2, changed))
        assert delta.changed == ("ping",)
        assert not delta.compatible

    def test_rename_reads_as_remove_plus_add(self):
        delta = diff_descriptions(_description(1, ECHO), _description(2, ECHO_V2))
        assert delta.removed == ("echo",)
        assert delta.added == ("echo_v2",)
        assert delta.classification == CLASS_BREAKING

    def test_struct_added_is_compatible_removed_or_changed_is_breaking(self):
        point = StructType("Point", (FieldDef("x", INT), FieldDef("y", INT)))
        point3 = StructType(
            "Point", (FieldDef("x", INT), FieldDef("y", INT), FieldDef("z", INT))
        )
        base = _description(1, ECHO)
        with_struct = _description(2, ECHO, structs=(point,))
        assert diff_descriptions(base, with_struct).classification == CLASS_COMPATIBLE
        assert diff_descriptions(with_struct, base).classification == CLASS_BREAKING
        mutated = _description(3, ECHO, structs=(point3,))
        delta = diff_descriptions(with_struct, mutated)
        assert delta.classification == CLASS_BREAKING
        assert [change.kind for change in delta.structs] == [CHANGE_SIGNATURE]

    def test_summary_names_struct_changes_after_operations(self):
        before = _description(1, ECHO, structs=(StructType("P", (FieldDef("x", INT),)),))
        after = _description(2, ECHO, structs=(StructType("P", (FieldDef("x", STRING),)),))
        delta = diff_descriptions(before, after)
        assert delta.classification == CLASS_BREAKING
        assert delta.summary() == "changed struct: P"
        added = StructType("Q", ())
        grown = _description(3, PING, structs=(StructType("P", (FieldDef("x", INT),)), added))
        assert diff_descriptions(before, grown).summary() == (
            "added: ping; removed: echo; added struct: Q"
        )
        assert diff_descriptions(grown, _description(4)).summary() == (
            "removed: ping; removed struct: P, Q"
        )


class TestIsCompatible:
    def test_additions_keep_old_stubs_working(self):
        assert is_compatible(_description(1, ECHO), _description(2, ECHO, PING))

    def test_removal_and_signature_change_break_old_stubs(self):
        assert not is_compatible(_description(1, ECHO, PING), _description(2, PING))
        changed = OperationSignature("echo", (Parameter("other", STRING),), STRING)
        assert not is_compatible(_description(1, ECHO), _description(2, changed))

    def test_struct_must_survive_unchanged(self):
        point = StructType("Point", (FieldDef("x", INT),))
        bound = _description(1, ECHO, structs=(point,))
        assert not is_compatible(bound, _description(2, ECHO))


class TestDiffDocuments:
    """The same classification from the parsed published documents."""

    @pytest.mark.parametrize(
        "parse,render",
        [(parse_wsdl, generate_wsdl), (parse_idl, generate_idl)],
        ids=["wsdl", "idl"],
    )
    def test_breaking_rename_classified_from_documents(self, parse, render):
        old = parse(render(_description(1, ECHO)))
        new = parse(render(_description(2, ECHO_V2)))
        delta = diff_descriptions(old, new)
        assert delta.classification == CLASS_BREAKING
        assert delta.removed == ("echo",)
        assert delta.added == ("echo_v2",)
        assert delta.old_version == 1 and delta.new_version == 2

    @pytest.mark.parametrize(
        "parse,render",
        [(parse_wsdl, generate_wsdl), (parse_idl, generate_idl)],
        ids=["wsdl", "idl"],
    )
    def test_compatible_addition_classified_from_documents(self, parse, render):
        old = parse(render(_description(1, ECHO)))
        new = parse(render(_description(2, ECHO, PING)))
        assert diff_descriptions(old, new).classification == CLASS_COMPATIBLE

