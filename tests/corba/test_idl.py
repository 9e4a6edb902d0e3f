"""Tests for CORBA-IDL generation and parsing."""

import pytest

from repro.corba.idl import generate_idl, idl_type_name, parse_idl, rmi_type_from_idl
from repro.corba.idl.generator import module_name_for_namespace
from repro.errors import IdlError
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import (
    ArrayType,
    BOOLEAN,
    DOUBLE,
    FieldDef,
    INT,
    STRING,
    StructType,
    TypeRegistry,
    VOID,
)

POINT = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))

# Three levels of nesting, declared outermost first in the document.
CEE = StructType("Cee", (FieldDef("x", INT),))
BEE = StructType("Bee", (FieldDef("c", CEE),))
AY = StructType("Ay", (FieldDef("b", BEE),))


def build_description():
    operations = [
        OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT),
        OperationSignature("norm", (Parameter("p", POINT),), DOUBLE),
        OperationSignature("names", (), ArrayType(STRING)),
        OperationSignature("toggle", (Parameter("on", BOOLEAN),)),
    ]
    return InterfaceDescription(
        service_name="Calculator",
        namespace="urn:calc",
        endpoint_url="iiop://server:9000/Calculator",
        version=2,
    ).with_operations(operations, [POINT])


class TestTypeMapping:
    def test_primitive_mapping(self):
        assert idl_type_name(INT) == "long"
        assert idl_type_name(STRING) == "string"
        assert idl_type_name(VOID) == "void"

    def test_array_mapping(self):
        assert idl_type_name(ArrayType(INT)) == "sequence<long>"
        assert idl_type_name(ArrayType(ArrayType(STRING))) == "sequence<sequence<string>>"

    def test_struct_mapping(self):
        assert idl_type_name(POINT) == "Point"

    def test_reverse_mapping(self):
        assert rmi_type_from_idl("long") == INT
        assert rmi_type_from_idl("sequence<long>") == ArrayType(INT)
        assert rmi_type_from_idl("Point", TypeRegistry((POINT,))) == POINT

    def test_reverse_mapping_unknown_rejected(self):
        with pytest.raises(IdlError):
            rmi_type_from_idl("Mystery")

    def test_module_name_sanitisation(self):
        assert module_name_for_namespace("urn:calc") == "urn_calc"
        assert module_name_for_namespace("123 weird!") == "M_123_weird"
        assert module_name_for_namespace("!!!") == "Module"


class TestGeneration:
    def test_document_structure(self):
        document = generate_idl(build_description())
        assert "module urn_calc {" in document
        assert "interface Calculator {" in document
        assert "interface Point {" in document
        assert "long add(in long a, in long b);" in document
        assert "sequence<string> names();" in document
        assert "#pragma version 2" in document
        assert "#pragma endpoint iiop://server:9000/Calculator" in document

    def test_struct_attributes_rendered(self):
        document = generate_idl(build_description())
        assert "attribute double x;" in document
        assert "attribute double y;" in document

    def test_deterministic(self):
        assert generate_idl(build_description()) == generate_idl(build_description())


class TestParsing:
    def test_roundtrip_preserves_signature(self):
        description = build_description()
        parsed = parse_idl(generate_idl(description))
        assert parsed.same_signature(description)
        assert parsed.version == 2

    def test_roundtrip_preserves_struct_types(self):
        parsed = parse_idl(generate_idl(build_description()))
        point = parsed.type_registry().get("Point")
        assert point.field_names() == ("x", "y")
        assert parsed.operation("norm").parameters[0].param_type.type_name == "Point"

    def test_three_level_nested_structs_roundtrip(self):
        description = InterfaceDescription(
            service_name="Nest", namespace="urn:nest", endpoint_url="iiop://server:9000/Nest"
        ).with_operations([OperationSignature("get", (Parameter("a", AY),), AY)], [AY, BEE, CEE])
        parsed = parse_idl(generate_idl(description))
        assert parsed.same_signature(description)
        assert parsed.type_registry().get("Ay") == AY

    def test_struct_reference_cycle_rejected(self):
        document = """
        module M {
          interface Ay { attribute Bee b; };
          interface Bee { attribute sequence<Ay> a; };
          interface Svc { Ay get(); };
        };
        """
        with pytest.raises(IdlError, match="Ay -> Bee -> Ay"):
            parse_idl(document)

    def test_struct_defined_twice_rejected(self):
        document = """
        module M {
          interface Ay { attribute long x; };
          interface Ay { attribute string x; };
          interface Svc { Ay get(); };
        };
        """
        with pytest.raises(IdlError, match="defined twice"):
            parse_idl(document)

    def test_minimal_interface_roundtrip(self):
        minimal = InterfaceDescription.minimal("Svc", "urn:x", "iiop://server:1/Svc")
        parsed = parse_idl(generate_idl(minimal))
        assert parsed.operations == ()
        assert parsed.endpoint_url == "iiop://server:1/Svc"

    def test_hand_written_idl_parses(self):
        document = """
        // hand written
        #pragma namespace urn:mail
        module Mail {
          interface Message {
            attribute string subject;
            attribute string body;
          };
          interface MailService {
            boolean send(in Message m);
            sequence<string> inbox(in string user);
          };
        };
        """
        parsed = parse_idl(document)
        assert parsed.service_name == "MailService"
        assert parsed.namespace == "urn:mail"
        assert parsed.has_operation("send")
        assert parsed.operation("inbox").return_type == ArrayType(STRING)

    def test_empty_module_rejected(self):
        with pytest.raises(IdlError):
            parse_idl("module Empty { };")

    def test_malformed_document_rejected(self):
        with pytest.raises(IdlError):
            parse_idl("interface NoModule { };")
        with pytest.raises(IdlError):
            parse_idl("module Broken { interface X { long op(; };")

    def test_comments_and_pragmas_ignored_by_tokenizer(self):
        document = generate_idl(build_description())
        commented = "// a leading comment\n" + document
        assert parse_idl(commented).same_signature(build_description())
