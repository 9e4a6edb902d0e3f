"""Tests for WSDL generation, parsing and stub compilation."""

import pytest

from repro.errors import MemberNotFoundError, SignatureError, WsdlError
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import ArrayType, DOUBLE, FieldDef, INT, STRING, StructType, VOID
from repro.soap import SoapResponse, SoapServiceDefinition, StaticSoapServer
from repro.soap.wsdl import generate_wsdl, parse_wsdl


POINT = StructType("Point", (FieldDef("x", DOUBLE), FieldDef("y", DOUBLE)))
SEGMENT = StructType("Segment", (FieldDef("start", POINT), FieldDef("end", POINT)))

# Three levels of nesting, declared outermost first in the document.
CEE = StructType("Cee", (FieldDef("x", INT),))
BEE = StructType("Bee", (FieldDef("c", CEE),))
AY = StructType("Ay", (FieldDef("b", BEE),))


def nested_description():
    return InterfaceDescription(
        service_name="Nest",
        namespace="urn:nest",
        endpoint_url="http://server:8080/services/Nest",
    ).with_operations([OperationSignature("get", (Parameter("a", AY),), AY)], [AY, BEE, CEE])


def build_description():
    operations = [
        OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT),
        OperationSignature("greet", (Parameter("name", STRING),), STRING),
        OperationSignature("norm", (Parameter("p", POINT),), DOUBLE),
        OperationSignature("tags", (), ArrayType(STRING)),
        OperationSignature("reset", ()),
    ]
    return InterfaceDescription(
        service_name="Calculator",
        namespace="urn:calc",
        endpoint_url="http://server:8080/services/Calculator",
        version=4,
    ).with_operations(operations, [POINT, SEGMENT])


class TestGeneration:
    def test_document_structure(self):
        document = generate_wsdl(build_description())
        for fragment in ("definitions", "portType", "binding", "service", "soap/http", "complexType"):
            assert fragment in document
        assert "http://server:8080/services/Calculator" in document

    def test_minimal_document_has_endpoint_but_no_operations(self):
        minimal = InterfaceDescription.minimal("Svc", "urn:x", "http://server:1/ep")
        document = generate_wsdl(minimal)
        parsed = parse_wsdl(document)
        assert parsed.operations == ()
        assert parsed.endpoint_url == "http://server:1/ep"

    def test_deterministic_output(self):
        assert generate_wsdl(build_description()) == generate_wsdl(build_description())

    def test_pretty_output_parses_identically(self):
        description = build_description()
        assert parse_wsdl(generate_wsdl(description, pretty=True)).same_signature(
            parse_wsdl(generate_wsdl(description))
        )


class TestParsing:
    def test_full_roundtrip_preserves_signature(self):
        description = build_description()
        parsed = parse_wsdl(generate_wsdl(description))
        assert parsed.same_signature(description)
        assert parsed.version == description.version

    def test_roundtrip_preserves_types(self):
        parsed = parse_wsdl(generate_wsdl(build_description()))
        assert parsed.operation("norm").parameters[0].param_type.type_name == "Point"
        assert parsed.operation("tags").return_type == ArrayType(STRING)
        assert parsed.operation("reset").return_type == VOID

    def test_nested_struct_fields_resolved(self):
        parsed = parse_wsdl(generate_wsdl(build_description()))
        segment = parsed.type_registry().get("Segment")
        assert segment.fields[0].field_type.type_name == "Point"

    def test_three_level_nested_structs_roundtrip(self):
        parsed = parse_wsdl(generate_wsdl(nested_description()))
        assert parsed.same_signature(nested_description())
        assert parsed.type_registry().get("Ay") == AY

    def test_three_level_nested_struct_decodes_with_parsed_registry(self):
        registry = parse_wsdl(generate_wsdl(nested_description())).type_registry()
        value = {"b": {"c": {"x": 7}}}
        wire = SoapResponse.for_result("get", value, AY, "urn:nest").to_xml()
        assert SoapResponse.from_xml(wire, registry).return_value == value

    def test_struct_reference_cycle_rejected(self):
        document = generate_wsdl(nested_description()).replace(
            'name="x" type="int"', 'name="x" type="Ay"'
        )
        with pytest.raises(WsdlError, match="Ay -> Bee -> Cee -> Ay"):
            parse_wsdl(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(WsdlError):
            parse_wsdl("<not-wsdl/>")
        with pytest.raises(WsdlError):
            parse_wsdl("definitely not xml <<")

    def test_missing_required_attributes_rejected(self):
        with pytest.raises(WsdlError):
            parse_wsdl('<?xml version="1.0"?><wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"/>')


def static_calculator(host):
    """A static server deploying :func:`build_description`'s operations."""
    implementations = {
        "add": lambda a, b: a + b,
        "greet": lambda name: f"hi {name}",
        "norm": lambda p: (p["x"] ** 2 + p["y"] ** 2) ** 0.5,
        "tags": lambda: ["a", "b"],
        "reset": lambda: None,
    }
    description = build_description()
    definition = SoapServiceDefinition(
        description.service_name, description.namespace, structs=[POINT, SEGMENT]
    )
    for operation in description.operations:
        definition.add_operation(operation, implementations[operation.name])
    return StaticSoapServer(host, 8180, definition)


class TestStubCompilation:
    """The ``WSDL2Java`` analogue: the CDE's stub class, built from the SOAP
    stack's bind of a static server's WSDL; it checks every call before
    anything is sent."""

    @pytest.fixture
    def compiled(self, static_world):
        runtime, server, binding = static_world(static_calculator, "soap")
        stubs = runtime.cde.create_stub_class(binding)
        return server, binding.stack.http, stubs, stubs.new_stub_instance()

    def test_stub_exposes_operations(self, compiled):
        _server, _http, stubs, _stub = compiled
        assert set(stubs.operation_names) == {"add", "greet", "norm", "tags", "reset"}

    def test_attribute_style_invocation(self, compiled):
        server, _http, _stubs, stub = compiled
        assert stub.add(2, 3) == 5
        assert stub.norm({"x": 3.0, "y": 4.0}) == 5.0
        assert server.calls_served == 2

    def test_invoke_by_name(self, compiled):
        _server, _http, _stubs, stub = compiled
        assert stub.invoke("greet", "bob") == "hi bob"

    def test_arity_checked_before_transport(self, compiled):
        server, http, _stubs, stub = compiled
        sent = http.requests_sent
        with pytest.raises(SignatureError):
            stub.add(1)
        assert server.calls_served == 0
        assert http.requests_sent == sent

    def test_argument_types_checked(self, compiled):
        server, http, _stubs, stub = compiled
        sent = http.requests_sent
        with pytest.raises(SignatureError):
            stub.add("one", 2)
        assert server.calls_served == 0
        assert http.requests_sent == sent

    def test_unknown_operation_raises(self, compiled):
        server, http, _stubs, stub = compiled
        sent = http.requests_sent
        with pytest.raises(MemberNotFoundError):
            stub.invoke("subtract", 1, 2)
        with pytest.raises(AttributeError):
            stub.subtract
        assert server.calls_served == 0
        assert http.requests_sent == sent

    def test_call_count_tracked(self, compiled):
        server, _http, stubs, stub = compiled
        stub.add(1, 2)
        stub.add(3, 4)
        assert stubs.stub_class.method("add").invocation_count == 2
        assert server.calls_served == 2

