"""Tests for SOAP envelopes and faults."""

import pytest

from repro.errors import SoapEncodingError, SoapError
from repro.rmitypes import ArrayType, DOUBLE, FieldDef, INT, STRING, StructType, TypeRegistry
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import FaultCodes, SoapFault

ADDRESS = StructType("Address", (FieldDef("street", STRING), FieldDef("number", INT)))


class TestSoapRequest:
    def test_roundtrip_simple_call(self):
        request = SoapRequest.for_call("add", (2, 3), namespace="urn:calc")
        parsed = SoapRequest.from_xml(request.to_xml())
        assert parsed.operation == "add"
        assert parsed.arguments == (2, 3)
        assert parsed.namespace == "urn:calc"

    def test_roundtrip_mixed_arguments(self):
        registry = TypeRegistry((ADDRESS,))
        request = SoapRequest.for_call(
            "register",
            ("alice", 30, True, [1, 2], {"street": "Main", "number": 1}),
            registry=registry,
        )
        parsed = SoapRequest.from_xml(request.to_xml(), registry)
        assert parsed.arguments == ("alice", 30, True, [1, 2], {"street": "Main", "number": 1})

    def test_zero_argument_call(self):
        request = SoapRequest.for_call("ping", ())
        parsed = SoapRequest.from_xml(request.to_xml())
        assert parsed.operation == "ping"
        assert parsed.arguments == ()

    def test_argument_type_count_mismatch_rejected(self):
        with pytest.raises(SoapError):
            SoapRequest("add", (1, 2), argument_types=(INT,))

    def test_malformed_xml_rejected(self):
        with pytest.raises(SoapError):
            SoapRequest.from_xml("<not-soap/>")

    def test_truncated_document_rejected(self):
        request = SoapRequest.for_call("add", (1, 2)).to_xml()
        with pytest.raises(SoapError):
            SoapRequest.from_xml(request[: len(request) // 2])

    def test_body_with_fault_rejected_as_request(self):
        response = SoapResponse.for_fault("x", SoapFault.malformed_request())
        with pytest.raises(SoapError):
            SoapRequest.from_xml(response.to_xml())


class TestSoapResponse:
    def test_roundtrip_result(self):
        response = SoapResponse.for_result("add", 5, INT, namespace="urn:calc")
        parsed = SoapResponse.from_xml(response.to_xml())
        assert not parsed.is_fault
        assert parsed.operation == "add"
        assert parsed.return_value == 5

    def test_roundtrip_array_result(self):
        response = SoapResponse.for_result("list", ["a", "b"], ArrayType(STRING))
        parsed = SoapResponse.from_xml(response.to_xml())
        assert parsed.return_value == ["a", "b"]

    def test_roundtrip_fault(self):
        fault = SoapFault.non_existent_method("add", 7)
        parsed = SoapResponse.from_xml(SoapResponse.for_fault("add", fault).to_xml())
        assert parsed.is_fault
        assert parsed.fault.is_non_existent_method
        assert "publishedVersion=7" in parsed.fault.detail

    def test_malformed_response_rejected(self):
        with pytest.raises(SoapError):
            SoapResponse.from_xml("<garbage/>")


class TestSoapFault:
    def test_factories_set_expected_codes(self):
        assert SoapFault.server_not_initialized().fault_code == FaultCodes.SERVER
        assert SoapFault.malformed_request("x").fault_code == FaultCodes.CLIENT
        assert SoapFault.non_existent_method("op").fault_code == FaultCodes.CLIENT

    def test_classification_properties(self):
        assert SoapFault.server_not_initialized().is_server_not_initialized
        assert SoapFault.non_existent_method("op").is_non_existent_method

    def test_application_fault_carries_exception_text(self):
        fault = SoapFault.application_fault(ValueError("division by zero"))
        assert "ValueError" in fault.detail
        assert "division by zero" in fault.detail

    def test_element_roundtrip(self):
        """Every factory's fault survives the ``<soapenv:Fault>`` element."""
        for fault in (
            SoapFault.server_not_initialized(),
            SoapFault.malformed_request("line 1: <bad> & worse"),
            SoapFault.non_existent_method("add", 3),
            SoapFault.application_fault(ValueError("tab\there\r\nthere")),
        ):
            xml = SoapResponse.for_fault("add", fault).to_xml()
            assert SoapResponse.from_xml(xml).fault == fault

    def test_str_includes_detail(self):
        assert "operation=add" in str(SoapFault.non_existent_method("add"))


class TestTextFidelity:
    """SOAP carries every string XML 1.0 can carry unchanged, and refuses,
    naming the value, the ones it cannot."""

    @pytest.mark.parametrize(
        "text", ["a\rb\r\nc", "\r", "\r\n", "line\n\rfeed", " \t\r\n ", "\r&\r<"]
    )
    def test_carriage_return_survives_a_request(self, text):
        request = SoapRequest.for_call("echo", (text,))
        assert SoapRequest.from_xml(request.to_xml()).arguments == (text,)

    def test_carriage_return_survives_a_response(self):
        response = SoapResponse.for_result("echo", ["x\ry", "\r\n"], ArrayType(STRING))
        assert SoapResponse.from_xml(response.to_xml()).return_value == ["x\ry", "\r\n"]

    def test_carriage_return_is_a_character_reference(self):
        xml = SoapRequest.for_call("echo", ("a\rb",)).to_xml()
        assert '<arg0 type="string">a&#13;b</arg0>' in xml
        assert "\r" not in xml

    def test_carriage_return_survives_a_fault_and_a_trace_context(self):
        fault = SoapFault.malformed_request("bad\r\nrequest")
        assert SoapResponse.from_xml(SoapResponse.for_fault("x", fault).to_xml()).fault == fault
        request = SoapRequest("ping", trace_context="t\r1")
        assert SoapRequest.from_xml(request.to_xml()).trace_context == "t\r1"

    @pytest.mark.parametrize("namespace", ["urn:a\tb", "urn:a\nb", "urn:a\rb", "urn:\r\n\t"])
    def test_whitespace_in_an_attribute_survives(self, namespace):
        request = SoapRequest.for_call("echo", (1,), namespace=namespace)
        assert SoapRequest.from_xml(request.to_xml()).namespace == namespace
        response = SoapResponse.for_result("echo", 1, INT, namespace=namespace)
        assert SoapResponse.from_xml(response.to_xml()).namespace == namespace

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ufffe", "\uffff"])
    def test_character_xml_cannot_carry_is_refused(self, char):
        request = SoapRequest.for_call("echo", (f"ab{char}cd",))
        with pytest.raises(SoapEncodingError) as raised:
            request.to_xml_and_wire()
        assert repr(f"ab{char}cd") in str(raised.value)
        with pytest.raises(SoapEncodingError):
            request.to_xml()
        with pytest.raises(SoapEncodingError):
            SoapResponse.for_result("echo", f"ab{char}cd", STRING).to_wire()

    def test_lone_surrogate_is_refused(self):
        request = SoapRequest.for_call("echo", ("ab\ud800cd",))
        with pytest.raises(SoapEncodingError) as raised:
            request.to_xml_and_wire()
        assert repr("ab\ud800cd") in str(raised.value)

    def test_control_character_in_a_fault_is_refused(self):
        fault = SoapFault.application_fault(ValueError("bell\x07"))
        with pytest.raises(SoapEncodingError):
            SoapResponse.for_fault("x", fault).to_xml_and_wire()

    @pytest.mark.parametrize("label,text", [("int", "1_0"), ("double", "1_0.5"), ("float", "2_5")])
    def test_digit_separator_is_refused(self, label, text):
        document = SoapRequest.for_call("echo", (7,)).to_xml().replace(
            '<arg0 type="int">7</arg0>', f'<arg0 type="{label}">{text}</arg0>'
        )
        with pytest.raises(SoapEncodingError):
            SoapRequest.from_xml(document)

    def test_numbers_still_decode(self):
        request = SoapRequest("echo", (-10, 2.5e-3), (INT, DOUBLE))
        assert SoapRequest.from_xml(request.to_xml()).arguments == (-10, 2.5e-3)
