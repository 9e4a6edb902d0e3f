"""Tests for SOAP/XSD value encoding."""

import pytest

from repro.errors import SoapEncodingError
from repro.rmitypes import (
    ArrayType,
    BOOLEAN,
    CHAR,
    DOUBLE,
    FieldDef,
    INT,
    STRING,
    StructType,
    TypeRegistry,
)
from repro.soap.encoding import decode_typed, decode_value, encode_value
from repro.xmlutil import parse

ADDRESS = StructType("Address", (FieldDef("street", STRING), FieldDef("number", INT)))


def encoded(name, value, rmi_type, registry=None):
    """The element ``encode_value`` writes, read back as an ElementTree node."""
    return parse(encode_value(name, value, rmi_type, registry))


def roundtrip(value, rmi_type, registry=None):
    return decode_value(encoded("value", value, rmi_type, registry), rmi_type, registry)


class TestPrimitiveRoundtrips:
    @pytest.mark.parametrize("value,rmi_type", [
        (42, INT),
        (-17, INT),
        (3.25, DOUBLE),
        (True, BOOLEAN),
        (False, BOOLEAN),
        ("hello world", STRING),
        ("", STRING),
        ("x", CHAR),
    ])
    def test_roundtrip(self, value, rmi_type):
        assert roundtrip(value, rmi_type) == value

    def test_type_mismatch_rejected_at_encode(self):
        with pytest.raises(Exception):
            encode_value("v", "not an int", INT)

    def test_boolean_wire_format(self):
        assert encode_value("v", True, BOOLEAN) == '<v type="boolean">true</v>'
        assert encode_value("v", False, BOOLEAN) == '<v type="boolean">false</v>'

    def test_malformed_boolean_rejected_at_decode(self):
        element = encoded("v", 5, INT)
        element.text = "maybe"
        with pytest.raises(SoapEncodingError):
            decode_value(element, BOOLEAN)

    def test_malformed_int_rejected_at_decode(self):
        element = encoded("v", 5, INT)
        element.text = "five"
        with pytest.raises(SoapEncodingError):
            decode_value(element, INT)


class TestCompositeRoundtrips:
    def test_array_of_ints(self):
        assert roundtrip([1, 2, 3], ArrayType(INT)) == [1, 2, 3]

    def test_empty_array(self):
        assert roundtrip([], ArrayType(STRING)) == []

    def test_array_of_structs(self):
        registry = TypeRegistry((ADDRESS,))
        value = [{"street": "Main", "number": 1}, {"street": "Oak", "number": 2}]
        assert roundtrip(value, ArrayType(ADDRESS), registry) == value

    def test_struct(self):
        registry = TypeRegistry((ADDRESS,))
        value = {"street": "Brookings", "number": 1045}
        assert roundtrip(value, ADDRESS, registry) == value

    def test_struct_missing_field_in_document(self):
        element = encoded("v", {"street": "Main", "number": 1}, ADDRESS)
        element.remove(element.find("number"))
        with pytest.raises(SoapEncodingError):
            decode_value(element, ADDRESS)


class TestDynamicDecoding:
    def test_decode_dynamic_uses_type_attribute(self):
        assert decode_typed(encoded("arg0", 7, INT)) == (7, INT)

    def test_decode_dynamic_struct(self):
        registry = TypeRegistry((ADDRESS,))
        element = encoded("arg0", {"street": "Main", "number": 3}, ADDRESS, registry)
        assert decode_typed(element, registry) == ({"street": "Main", "number": 3}, ADDRESS)

    def test_decode_dynamic_without_type_attribute_rejected(self):
        element = encoded("arg0", 7, INT)
        element.attrib.clear()
        with pytest.raises(SoapEncodingError):
            decode_typed(element)
