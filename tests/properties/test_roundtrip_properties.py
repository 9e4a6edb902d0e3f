"""Property-based tests (hypothesis) for the wire formats and documents.

Every encoding in the system must round-trip: what one endpoint serialises,
the other must reconstruct exactly.  These properties cover CDR values, GIOP
frames, IORs, HTTP messages, SOAP envelopes, and the WSDL / CORBA-IDL
documents generated from arbitrary interface descriptions.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.corba.giop import ReplyMessage, ReplyStatus, RequestMessage, parse_message
from repro.corba.idl import generate_idl, parse_idl
from repro.corba.ior import IOR
from repro.evolve import diff_descriptions
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.net.http.messages import HttpRequest, HttpResponse
from repro.rmitypes import (
    ArrayType,
    BOOLEAN,
    DOUBLE,
    FieldDef,
    INT,
    STRING,
    StructType,
    TypeRegistry,
    infer_type,
)
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.wsdl import generate_wsdl, parse_wsdl

# ---------------------------------------------------------------------------
# Value strategies
# ---------------------------------------------------------------------------

#: Text that survives XML round-tripping: tab, newline and carriage return
#: included, no other control characters (XML 1.0 cannot carry them; the SOAP
#: encoder refuses them, which ``tests/soap`` checks).
xml_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs", "Cc"), max_codepoint=0x2FFF),
        st.sampled_from("\t\n\r"),
    ),
    max_size=40,
)

import keyword

#: Words that cannot be member names: Python keywords (rejected by the shared
#: identifier validation) and IDL reserved words / built-in type names (they
#: would collide with the CORBA-IDL grammar when round-tripping documents).
_RESERVED_WORDS = {
    "module", "interface", "attribute", "sequence",
    "long", "double", "float", "boolean", "string", "char", "void", "in",
}

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name) and name not in _RESERVED_WORDS
)

scalar_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    xml_text,
)

cdr_values = st.recursive(
    st.one_of(st.none(), scalar_values),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(identifiers, children, max_size=4),
    ),
    max_leaves=12,
)


class TestCdrProperties:
    @given(st.lists(cdr_values, max_size=6))
    @settings(max_examples=150)
    def test_marshal_unmarshal_roundtrip(self, values):
        assert unmarshal_values(marshal_values(tuple(values))) == list(values)

    @given(st.lists(st.integers(min_value=-(2**60), max_value=2**60), max_size=8))
    def test_integer_sequences_roundtrip(self, values):
        assert unmarshal_values(marshal_values(tuple(values))) == values


class TestGiopProperties:
    @given(
        st.integers(min_value=0, max_value=2**31),
        identifiers,
        identifiers,
        st.lists(cdr_values, max_size=4),
    )
    @settings(max_examples=80)
    def test_request_roundtrip(self, request_id, object_key, operation, arguments):
        message = RequestMessage(request_id, object_key, operation, marshal_values(tuple(arguments)))
        parsed = parse_message(message.to_bytes())
        assert isinstance(parsed, RequestMessage)
        assert parsed.request_id == request_id
        assert parsed.object_key == object_key
        assert parsed.operation == operation
        assert unmarshal_values(parsed.arguments_cdr) == list(arguments)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(list(ReplyStatus)),
        xml_text,
        xml_text,
    )
    @settings(max_examples=80)
    def test_reply_roundtrip(self, request_id, status, exception_type, detail):
        message = ReplyMessage(request_id, status, marshal_values((1,)), exception_type, detail)
        parsed = parse_message(message.to_bytes())
        assert isinstance(parsed, ReplyMessage)
        assert parsed.status == status
        assert parsed.exception_type == exception_type
        assert parsed.exception_detail == detail


class TestIorProperties:
    hostnames = st.from_regex(r"[a-z][a-z0-9\-]{0,15}", fullmatch=True)

    @given(xml_text, hostnames, st.integers(min_value=1, max_value=65535), identifiers)
    @settings(max_examples=100)
    def test_stringify_roundtrip(self, type_id, host, port, object_key):
        ior = IOR(type_id, host, port, object_key)
        assert IOR.from_string(ior.stringify()) == ior


class TestHttpProperties:
    header_names = st.from_regex(r"[A-Za-z][A-Za-z\-]{0,12}", fullmatch=True)
    header_values = st.text(alphabet=string.ascii_letters + string.digits + " ;=/.-_", max_size=20)

    @given(
        st.sampled_from(["GET", "POST", "PUT", "DELETE"]),
        st.from_regex(r"/[a-z0-9/\-_.]{0,20}", fullmatch=True),
        st.lists(
            st.tuples(header_names, header_values),
            max_size=4,
            unique_by=lambda pair: pair[0].title(),
        ),
        st.text(alphabet=string.printable.replace("\r", ""), max_size=200),
    )
    @settings(max_examples=100)
    def test_request_roundtrip(self, method, path, header_pairs, body):
        headers = dict(header_pairs)
        request = HttpRequest(method, path, headers, body)
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == method
        assert parsed.path == path
        assert parsed.body == body
        for name, value in headers.items():
            assert parsed.header(name) == value.strip()

    @given(st.integers(min_value=100, max_value=599), st.text(alphabet=string.printable.replace("\r", ""), max_size=200))
    @settings(max_examples=60)
    def test_response_roundtrip(self, status, body):
        response = HttpResponse(status, {"Content-Type": "text/plain"}, body)
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.status == status
        assert parsed.body == body


# ---------------------------------------------------------------------------
# SOAP envelope properties
# ---------------------------------------------------------------------------

soap_argument = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.booleans(),
    xml_text,
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=5),
)


class TestSoapEnvelopeProperties:
    @given(identifiers, st.lists(soap_argument, max_size=4))
    @settings(max_examples=100)
    def test_request_roundtrip(self, operation, arguments):
        request = SoapRequest.for_call(operation, tuple(arguments), namespace="urn:prop")
        parsed = SoapRequest.from_xml(request.to_xml())
        assert parsed.operation == operation
        assert list(parsed.arguments) == list(arguments)

    @given(identifiers, soap_argument)
    @settings(max_examples=100)
    def test_response_roundtrip(self, operation, value):
        response = SoapResponse.for_result(operation, value, infer_type(value), namespace="urn:prop")
        parsed = SoapResponse.from_xml(response.to_xml())
        assert not parsed.is_fault
        assert parsed.return_value == value


# ---------------------------------------------------------------------------
# Interface document properties (WSDL and IDL)
# ---------------------------------------------------------------------------

rmi_types = st.sampled_from([INT, DOUBLE, BOOLEAN, STRING])

type_names = st.from_regex(r"[A-Z][A-Za-z0-9]{0,8}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name)
)


@st.composite
def struct_chains(draw, service):
    """1–4 structs, each holding the next one directly or in an array.

    Returned outermost first; the documents list them sorted by name, so
    fields refer both forwards and backwards.
    """
    names = draw(
        st.lists(type_names.filter(lambda name: name != service), min_size=1, max_size=4, unique=True)
    )
    chain: list[StructType] = []
    for name in reversed(names):
        field_names = draw(st.lists(identifiers, min_size=1, max_size=3, unique=True))
        fields = [FieldDef(field_name, draw(rmi_types)) for field_name in field_names]
        if chain:
            inner = chain[0]
            fields[0] = FieldDef(field_names[0], draw(st.sampled_from([inner, ArrayType(inner)])))
        chain.insert(0, StructType(name, tuple(fields)))
    return chain


@st.composite
def interface_descriptions(draw):
    service = draw(type_names)
    structs = draw(struct_chains(service))
    member_types = st.one_of(rmi_types, st.sampled_from(structs))
    operation_names = draw(
        st.lists(identifiers, min_size=0, max_size=5, unique=True)
    )
    operations = []
    for name in operation_names:
        parameter_names = draw(st.lists(identifiers, max_size=3, unique=True))
        parameters = tuple(
            Parameter(parameter_name, draw(member_types)) for parameter_name in parameter_names
        )
        operations.append(OperationSignature(name, parameters, draw(member_types)))
    return InterfaceDescription(
        service_name=service,
        namespace="urn:prop:" + service,
        endpoint_url=f"http://server:8070/sde/{service}",
        version=draw(st.integers(min_value=0, max_value=50)),
    ).with_operations(operations, structs)


class TestInterfaceDocumentProperties:
    @given(interface_descriptions())
    @settings(max_examples=60, deadline=None)
    def test_wsdl_roundtrip_preserves_signature(self, description):
        parsed = parse_wsdl(generate_wsdl(description))
        assert parsed.same_signature(description)
        assert parsed.version == description.version

    @given(interface_descriptions())
    @settings(max_examples=60, deadline=None)
    def test_idl_roundtrip_preserves_signature(self, description):
        parsed = parse_idl(generate_idl(description))
        assert parsed.same_signature(description)
        assert parsed.version == description.version

    @given(interface_descriptions())
    @settings(max_examples=40, deadline=None)
    def test_memoised_parse_equals_unmemoised_parse(self, description):
        for memoised, generate in ((parse_wsdl, generate_wsdl), (parse_idl, generate_idl)):
            document = generate(description)
            remembered = memoised(document)
            assert memoised(document) is remembered
            assert remembered == memoised.__wrapped__(document)

    @given(interface_descriptions(), interface_descriptions())
    @settings(max_examples=40, deadline=None)
    def test_diff_is_antisymmetric_on_added_removed(self, one, two):
        forward = diff_descriptions(one, two)
        backward = diff_descriptions(two, one)
        assert set(forward.added) == set(backward.removed)
        assert set(forward.removed) == set(backward.added)
        assert set(forward.changed) == set(backward.changed)

    @given(interface_descriptions())
    @settings(max_examples=40, deadline=None)
    def test_diff_with_self_is_empty(self, description):
        delta = diff_descriptions(description, description)
        assert delta.empty
        assert delta.summary() == "no interface changes"

    @given(interface_descriptions(), interface_descriptions())
    @settings(max_examples=40, deadline=None)
    def test_roundtripped_descriptions_diff_like_the_originals(self, one, two):
        """Classifying a rollout wave from the published descriptions gives
        what the published documents would: the delta survives a WSDL or
        IDL round trip of both sides."""
        expected = diff_descriptions(one, two)
        for parse, generate in ((parse_wsdl, generate_wsdl), (parse_idl, generate_idl)):
            assert diff_descriptions(parse(generate(one)), parse(generate(two))) == expected
