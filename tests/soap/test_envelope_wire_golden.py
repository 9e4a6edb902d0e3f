"""Wire-bytes corpus for SOAP envelopes: the byte oracle of the SOAP writer.

Every case below is rendered with ``to_xml_and_wire`` and the bytes are
pinned: a few cases verbatim, all of them through one SHA-256 digest.  The
corpus covers every primitive, nested structs and arrays, escaping,
non-ASCII text, a zero-argument call, every fault factory, a traced
request, and target namespaces that collide with well-known ones (which
changes the prefixes the envelope declares).

No case contains a carriage return: how ``\\r`` is escaped is pinned by the
regression tests in ``test_envelope_and_faults.py`` instead.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.rmitypes import (
    ArrayType,
    BOOLEAN,
    CHAR,
    DOUBLE,
    FLOAT,
    FieldDef,
    INT,
    STRING,
    StructType,
    VOID,
)
from repro.soap.envelope import TRACE_NAMESPACE, SoapRequest, SoapResponse
from repro.soap.faults import SoapFault
from repro.xmlutil import Namespaces

POINT = StructType("Point", (FieldDef("x", INT), FieldDef("y", DOUBLE)))
SEGMENT = StructType(
    "Segment", (FieldDef("label", STRING), FieldDef("start", POINT), FieldDef("end", POINT))
)
EMPTY = StructType("Empty", ())
SEGMENT_VALUE = {
    "label": "a & <b>",
    "start": {"x": 1, "y": 0.5},
    "end": {"x": -2, "y": 1e-07},
}

_PRIMITIVES = (
    ("int", 42, INT),
    ("int-negative", -(2**31), INT),
    ("double", 3.25, DOUBLE),
    ("double-from-int", 7, DOUBLE),
    ("float", 1.5e20, FLOAT),
    ("boolean-true", True, BOOLEAN),
    ("boolean-false", False, BOOLEAN),
    ("string", "hello world", STRING),
    ("string-empty", "", STRING),
    ("string-whitespace", "  padded\tand\nnewline  ", STRING),
    ("char", "q", CHAR),
)


def _request(operation, arguments, types, namespace="urn:sde:Corpus", trace_context=None):
    return SoapRequest(operation, tuple(arguments), tuple(types), namespace, trace_context)


def _cases():
    cases = []
    for name, value, rmi_type in _PRIMITIVES:
        cases.append((f"request-{name}", _request("echo", (value,), (rmi_type,))))
        cases.append(
            (f"response-{name}", SoapResponse.for_result("echo", value, rmi_type, "urn:sde:Corpus"))
        )
    cases += [
        ("response-void", SoapResponse.for_result("reset", None, VOID, "urn:sde:Corpus")),
        ("request-zero-arguments", _request("ping", (), ())),
        (
            "request-mixed",
            _request("mix", (1, "two", 3.0, False), (INT, STRING, DOUBLE, BOOLEAN)),
        ),
        ("request-nested-struct", _request("draw", (SEGMENT_VALUE,), (SEGMENT,))),
        ("response-nested-struct", SoapResponse.for_result("draw", SEGMENT_VALUE, SEGMENT, "urn:g")),
        ("request-empty-struct", _request("touch", ({},), (EMPTY,))),
        ("request-empty-array", _request("sum", ([],), (ArrayType(INT),))),
        ("response-empty-array", SoapResponse.for_result("list", [], ArrayType(STRING), "urn:g")),
        (
            "request-nested-array",
            _request("grid", ([[1, 2], [], [3]],), (ArrayType(ArrayType(INT)),)),
        ),
        (
            "request-array-of-structs",
            _request(
                "plot",
                ([{"x": 0, "y": 0.0}, {"x": 5, "y": -2.5}],),
                (ArrayType(POINT),),
            ),
        ),
        (
            "response-array-of-strings",
            SoapResponse.for_result("names", ["a", "", "c d"], ArrayType(STRING), "urn:g"),
        ),
        (
            "request-escaping",
            _request("echo", ('x & y < z > w "quoted" \'single\'',), (STRING,)),
        ),
        ("request-non-ascii", _request("echo", ("héllo wörld ✓ 日本 \U0001f600",), (STRING,))),
        ("response-non-ascii", SoapResponse.for_result("echo", "naïve café", STRING, "urn:g")),
        ("request-char-ampersand", _request("echo", ("&",), (CHAR,))),
        ("request-namespace-escaped", _request("echo", (1,), (INT,), namespace='urn:a&b"c<d>')),
        ("request-namespace-empty", _request("echo", (1,), (INT,), namespace="")),
        ("request-namespace-xsd", _request("echo", (1,), (INT,), namespace=Namespaces.XSD)),
        ("response-namespace-xsd", SoapResponse.for_result("echo", 1, INT, Namespaces.XSD)),
        (
            "request-namespace-soapenv",
            _request("echo", (1,), (INT,), namespace=Namespaces.SOAP_ENVELOPE),
        ),
        (
            "response-namespace-soapenv",
            SoapResponse.for_result("echo", 1, INT, Namespaces.SOAP_ENVELOPE),
        ),
        ("request-namespace-wsdl", _request("echo", (1,), (INT,), namespace=Namespaces.WSDL)),
        ("request-traced", _request("echo", ("hi",), (STRING,), trace_context="t-17:s-4")),
        ("request-traced-empty-context", _request("ping", (), (), trace_context="")),
        (
            "request-traced-namespace-xsi",
            _request("ping", (), (), namespace=Namespaces.XSI, trace_context="t&1"),
        ),
        (
            "request-traced-namespace-is-trace",
            _request("echo", (2,), (INT,), namespace=TRACE_NAMESPACE, trace_context="t-1"),
        ),
        (
            "request-traced-namespace-soapenv",
            _request("echo", (2,), (INT,), namespace=Namespaces.SOAP_ENVELOPE, trace_context="x"),
        ),
        ("request-inferred", SoapRequest.for_call("add", (2, 3), namespace="urn:calc")),
    ]
    faults = (
        ("server-not-initialized", SoapFault.server_not_initialized()),
        ("malformed-request", SoapFault.malformed_request("line 1: <bad> & \"worse\"")),
        ("malformed-request-no-detail", SoapFault.malformed_request()),
        ("non-existent-method", SoapFault.non_existent_method("add")),
        ("non-existent-method-versioned", SoapFault.non_existent_method("add", 7)),
        ("application-fault", SoapFault.application_fault(ValueError("bad value: ünïcode <x>"))),
        ("empty-code", SoapFault("", "", "")),
    )
    for name, fault in faults:
        cases.append((f"fault-{name}", SoapResponse.for_fault("add", fault, "urn:sde:Corpus")))
    cases.append(
        ("fault-namespace-xsd", SoapResponse.for_fault("add", faults[0][1], Namespaces.XSD))
    )
    return cases


CASES = _cases()

#: SHA-256 over every case's id and wire bytes, in corpus order.
CORPUS_SHA256 = "056489158aef14d5555d5f60a8d99518569718fb54da374a4c691789db253b11"

_ENV = 'xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
_DECL = '<?xml version="1.0" encoding="UTF-8"?>'

#: A few cases pinned verbatim, so a digest mismatch has a readable neighbour.
PINNED = {
    "request-int": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:sde:Corpus"><soapenv:Body>'
        '<ns0:echo><arg0 type="int">42</arg0></ns0:echo>'
        "</soapenv:Body></soapenv:Envelope>"
    ),
    "request-zero-arguments": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:sde:Corpus"><soapenv:Body>'
        "<ns0:ping/></soapenv:Body></soapenv:Envelope>"
    ),
    "response-empty-array": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:g"><soapenv:Body>'
        '<ns0:listResponse><return type="string[]"/></ns0:listResponse>'
        "</soapenv:Body></soapenv:Envelope>"
    ),
    "request-array-of-structs": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:sde:Corpus"><soapenv:Body>'
        '<ns0:plot><arg0 type="Point[]">'
        '<item index="0" type="Point"><x type="int">0</x><y type="double">0.0</y></item>'
        '<item index="1" type="Point"><x type="int">5</x><y type="double">-2.5</y></item>'
        "</arg0></ns0:plot></soapenv:Body></soapenv:Envelope>"
    ),
    "request-traced": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:repro:obs" xmlns:ns1="urn:sde:Corpus">'
        "<soapenv:Header><ns0:TraceContext>t-17:s-4</ns0:TraceContext></soapenv:Header>"
        '<soapenv:Body><ns1:echo><arg0 type="string">hi</arg0></ns1:echo>'
        "</soapenv:Body></soapenv:Envelope>"
    ),
    "request-namespace-xsd": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
        '<soapenv:Body><xsd:echo><arg0 type="int">1</arg0></xsd:echo>'
        "</soapenv:Body></soapenv:Envelope>"
    ),
    "request-escaping": (
        f'{_DECL}<soapenv:Envelope {_ENV} xmlns:ns0="urn:sde:Corpus"><soapenv:Body>'
        '<ns0:echo><arg0 type="string">x &amp; y &lt; z &gt; w "quoted" \'single\'</arg0>'
        "</ns0:echo></soapenv:Body></soapenv:Envelope>"
    ),
    "fault-non-existent-method-versioned": (
        f"{_DECL}<soapenv:Envelope {_ENV}><soapenv:Body><soapenv:Fault>"
        "<faultcode>Client</faultcode><faultstring>Non existent Method</faultstring>"
        "<detail>operation=add; publishedVersion=7</detail>"
        "</soapenv:Fault></soapenv:Body></soapenv:Envelope>"
    ),
}


def _corpus_digest() -> str:
    digest = hashlib.sha256()
    for case_id, envelope in CASES:
        digest.update(case_id.encode("utf-8") + b"\0")
        digest.update(envelope.to_xml_and_wire()[1] + b"\0")
    return digest.hexdigest()


def test_case_ids_are_unique():
    ids = [case_id for case_id, _ in CASES]
    assert len(ids) == len(set(ids))


def test_corpus_has_no_carriage_return():
    for case_id, envelope in CASES:
        assert b"\r" not in envelope.to_xml_and_wire()[1], case_id


@pytest.mark.parametrize("case_id", sorted(PINNED))
def test_pinned_bytes(case_id):
    envelope = dict(CASES)[case_id]
    xml, wire = envelope.to_xml_and_wire()
    assert xml == PINNED[case_id]
    assert wire == PINNED[case_id].encode("utf-8")


@pytest.mark.parametrize("case_id", [case_id for case_id, _ in CASES])
def test_every_representation_agrees(case_id):
    envelope = dict(CASES)[case_id]
    xml, wire = envelope.to_xml_and_wire()
    assert envelope.to_xml() == xml
    assert envelope.to_wire() == wire == xml.encode("utf-8")


def test_corpus_digest():
    assert _corpus_digest() == CORPUS_SHA256
