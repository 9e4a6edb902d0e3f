"""Property-based tests (hypothesis) for the wire formats, the documents
and the scheduler's dispatch order.

Every encoding in the system must round-trip: what one endpoint serialises,
the other must reconstruct exactly.  These properties cover CDR values
(plus pinned golden wire bytes), GIOP frames, IORs, HTTP messages, SOAP
envelopes (whose wire bytes must be their text's UTF-8 encoding; the exact
bytes are pinned by the corpus in ``tests/soap/test_envelope_wire_golden.py``),
and the WSDL / CORBA-IDL documents generated from arbitrary interface
descriptions.  The scheduler must dispatch in exactly ``(time,
insertion-order)`` under arbitrary schedule/cancel churn, matching a naive
reference event for event, with ``pending_count`` equal to a full scan at
every step.
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
    infer_type,
)
from repro.sim import Scheduler
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault
from repro.soap.wsdl import generate_wsdl, parse_wsdl

# ---------------------------------------------------------------------------
# Value strategies
# ---------------------------------------------------------------------------

#: Every string XML 1.0 can carry, tab, newline and carriage return
#: included: the other C0 controls, U+FFFE and U+FFFF are refused by the SOAP
#: encoder (tested in ``tests/soap``).
xml_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff"),
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

    def test_golden_wire_bytes(self):
        """The wire format cannot drift: these bytes are what the seed's
        fragment-list implementation produced."""
        wire = marshal_values((None, True, 7, 2.5, "hi", [1], {"k": "v"}))
        assert wire == bytes.fromhex(
            "00000007"  # 7 values
            "00"  # null
            "0101"  # boolean true
            "020000000000000007"  # long 7
            "034004000000000000"  # double 2.5
            "04000000026869"  # string "hi"
            "0600000001020000000000000001"  # sequence [1]
            "0700000001000000016b040000000176"  # struct {"k": "v"}
        )


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

_int = st.integers(min_value=-(2**31), max_value=2**31)
_float = st.floats(allow_nan=False, allow_infinity=False, width=32)
# Arrays must be homogeneous: infer_type derives the element type from the
# first item (an empty array is typed as strings) and the encoder rejects
# mixed lists.
soap_value = st.one_of(
    _int,
    st.booleans(),
    xml_text,
    _float,
    st.lists(_int, max_size=5),
    st.lists(st.booleans(), min_size=1, max_size=5),
    st.lists(xml_text, min_size=1, max_size=5),
    st.lists(_float, min_size=1, max_size=5),
)
soap_operations = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True)
soap_namespaces = st.sampled_from(
    ["urn:sde:EchoService", "urn:repro", "urn:x-test:service", "http://example.org/ns"]
)


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


class TestSoapWireEncoding:
    """``to_wire`` and ``to_xml_and_wire`` must give exactly
    ``to_xml().encode("utf-8")`` — including for non-ASCII argument text,
    where the str/bytes length split matters."""

    @given(soap_operations, soap_namespaces, st.lists(soap_value, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_request_wire_matches_encoded_xml(self, operation, namespace, arguments):
        request = SoapRequest.for_call(operation, tuple(arguments), namespace=namespace)
        expected = request.to_xml().encode("utf-8")
        assert request.to_wire() == expected
        assert request.to_xml_and_wire() == (request.to_xml(), expected)

    @given(soap_operations, soap_namespaces, soap_value)
    @settings(max_examples=150, deadline=None)
    def test_response_wire_matches_encoded_xml(self, operation, namespace, value):
        response = SoapResponse.for_result(
            operation, value, infer_type(value), namespace=namespace
        )
        expected = response.to_xml().encode("utf-8")
        assert response.to_wire() == expected
        assert response.to_xml_and_wire() == (response.to_xml(), expected)

    def test_fault_response_wire_matches_encoded_xml(self):
        response = SoapResponse.for_fault("op", SoapFault.non_existent_method("op"))
        assert response.to_wire() == response.to_xml().encode("utf-8")


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


# ---------------------------------------------------------------------------
# Scheduler dispatch order under cancellation churn
# ---------------------------------------------------------------------------

#: One scheduled event: (delay-bucket, cancel-the-event-this-many-back).
_churn_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=80,
)


class TestSchedulerChurnProperties:
    @given(ops=_churn_ops)
    @settings(max_examples=120, deadline=None)
    def test_dispatch_order_matches_reference_under_cancellation(self, ops):
        """Pre-run cancels never perturb the (time, insertion) order of the
        survivors, and cancelled events never run."""
        scheduler = Scheduler()
        dispatched: list[int] = []
        events = []
        expected = []  # (time_bucket, insertion_index) of surviving events
        for index, (bucket, cancel_back) in enumerate(ops):
            event = scheduler.schedule(
                bucket * 0.125, lambda i=index: dispatched.append(i)
            )
            events.append((index, bucket, event))
            if cancel_back is not None and cancel_back <= len(events):
                events[-cancel_back][2].cancel()

        survivors = [
            (bucket, index) for index, bucket, event in events if not event.cancelled
        ]
        survivors.sort()
        scheduler.run_until_idle()
        assert dispatched == [index for _bucket, index in survivors]
        assert scheduler.pending_count == 0

    @given(ops=_churn_ops)
    @settings(max_examples=120, deadline=None)
    def test_pending_count_matches_live_scan(self, ops):
        """The O(1) counter agrees with an exhaustive pending scan after
        every schedule/cancel and after every dispatch."""
        scheduler = Scheduler()
        events = []
        for bucket, cancel_back in ops:
            events.append(scheduler.schedule(bucket * 0.125, lambda: None))
            if cancel_back is not None and cancel_back <= len(events):
                events[-cancel_back].cancel()
            assert scheduler.pending_count == sum(1 for e in events if e.pending)
        while scheduler.step():
            assert scheduler.pending_count == sum(1 for e in events if e.pending)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_mid_run_cancellation_matches_reference(self, ops):
        """Events cancelling *future* events mid-run behave exactly like a
        naive sorted-list reference scheduler."""

        # Reference: pick the lowest (time, seq) live event, run its effect.
        cancelled_ref = set()
        order_ref: list[int] = []
        reference = sorted(
            (bucket, index, ahead) for index, (bucket, ahead) in enumerate(ops)
        )
        done_ref = set()
        while True:
            candidate = next(
                (
                    entry
                    for entry in reference
                    if entry[1] not in done_ref and entry[1] not in cancelled_ref
                ),
                None,
            )
            if candidate is None:
                break
            _bucket, index, ahead = candidate
            done_ref.add(index)
            order_ref.append(index)
            if ahead is not None and index + ahead < len(ops):
                cancelled_ref.add(index + ahead)

        # Optimized scheduler, same semantics expressed through Event.cancel.
        scheduler = Scheduler()
        order: list[int] = []
        events: list = []

        def make_callback(index: int, ahead: int | None):
            def run() -> None:
                order.append(index)
                if ahead is not None and index + ahead < len(events):
                    events[index + ahead].cancel()

            return run

        for index, (bucket, ahead) in enumerate(ops):
            events.append(scheduler.schedule(bucket * 0.125, make_callback(index, ahead)))
        scheduler.run_until_idle()
        assert order == order_ref
