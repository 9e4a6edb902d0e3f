"""Round-trip properties over the whole value domain of each wire format.

``test_roundtrip_properties.py`` checks the round trips on everyday values
and field by field.  These properties widen both sides:

* CDR marshalling round-trips any text and every 64-bit integer and double,
  nested in sequences and structs with arbitrary member names;
* a SOAP envelope read back from its text equals the envelope written, in
  every field (namespace and inferred types included), for any operation
  name, any string XML 1.0 can carry and homogeneous arrays of every
  primitive type.

The wire-equals-encoded-text checks, the CDR golden bytes and the
scheduler churn properties live in ``test_roundtrip_properties.py``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.rmitypes import infer_type
from repro.soap.envelope import SoapRequest, SoapResponse

# ---------------------------------------------------------------------------
# CDR
# ---------------------------------------------------------------------------

_cdr_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCdrProperties:
    @given(values=st.lists(_cdr_value, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_marshal_roundtrip(self, values):
        assert unmarshal_values(marshal_values(tuple(values))) == list(values)


# ---------------------------------------------------------------------------
# SOAP envelopes
# ---------------------------------------------------------------------------

#: Every string XML 1.0 can carry: the other C0 controls, U+FFFE and U+FFFF
#: are refused by the encoder (tested in ``tests/soap``).
_xml_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff"),
        st.sampled_from("\t\n\r"),
    ),
    max_size=40,
)
_int = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_float = st.floats(allow_nan=False, allow_infinity=False, width=32)
# Arrays must be homogeneous: infer_type derives the element type from the
# first item and the encoder rejects mixed lists.
_value = st.one_of(
    _int,
    st.booleans(),
    _xml_text,
    _float,
    st.lists(_int, min_size=1, max_size=5),
    st.lists(st.booleans(), min_size=1, max_size=5),
    st.lists(_xml_text, min_size=1, max_size=5),
    st.lists(_float, min_size=1, max_size=5),
)
_operation = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True)
_namespace = st.sampled_from(
    ["urn:sde:EchoService", "urn:repro", "urn:x-test:service", "http://example.org/ns"]
)


class TestEnvelopeRoundTripProperties:
    @given(operation=_operation, namespace=_namespace, arguments=st.lists(_value, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_request_roundtrips(self, operation, namespace, arguments):
        request = SoapRequest.for_call(operation, tuple(arguments), namespace=namespace)
        assert SoapRequest.from_xml(request.to_xml()) == request

    @given(operation=_operation, namespace=_namespace, value=_value)
    @settings(max_examples=150, deadline=None)
    def test_response_roundtrips(self, operation, namespace, value):
        response = SoapResponse.for_result(
            operation, value, infer_type(value), namespace=namespace
        )
        assert SoapResponse.from_xml(response.to_xml()) == response
