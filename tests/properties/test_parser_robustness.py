"""Robustness of the one-pass wire parsers against damaged input.

GIOP framing, CDR values and HTTP messages are decoded in place, with
``struct`` and slicing instead of a checked read per field.  Whatever the
damage, each parser must either return a message or raise its own layer's
error (:class:`GiopError`, :class:`MarshalError`, :class:`HttpError`), never
an ``IndexError``, ``struct.error`` or ``UnicodeDecodeError`` from inside.
Every prefix of a valid message, and every single-byte change to one, is
tried.  HTTP heads are split once per distinct head and remembered; on the
same damaged messages the memoised parser must give exactly the fields, or
the error text, of the per-message split it replaced, kept here as the
reference.  The values nest three levels deep and draw their text from the
codec alphabets: tab, newline, carriage return and non-BMP characters.

SOAP envelopes are read by a scan of the form the envelope writer emits
for requests and value responses, which hands any other text (Fault replies
too) to the ElementTree reference reader.  The
envelope properties are differential: on written envelopes, their prefixes
and their single-character changes, whatever the scan accepts must read
exactly as the reference reads it (the same envelope, where the reference
raises nothing).  Their text adds markup (``& < > ]]> "``) and C0 controls.
"""

from __future__ import annotations

from typing import Callable

from hypothesis import given, settings, strategies as st

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.corba.giop import ReplyMessage, ReplyStatus, RequestMessage, parse_message
from repro.errors import GiopError, HttpError, MarshalError, ReproError
from repro.net.http.messages import HttpRequest, HttpResponse
from repro.rmitypes import (
    BOOLEAN,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    STRING,
    ArrayType,
    FieldDef,
    PrimitiveType,
    StructType,
    TypeRegistry,
)
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault
from repro.xmlutil import Namespaces

#: Any character but a surrogate (UTF-8 cannot encode one), with the
#: characters the codecs escape or frame by drawn often.
codec_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from("\t\n\r\U0001F600\U00010348"),
    ),
    max_size=6,
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    codec_text,
)


def _nested(depth: int) -> st.SearchStrategy:
    """Values whose every branch is a sequence or struct ``depth`` levels deep."""
    if depth == 0:
        return scalars
    inner = _nested(depth - 1)
    return st.one_of(
        st.lists(inner, min_size=1, max_size=2),
        st.dictionaries(codec_text, inner, min_size=1, max_size=2),
    )


values = st.lists(st.one_of(scalars, _nested(3)), max_size=2)


def _damaged(data: bytes):
    """Every proper prefix of ``data`` and every single-byte change to it."""
    for end in range(len(data)):
        yield data[:end]
    for index, original in enumerate(data):
        for byte in range(256):
            if byte != original:
                yield data[:index] + bytes((byte,)) + data[index + 1 :]


def _survives_damage(parse: Callable[[bytes], object], data: bytes, error: type) -> None:
    for damaged in _damaged(data):
        try:
            parse(damaged)
        except error:
            pass


@settings(max_examples=15, deadline=None)
@given(values)
def test_unmarshal_values_raises_only_marshal_errors(arguments):
    data = marshal_values(arguments)
    assert unmarshal_values(data) == arguments
    _survives_damage(unmarshal_values, data, MarshalError)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    codec_text,
    codec_text,
    values,
    st.binary(max_size=4),
)
def test_giop_request_parser_raises_only_giop_errors(request_id, key, operation, arguments,
                                                     context):
    request = RequestMessage(request_id, key, operation, marshal_values(arguments), context)
    data = request.to_bytes()
    assert parse_message(data) == request
    _survives_damage(parse_message, data, GiopError)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(ReplyStatus),
    values,
    codec_text,
    codec_text,
)
def test_giop_reply_parser_raises_only_giop_errors(request_id, status, result, name, detail):
    reply = ReplyMessage(request_id, status, marshal_values(result), name, detail)
    data = reply.to_bytes()
    assert parse_message(data) == reply
    _survives_damage(parse_message, data, GiopError)


header_names = st.from_regex(r"[A-Za-z][A-Za-z-]{0,8}", fullmatch=True)
header_values = st.from_regex(r"[!-~]([ -~]{0,8}[!-~])?", fullmatch=True)
headers = st.dictionaries(header_names, header_values, max_size=2)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"]),
    st.from_regex(r"/[a-z0-9/?=]{0,8}", fullmatch=True),
    headers,
    codec_text,
)
def test_http_request_parser_raises_only_http_errors(method, path, fields, body):
    data = HttpRequest(method, path, fields, body).to_bytes()
    assert HttpRequest.from_bytes(data).body == body
    _survives_damage(HttpRequest.from_bytes, data, HttpError)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([200, 400, 404, 500, 503]), headers, codec_text)
def test_http_response_parser_raises_only_http_errors(status, fields, body):
    data = HttpResponse(status, fields, body).to_bytes()
    parsed = HttpResponse.from_bytes(data)
    assert (parsed.status, parsed.body) == (status, body)
    _survives_damage(HttpResponse.from_bytes, data, HttpError)


# -- HTTP heads: the memoised parse against the per-message split ---------------------


def _reference_decode(data: bytes, what: str) -> tuple[str, dict[str, str], str]:
    """The per-message split the memoised head parse replaced: start line,
    title-cased headers and body, every head split and checked anew."""
    end = data.find(b"\r\n\r\n")
    try:
        if end < 0:
            data.decode("utf-8")
            raise HttpError(f"HTTP {what} is missing the header/body separator")
        head = data[:end].decode("utf-8")
        body = data[end + 4 :]
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HttpError(f"HTTP {what} is not valid UTF-8: {exc}") from None
    lines = head.split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpError(f"malformed header line: {line!r}")
        headers[name.strip().title()] = value.strip()
    length = headers.get("Content-Length")
    if length is not None and not (
        length.isascii() and length.isdigit() and int(length) == len(body)
    ):
        raise HttpError(
            f"HTTP {what} Content-Length {length!r} does not match "
            f"its {len(body)}-byte body"
        )
    return lines[0], headers, text


def _reference_request(data: bytes) -> tuple:
    start, headers, body = _reference_decode(data, "request")
    parts = start.split(" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line: {start!r}")
    method, path, version = parts
    method = method.upper()
    if method not in {"GET", "POST", "PUT", "DELETE", "HEAD"}:
        raise HttpError(f"unsupported HTTP method {method!r}")
    if not path.startswith("/"):
        raise HttpError(f"request path must start with '/', got {path!r}")
    return method, path, version, headers, body


def _reference_response(data: bytes) -> tuple:
    start, headers, body = _reference_decode(data, "response")
    parts = start.split(" ", 2)
    if len(parts) < 2:
        raise HttpError(f"malformed status line: {start!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(f"malformed status code: {parts[1]!r}") from None
    return status, parts[0], headers, body


def _outcome(parse: Callable[[bytes], tuple], data: bytes) -> tuple:
    try:
        return ("parsed", parse(data))
    except HttpError as exc:
        return ("error", str(exc))


def _request_fields(data: bytes) -> tuple:
    request = HttpRequest.from_bytes(data)
    return request.method, request.path, request.http_version, request.headers, request.body


def _response_fields(data: bytes) -> tuple:
    response = HttpResponse.from_bytes(data)
    return response.status, response.http_version, response.headers, response.body


def _matches_reference(parse: Callable[[bytes], tuple], reference: Callable[[bytes], tuple],
                       data: bytes) -> None:
    """``parse`` gives the reference's fields or error text on ``data``, its
    prefixes and single-byte changes, each parsed twice (a memo miss, then
    most likely a hit).  Each is also tried with one more body byte, which
    adds a ``Content-Length`` mismatch (``x``) or invalid UTF-8 in the body
    (``\xff``) to its fault, so the order of the checks is compared too."""
    for damaged in (data, *_damaged(data)):
        for message in (damaged, damaged + b"x", damaged + b"\xff"):
            expected = _outcome(reference, message)
            assert _outcome(parse, message) == expected, message
            assert _outcome(parse, message) == expected, message


@settings(max_examples=4, deadline=None)
@given(
    st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"]),
    st.from_regex(r"/[a-z0-9/?=]{0,8}", fullmatch=True),
    headers,
    codec_text,
)
def test_http_request_head_memo_matches_the_per_message_split(method, path, fields, body):
    data = HttpRequest(method, path, fields, body).to_bytes()
    _matches_reference(_request_fields, _reference_request, data)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([200, 400, 404, 500, 503]), headers, codec_text)
def test_http_response_head_memo_matches_the_per_message_split(status, fields, body):
    data = HttpResponse(status, fields, body).to_bytes()
    _matches_reference(_response_fields, _reference_response, data)


# -- SOAP envelopes: the written-form scan against the ElementTree reference ----------

#: Markup, the characters the writer escapes, and C0 controls (which no
#: envelope may carry).
_MARKUP = ("&", "<", ">", "]]>", '"', "\t", "\n", "\r", "\x00", "\x01", "\x0b", "\x1f",
           "\ufffe", "\U0001F600")
envelope_text = st.lists(
    st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(_MARKUP)), max_size=5
).map("".join)

LEAF = StructType("Leaf", (FieldDef("text", STRING), FieldDef("number", INT), FieldDef("letter", CHAR)))
BRANCH = StructType("Branch", (FieldDef("leaves", ArrayType(LEAF)), FieldDef("flag", BOOLEAN)))
TREE = StructType("Tree", (FieldDef("branches", ArrayType(BRANCH)), FieldDef("ratio", DOUBLE)))
ENVELOPE_TYPES = TypeRegistry([LEAF, BRANCH, TREE])
_TYPES = (INT, DOUBLE, FLOAT, BOOLEAN, STRING, CHAR, ArrayType(ArrayType(ArrayType(STRING))),
          LEAF, BRANCH, TREE)


def _values_of(rmi_type) -> st.SearchStrategy:
    if isinstance(rmi_type, ArrayType):
        return st.lists(_values_of(rmi_type.element_type), max_size=2)
    if isinstance(rmi_type, StructType):
        return st.fixed_dictionaries(
            {field.name: _values_of(field.field_type) for field in rmi_type.fields}
        )
    assert isinstance(rmi_type, PrimitiveType)
    return {
        "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
        "double": st.floats(allow_nan=False),
        "float": st.floats(allow_nan=False),
        "boolean": st.booleans(),
        "string": envelope_text,
        "char": st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from("&<>\x01")),
    }[rmi_type.name]


typed_values = st.sampled_from(_TYPES).flatmap(
    lambda rmi_type: st.tuples(st.just(rmi_type), _values_of(rmi_type))
)
namespaces = st.one_of(
    st.sampled_from(["urn:repro", "urn:repro:Echo", Namespaces.XSD, Namespaces.SOAP_ENVELOPE, ""]),
    envelope_text,
)
local_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
trace_contexts = st.one_of(st.none(), envelope_text)


@st.composite
def envelopes(draw) -> SoapRequest | SoapResponse:
    """A request (maybe traced), a response or a fault, values three deep."""
    kind = draw(st.sampled_from(["request", "response", "fault"]))
    if kind == "request":
        arguments = draw(st.lists(typed_values, max_size=2))
        return SoapRequest(
            draw(local_names),
            tuple(value for _type, value in arguments),
            tuple(rmi_type for rmi_type, _value in arguments),
            namespace=draw(namespaces),
            trace_context=draw(trace_contexts),
        )
    if kind == "response":
        rmi_type, value = draw(typed_values)
        return SoapResponse.for_result(draw(local_names), value, rmi_type, draw(namespaces))
    fault = SoapFault(draw(envelope_text), draw(envelope_text), draw(envelope_text))
    return SoapResponse.for_fault("", fault)


#: The reference readers, kept before any test swaps them out.
_REFERENCE = {SoapRequest: SoapRequest._from_tree, SoapResponse: SoapResponse._from_tree}
_DECLINED = object()


def _decline(cls, _text, _registry):
    return _DECLINED


def _reference_reading(cls, text: str) -> str:
    try:
        return repr(_REFERENCE[cls](text, ENVELOPE_TYPES))
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def _scan_agrees(cls, texts) -> int:
    """Assert that each text the written-form scan accepts reads as the
    reference reads it; return how many it accepted."""
    accepted = 0
    reference = cls.__dict__["_from_tree"]
    try:
        cls._from_tree = classmethod(_decline)
        for text in texts:
            read = cls.from_xml(text, ENVELOPE_TYPES)
            if read is not _DECLINED:
                accepted += 1
                assert repr(read) == _reference_reading(cls, text), text
    finally:
        cls._from_tree = reference
    return accepted


@settings(max_examples=60, deadline=None)
@given(envelopes(), st.data())
def test_envelope_scan_reads_as_the_reference(envelope, data):
    # The writer's text before its XML 1.0 check, so values with a C0
    # control give a document both readers must refuse.
    text = envelope._document()
    cls = type(envelope)
    changes = data.draw(
        st.lists(st.tuples(st.integers(0, len(text) - 1), st.sampled_from(_MARKUP)), max_size=8)
    )
    damaged = [text[:index] + char + text[index + 1 :] for index, char in changes]
    _scan_agrees(cls, [text, *(text[:end] for end in range(len(text))), *damaged])


#: Written envelopes each character of which is changed to every code
#: point below 256: a traced request with escapes and nested values, and a
#: response.  (The scan leaves every Fault to the reference reader.)
_EXHAUSTIVE = (
    SoapRequest(
        "go",
        ({"leaves": [{"text": "a&<b", "number": -7, "letter": ">"}], "flag": True},),
        (BRANCH,),
        namespace="urn:x",
        trace_context="t\r",
    ),
    SoapResponse.for_result("go", [["x"], []], ArrayType(ArrayType(STRING)), "urn:x"),
)


def test_envelope_scan_reads_every_single_character_change_as_the_reference():
    for envelope in _EXHAUSTIVE:
        text = envelope.to_xml()
        changed = (
            text[:index] + chr(code) + text[index + 1 :]
            for index in range(len(text))
            for code in range(256)
            if chr(code) != text[index]
        )
        prefixes = (text[:end] for end in range(len(text)))
        assert _scan_agrees(type(envelope), [text]) == 1
        assert _scan_agrees(type(envelope), prefixes) == 0
        assert _scan_agrees(type(envelope), changed) > 0
