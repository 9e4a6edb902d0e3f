"""Robustness of the one-pass wire parsers against damaged input.

GIOP framing, CDR values and HTTP messages are decoded in place, with
``struct`` and slicing instead of a checked read per field.  Whatever the
damage, each parser must either return a message or raise its own layer's
error (:class:`GiopError`, :class:`MarshalError`, :class:`HttpError`), never
an ``IndexError``, ``struct.error`` or ``UnicodeDecodeError`` from inside.
Every prefix of a valid message, and every single-byte change to one, is
tried.  The values nest three levels deep and draw their text from the
codec alphabets: tab, newline, carriage return and non-BMP characters.
"""

from __future__ import annotations

from typing import Callable

from hypothesis import given, settings, strategies as st

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.corba.giop import ReplyMessage, ReplyStatus, RequestMessage, parse_message
from repro.errors import GiopError, HttpError, MarshalError
from repro.net.http.messages import HttpRequest, HttpResponse

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
