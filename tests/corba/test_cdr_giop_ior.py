"""Tests for CDR marshalling, GIOP framing and IORs."""

import pytest

from repro.corba.cdr import (
    CdrInputStream,
    CdrOutputStream,
    marshal_values,
    unmarshal_values,
)
from repro.corba.giop import (
    MessageType,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    parse_message,
)
from repro.corba.ior import IOR
from repro.errors import GiopError, IorError, MarshalError


class TestCdrPrimitives:
    def test_long_roundtrip(self):
        assert unmarshal_values(marshal_values((-123456789,))) == [-123456789]

    def test_long_out_of_range(self):
        with pytest.raises(MarshalError):
            marshal_values((2 ** 70,))

    def test_ulong_roundtrip_and_range(self):
        out = CdrOutputStream()
        out.write_ulong(4_000_000_000)
        assert CdrInputStream(out.getvalue()).read_ulong() == 4_000_000_000
        with pytest.raises(MarshalError):
            CdrOutputStream().write_ulong(-1)

    def test_double_roundtrip(self):
        assert unmarshal_values(marshal_values((3.141592653589793,))) == [3.141592653589793]

    def test_string_roundtrip_including_unicode(self):
        out = CdrOutputStream()
        out.write_string("héllo wörld ✓")
        assert CdrInputStream(out.getvalue()).read_string() == "héllo wörld ✓"

    def test_bytes_roundtrip(self):
        out = CdrOutputStream()
        out.write_bytes(b"\x00\x01\xff")
        assert CdrInputStream(out.getvalue()).read_bytes() == b"\x00\x01\xff"

    def test_truncated_stream_rejected(self):
        out = CdrOutputStream()
        out.write_string("hello")
        data = out.getvalue()[:-2]
        with pytest.raises(MarshalError):
            CdrInputStream(data).read_string()


class TestCdrValues:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 42, -7, 3.5, "", "text",
        [1, 2, 3], ["a", ["b", "c"]],
        {"x": 1, "y": [True, None]},
        [{"street": "Main", "number": 3}],
    ])
    def test_tagged_value_roundtrip(self, value):
        assert unmarshal_values(marshal_values((value,))) == [value]

    def test_unsupported_value_rejected(self):
        with pytest.raises(MarshalError):
            marshal_values((object(),))

    def test_non_string_struct_keys_rejected(self):
        with pytest.raises(MarshalError):
            marshal_values(({1: "x"},))

    def test_marshal_values_roundtrip(self):
        values = (1, "two", [3.0], {"four": True})
        assert unmarshal_values(marshal_values(values)) == list(values)

    def test_trailing_bytes_rejected(self):
        data = marshal_values((1,)) + b"\x00"
        with pytest.raises(MarshalError):
            unmarshal_values(data)

    def test_unknown_tag_rejected(self):
        with pytest.raises(MarshalError):
            unmarshal_values(b"\x00\x00\x00\x01\x99")


class TestGiop:
    def test_request_roundtrip(self):
        request = RequestMessage(7, "Calculator", "add", marshal_values((2, 3)))
        parsed = parse_message(request.to_bytes())
        assert isinstance(parsed, RequestMessage)
        assert parsed.request_id == 7
        assert parsed.object_key == "Calculator"
        assert parsed.operation == "add"
        assert unmarshal_values(parsed.arguments_cdr) == [2, 3]

    def test_reply_roundtrip(self):
        reply = ReplyMessage(7, ReplyStatus.NO_EXCEPTION, marshal_values((5,)))
        parsed = parse_message(reply.to_bytes())
        assert isinstance(parsed, ReplyMessage)
        assert parsed.status == ReplyStatus.NO_EXCEPTION
        assert unmarshal_values(parsed.body_cdr) == [5]

    def test_exception_reply_roundtrip(self):
        reply = ReplyMessage(9, ReplyStatus.SYSTEM_EXCEPTION, b"", "BAD_OPERATION", "no such op")
        parsed = parse_message(reply.to_bytes())
        assert parsed.status == ReplyStatus.SYSTEM_EXCEPTION
        assert parsed.exception_type == "BAD_OPERATION"
        assert parsed.exception_detail == "no such op"

    def test_bad_magic_rejected(self):
        with pytest.raises(GiopError):
            parse_message(b"HTTP" + b"\x00" * 20)

    def test_truncated_message_rejected(self):
        with pytest.raises(GiopError):
            parse_message(b"GIOP")

    def test_size_mismatch_rejected(self):
        data = bytearray(RequestMessage(1, "k", "op", b"").to_bytes())
        data[8:12] = (999).to_bytes(4, "big")
        with pytest.raises(GiopError):
            parse_message(bytes(data))

    def test_wire_format_starts_with_magic_and_type(self):
        data = RequestMessage(1, "k", "op", b"").to_bytes()
        assert data[:4] == b"GIOP"
        assert data[7] == MessageType.REQUEST


class TestIor:
    def test_stringify_roundtrip(self):
        ior = IOR("IDL:repro/Calculator:1.0", "server", 9000, "Calculator")
        parsed = IOR.from_string(ior.stringify())
        assert parsed == ior

    def test_stringified_form_has_prefix(self):
        ior = IOR("IDL:x:1.0", "host", 1234, "key")
        assert ior.stringify().startswith("IOR:")
        assert str(ior) == ior.stringify()

    def test_whitespace_tolerated_when_parsing(self):
        ior = IOR("IDL:x:1.0", "host", 1234, "key")
        assert IOR.from_string("  " + ior.stringify() + "\n") == ior

    @pytest.mark.parametrize("bad", ["", "IOR:zzzz", "NOPE:abcd", "IOR:00"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(IorError):
            IOR.from_string(bad)

    def test_invalid_fields_rejected(self):
        with pytest.raises(IorError):
            IOR("IDL:x:1.0", "", 1234, "key")
        with pytest.raises(IorError):
            IOR("IDL:x:1.0", "host", 99999, "key")
        with pytest.raises(IorError):
            IOR("IDL:x:1.0", "host", 1234, "")
