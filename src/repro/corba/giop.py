"""GIOP message framing over the simulated IIOP transport.

Only the two message kinds the RMI call path needs are implemented: Request
and Reply (§2.2 considers only the RMI aspect of CORBA).  Messages carry a
12-byte header (magic, version, message type, body size) followed by a CDR
body, mirroring real GIOP closely enough that sizes and parse costs behave
realistically while keeping the implementation compact.

Framing is one pass each way: the header is one ``struct`` record, and the
body's fixed fields (ids, length-prefixed strings and octet sequences) are
packed and unpacked in place, with no call per field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.errors import GiopError, MarshalError

_MAGIC = b"GIOP"
_VERSION = (1, 2)
#: magic, major, minor, flags (0 = big-endian), message type, body size.
_HEADER = struct.Struct(">4sBBBBI")
_HEADER_SIZE = _HEADER.size
_PACK_HEADER = _HEADER.pack
_PACK_ULONG = struct.Struct(">I").pack
_UNPACK_ULONG = struct.Struct(">I").unpack_from
_UNPACK_TWO_ULONGS = struct.Struct(">II").unpack_from


class MessageType(IntEnum):
    """GIOP message types used by the RMI call path."""

    REQUEST = 0
    REPLY = 1


class ReplyStatus(IntEnum):
    """Status of a GIOP Reply."""

    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2


_REQUEST = int(MessageType.REQUEST)
_REPLY = int(MessageType.REPLY)
_REPLY_STATUSES = {int(status): status for status in ReplyStatus}


@dataclass(frozen=True)
class RequestMessage:
    """A GIOP Request: invoke ``operation`` on the object named by ``object_key``."""

    request_id: int
    object_key: str
    operation: str
    arguments_cdr: bytes
    #: Optional service-context slot (OMG portable-interceptor style): an
    #: opaque payload — the observability layer's trace context — appended
    #: after the arguments.  Empty contexts are not framed at all, so a
    #: request without one is byte-identical to the historical encoding.
    service_context: bytes = b""

    def to_bytes(self) -> bytes:
        """Serialise header + body."""
        key = self.object_key.encode("utf-8")
        operation = self.operation.encode("utf-8")
        arguments = self.arguments_cdr
        context = self.service_context
        try:
            body = b"".join((
                _PACK_ULONG(self.request_id), _PACK_ULONG(len(key)), key,
                _PACK_ULONG(len(operation)), operation,
                _PACK_ULONG(len(arguments)), arguments,
            ))
        except struct.error as exc:
            raise MarshalError(f"GIOP request id out of range: {exc}") from None
        if context:
            body += _PACK_ULONG(len(context)) + context
        return _PACK_HEADER(_MAGIC, *_VERSION, 0, _REQUEST, len(body)) + body


@dataclass(frozen=True)
class ReplyMessage:
    """A GIOP Reply carrying a result or an exception."""

    request_id: int
    status: ReplyStatus
    body_cdr: bytes
    exception_type: str = ""
    exception_detail: str = ""

    def to_bytes(self) -> bytes:
        """Serialise header + body."""
        exception_type = self.exception_type.encode("utf-8")
        detail = self.exception_detail.encode("utf-8")
        result = self.body_cdr
        try:
            body = b"".join((
                _PACK_ULONG(self.request_id), _PACK_ULONG(self.status),
                _PACK_ULONG(len(exception_type)), exception_type,
                _PACK_ULONG(len(detail)), detail,
                _PACK_ULONG(len(result)), result,
            ))
        except struct.error as exc:
            raise MarshalError(f"GIOP reply id out of range: {exc}") from None
        return _PACK_HEADER(_MAGIC, *_VERSION, 0, _REPLY, len(body)) + body


def parse_message(data: bytes) -> RequestMessage | ReplyMessage:
    """Parse a framed GIOP message into a Request or Reply.

    Raises
    ------
    GiopError
        If the header is malformed, the size field disagrees with the
        payload, or the body cannot be unmarshalled.
    """
    end = len(data)
    if end < _HEADER_SIZE:
        raise GiopError(f"GIOP message too short: {end} bytes")
    magic, major, minor, _flags, message_type, size = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise GiopError(f"bad GIOP magic: {magic!r}")
    if (major, minor) != _VERSION:
        raise GiopError(f"unsupported GIOP version {major}.{minor}")
    if end - _HEADER_SIZE != size:
        raise GiopError(
            f"GIOP size field says {size} bytes but body has {end - _HEADER_SIZE}"
        )
    # Each field is a ulong length and that many bytes.  A length running
    # past the end makes the next unpack raise; the last field is checked.
    try:
        if message_type == _REQUEST:
            request_id, length = _UNPACK_TWO_ULONGS(data, 12)
            offset = 20 + length
            object_key = data[20:offset].decode("utf-8")
            start = offset + 4
            offset = start + _UNPACK_ULONG(data, offset)[0]
            operation = data[start:offset].decode("utf-8")
            start = offset + 4
            offset = start + _UNPACK_ULONG(data, offset)[0]
            arguments = data[start:offset]
            # The trailing service-context slot is optional: absent bytes
            # decode to an empty context (old peers, untraced requests).
            context = b""
            if offset < end:
                start = offset + 4
                offset = start + _UNPACK_ULONG(data, offset)[0]
                context = data[start:offset]
            if offset > end:
                raise MarshalError(f"field runs {offset - end} bytes past the message")
            return RequestMessage(request_id, object_key, operation, arguments, context)
        if message_type == _REPLY:
            request_id, status = _UNPACK_TWO_ULONGS(data, 12)
            reply_status = _REPLY_STATUSES.get(status)
            if reply_status is None:
                raise MarshalError(f"{status} is not a valid ReplyStatus")
            offset = 24 + _UNPACK_ULONG(data, 20)[0]
            exception_type = data[24:offset].decode("utf-8")
            start = offset + 4
            offset = start + _UNPACK_ULONG(data, offset)[0]
            detail = data[start:offset].decode("utf-8")
            start = offset + 4
            offset = start + _UNPACK_ULONG(data, offset)[0]
            if offset > end:
                raise MarshalError(f"field runs {offset - end} bytes past the message")
            return ReplyMessage(request_id, reply_status, data[start:offset], exception_type, detail)
    except (MarshalError, ValueError, struct.error) as exc:
        raise GiopError(f"malformed GIOP body: {exc}") from None
    raise GiopError(f"unknown GIOP message type {message_type}")
