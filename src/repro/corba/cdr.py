"""Common Data Representation (CDR) marshalling.

Values are marshalled into a compact, big-endian binary form.  Every value is
preceded by a one-octet type tag (in real CORBA terms, the values travel as
``any`` with an inline TypeCode); this self-describing encoding is what lets
the Dynamic Skeleton Interface on the server side unmarshal requests without
compile-time knowledge of the interface — exactly the property SDE relies on
to avoid re-initialising the server ORB when methods change (§5.2.2).

Values are encoded and decoded in one pass, one function call per value,
primitives packed in place.  The field-by-field streams, used for IORs,
carry only untagged unsigned longs, strings and byte sequences.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import MarshalError

# Type tags (one octet each).
TAG_NULL = 0x00
TAG_BOOLEAN = 0x01
TAG_INT = 0x02
TAG_DOUBLE = 0x03
TAG_STRING = 0x04
TAG_CHAR = 0x05
TAG_SEQUENCE = 0x06
TAG_STRUCT = 0x07
TAG_FLOAT = 0x08

# Prebound big-endian codecs: struct.Struct methods skip the per-call format
# parse/lookup of module-level struct.pack.
_LONG = struct.Struct(">q")
_ULONG = struct.Struct(">I")
_PACK_LONG = _LONG.pack
_PACK_ULONG = _ULONG.pack
_PACK_DOUBLE = struct.Struct(">d").pack
_UNPACK_LONG = _LONG.unpack_from
_UNPACK_ULONG = _ULONG.unpack_from
_UNPACK_DOUBLE = struct.Struct(">d").unpack_from
_UNPACK_FLOAT = struct.Struct(">f").unpack_from


def _truncated(data: bytes, offset: int, wanted: int) -> MarshalError:
    return MarshalError(
        f"unexpected end of CDR stream: wanted {wanted} bytes, "
        f"have {max(len(data) - offset, 0)}"
    )


# -- encoding --------------------------------------------------------------------


def _write_value(buffer: bytearray, value: Any) -> None:
    """Append ``value`` with its inline type tag to ``buffer``."""
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        buffer.append(TAG_STRING)
        buffer += _PACK_ULONG(len(encoded))
        buffer += encoded
    elif value is None:
        buffer.append(TAG_NULL)
    elif value is True:
        buffer.append(TAG_BOOLEAN)
        buffer.append(1)
    elif value is False:
        buffer.append(TAG_BOOLEAN)
        buffer.append(0)
    elif isinstance(value, int):
        buffer.append(TAG_INT)
        try:
            buffer += _PACK_LONG(value)
        except struct.error as exc:
            raise MarshalError(f"integer {value!r} does not fit in 64 bits: {exc}") from None
    elif isinstance(value, float):
        buffer.append(TAG_DOUBLE)
        buffer += _PACK_DOUBLE(value)
    elif isinstance(value, (list, tuple)):
        buffer.append(TAG_SEQUENCE)
        buffer += _PACK_ULONG(len(value))
        for item in value:
            _write_value(buffer, item)
    elif isinstance(value, dict):
        buffer.append(TAG_STRUCT)
        buffer += _PACK_ULONG(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError(f"struct field names must be strings, got {key!r}")
            encoded = key.encode("utf-8")
            buffer += _PACK_ULONG(len(encoded))
            buffer += encoded
            _write_value(buffer, item)
    else:
        raise MarshalError(f"cannot marshal value of type {type(value).__name__}")


def marshal_values(values: tuple[Any, ...] | list[Any]) -> bytes:
    """Marshal a sequence of values (an argument list or a single result)."""
    buffer = bytearray(_PACK_ULONG(len(values)))
    for value in values:
        _write_value(buffer, value)
    return bytes(buffer)


# -- decoding --------------------------------------------------------------------


def _read_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode the tagged value at ``offset``; return it and the offset after it.

    Truncation surfaces as ``IndexError``/``struct.error`` and bad UTF-8 as
    ``UnicodeDecodeError``; :func:`_read_values` maps both to
    :class:`MarshalError`.
    """
    tag = data[offset]
    offset += 1
    if tag == TAG_STRING or tag == TAG_CHAR:
        start = offset + 4
        end = start + _UNPACK_ULONG(data, offset)[0]
        if end > len(data):
            raise _truncated(data, start, end - start)
        return data[start:end].decode("utf-8"), end
    if tag == TAG_INT:
        return _UNPACK_LONG(data, offset)[0], offset + 8
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_BOOLEAN:
        return data[offset] != 0, offset + 1
    if tag == TAG_DOUBLE:
        return _UNPACK_DOUBLE(data, offset)[0], offset + 8
    if tag == TAG_FLOAT:
        return _UNPACK_FLOAT(data, offset)[0], offset + 4
    if tag == TAG_SEQUENCE:
        count = _UNPACK_ULONG(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _read_value(data, offset)
            items.append(item)
        return items, offset
    if tag == TAG_STRUCT:
        count = _UNPACK_ULONG(data, offset)[0]
        offset += 4
        fields: dict[str, Any] = {}
        for _ in range(count):
            start = offset + 4
            offset = start + _UNPACK_ULONG(data, offset)[0]
            if offset > len(data):
                raise _truncated(data, start, offset - start)
            key = data[start:offset].decode("utf-8")
            fields[key], offset = _read_value(data, offset)
        return fields, offset
    raise MarshalError(f"unknown CDR type tag 0x{tag:02x}")


def _read_values(data: bytes, offset: int, count: int) -> tuple[list[Any], int]:
    """Decode ``count`` tagged values from ``offset``; return them and the
    offset after the last, raising :class:`MarshalError` on malformed input."""
    values = []
    try:
        for _ in range(count):
            value, offset = _read_value(data, offset)
            values.append(value)
    except (IndexError, struct.error):
        raise _truncated(data, offset, 1) from None
    except UnicodeDecodeError as exc:
        raise MarshalError(f"malformed string in CDR stream: {exc}") from None
    return values, offset


def unmarshal_values(data: bytes) -> list[Any]:
    """Unmarshal a sequence of values written by :func:`marshal_values`."""
    if len(data) < 4:
        raise _truncated(data, 0, 4)
    values, offset = _read_values(data, 4, _UNPACK_ULONG(data, 0)[0])
    if offset != len(data):
        raise MarshalError(f"{len(data) - offset} trailing bytes after CDR values")
    return values


# -- field-by-field cursors ------------------------------------------------------


class CdrOutputStream:
    """An output buffer for CDR marshalling, one field at a time."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def write_ulong(self, value: int) -> None:
        """Write an unsigned 32-bit integer (lengths, counts)."""
        if value < 0 or value > 0xFFFFFFFF:
            raise MarshalError(f"unsigned long out of range: {value!r}")
        self._buffer += _PACK_ULONG(value)

    def write_string(self, value: str) -> None:
        """Write a length-prefixed UTF-8 string."""
        self.write_bytes(value.encode("utf-8"))

    def write_bytes(self, value: bytes) -> None:
        """Write a length-prefixed byte sequence."""
        buffer = self._buffer
        buffer += _PACK_ULONG(len(value))
        buffer += value

    def getvalue(self) -> bytes:
        """Return the marshalled bytes."""
        return bytes(self._buffer)


class CdrInputStream:
    """A read cursor over CDR bytes, one field at a time."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _unpack(self, codec: struct.Struct) -> Any:
        try:
            value = codec.unpack_from(self._data, self._offset)[0]
        except struct.error:
            raise _truncated(self._data, self._offset, codec.size) from None
        self._offset += codec.size
        return value

    def read_ulong(self) -> int:
        """Read an unsigned 32-bit integer."""
        return self._unpack(_ULONG)

    def read_bytes(self) -> bytes:
        """Read a length-prefixed byte sequence."""
        length = self.read_ulong()
        start = self._offset
        end = start + length
        if end > len(self._data):
            raise _truncated(self._data, start, length)
        self._offset = end
        return self._data[start:end]

    def read_string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"malformed string in CDR stream: {exc}") from None
