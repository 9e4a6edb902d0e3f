"""Common Data Representation (CDR) marshalling.

Values are marshalled into a compact, big-endian binary form.  Every value is
preceded by a one-octet type tag (in real CORBA terms, the values travel as
``any`` with an inline TypeCode); this self-describing encoding is what lets
the Dynamic Skeleton Interface on the server side unmarshal requests without
compile-time knowledge of the interface — exactly the property SDE relies on
to avoid re-initialising the server ORB when methods change (§5.2.2).
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

_TAG_NAMES = {
    TAG_NULL: "null",
    TAG_BOOLEAN: "boolean",
    TAG_INT: "long",
    TAG_DOUBLE: "double",
    TAG_FLOAT: "float",
    TAG_STRING: "string",
    TAG_CHAR: "char",
    TAG_SEQUENCE: "sequence",
    TAG_STRUCT: "struct",
}

# Prebound big-endian packers: struct.Struct methods skip the per-call format
# parse/lookup of module-level struct.pack, and the GIOP hot loop marshals
# hundreds of thousands of values per fleet sweep.
_PACK_LONG = struct.Struct(">q").pack
_PACK_ULONG = struct.Struct(">I").pack
_PACK_DOUBLE = struct.Struct(">d").pack
_UNPACK_LONG = struct.Struct(">q").unpack_from
_UNPACK_ULONG = struct.Struct(">I").unpack_from
_UNPACK_DOUBLE = struct.Struct(">d").unpack_from
_UNPACK_FLOAT = struct.Struct(">f").unpack_from

#: Default preallocation for output buffers; RMI argument lists and results
#: almost always fit, so the bytearray never reallocates mid-marshal.
_DEFAULT_BUFFER_SIZE = 256


class CdrOutputStream:
    """An output buffer for CDR marshalling.

    Backed by one growable ``bytearray`` (pre-sized for the common small
    message) rather than a list of ``bytes`` fragments, so marshalling a
    value appends in place instead of allocating a fragment per primitive
    and joining at the end.
    """

    __slots__ = ("_buffer",)

    def __init__(self, expected_size: int = _DEFAULT_BUFFER_SIZE) -> None:
        buffer = bytearray(expected_size)
        del buffer[:]  # keep the allocation, drop the contents
        self._buffer = buffer

    # -- primitives --------------------------------------------------------

    def write_long(self, value: int) -> None:
        """Write a signed 64-bit integer."""
        try:
            self._buffer += _PACK_LONG(value)
        except struct.error as exc:
            raise MarshalError(f"integer {value!r} does not fit in 64 bits: {exc}") from None

    def write_ulong(self, value: int) -> None:
        """Write an unsigned 32-bit integer (lengths, counts)."""
        if value < 0 or value > 0xFFFFFFFF:
            raise MarshalError(f"unsigned long out of range: {value!r}")
        self._buffer += _PACK_ULONG(value)

    def write_double(self, value: float) -> None:
        """Write a 64-bit IEEE double."""
        self._buffer += _PACK_DOUBLE(float(value))

    def write_string(self, value: str) -> None:
        """Write a length-prefixed UTF-8 string."""
        encoded = value.encode("utf-8")
        buffer = self._buffer
        buffer += _PACK_ULONG(len(encoded))
        buffer += encoded

    def write_bytes(self, value: bytes) -> None:
        """Write a length-prefixed byte sequence."""
        buffer = self._buffer
        buffer += _PACK_ULONG(len(value))
        buffer += value

    # -- values -------------------------------------------------------------

    def write_value(self, value: Any) -> None:
        """Marshal ``value`` with an inline type tag."""
        buffer = self._buffer
        if value is None:
            buffer.append(TAG_NULL)
        elif value is True:
            buffer.append(TAG_BOOLEAN)
            buffer.append(1)
        elif value is False:
            buffer.append(TAG_BOOLEAN)
            buffer.append(0)
        elif isinstance(value, int):
            buffer.append(TAG_INT)
            self.write_long(value)
        elif isinstance(value, float):
            buffer.append(TAG_DOUBLE)
            buffer += _PACK_DOUBLE(value)
        elif isinstance(value, str):
            buffer.append(TAG_STRING)
            self.write_string(value)
        elif isinstance(value, (list, tuple)):
            buffer.append(TAG_SEQUENCE)
            buffer += _PACK_ULONG(len(value))
            for item in value:
                self.write_value(item)
        elif isinstance(value, dict):
            buffer.append(TAG_STRUCT)
            buffer += _PACK_ULONG(len(value))
            for key in value:
                if not isinstance(key, str):
                    raise MarshalError(f"struct field names must be strings, got {key!r}")
                self.write_string(key)
                self.write_value(value[key])
        else:
            raise MarshalError(f"cannot marshal value of type {type(value).__name__}")

    def getvalue(self) -> bytes:
        """Return the marshalled bytes."""
        return bytes(self._buffer)


class CdrInputStream:
    """An input buffer for CDR unmarshalling.

    Reads decode in place with prebound ``unpack_from`` callables — no
    per-read slice for fixed-width primitives.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._offset

    def _take(self, count: int) -> bytes:
        offset = self._offset
        end = offset + count
        if end > len(self._data):
            raise MarshalError(
                f"unexpected end of CDR stream: wanted {count} bytes, have {self.remaining}"
            )
        self._offset = end
        return self._data[offset:end]

    def _advance(self, count: int) -> int:
        offset = self._offset
        if offset + count > len(self._data):
            raise MarshalError(
                f"unexpected end of CDR stream: wanted {count} bytes, have {self.remaining}"
            )
        self._offset = offset + count
        return offset

    # -- primitives ----------------------------------------------------------

    def read_octet(self) -> int:
        """Read a single unsigned byte."""
        return self._data[self._advance(1)]

    def read_long(self) -> int:
        """Read a signed 64-bit integer."""
        return _UNPACK_LONG(self._data, self._advance(8))[0]

    def read_ulong(self) -> int:
        """Read an unsigned 32-bit integer."""
        return _UNPACK_ULONG(self._data, self._advance(4))[0]

    def read_double(self) -> float:
        """Read a 64-bit IEEE double."""
        return _UNPACK_DOUBLE(self._data, self._advance(8))[0]

    def read_float(self) -> float:
        """Read a 32-bit IEEE float."""
        return _UNPACK_FLOAT(self._data, self._advance(4))[0]

    def read_boolean(self) -> bool:
        """Read a boolean octet."""
        return self.read_octet() != 0

    def read_string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        length = self.read_ulong()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"malformed string in CDR stream: {exc}") from None

    def read_bytes(self) -> bytes:
        """Read a length-prefixed byte sequence."""
        return self._take(self.read_ulong())

    # -- values ---------------------------------------------------------------

    def read_value(self) -> Any:
        """Unmarshal one tagged value."""
        tag = self.read_octet()
        if tag == TAG_NULL:
            return None
        if tag == TAG_BOOLEAN:
            return self.read_boolean()
        if tag == TAG_INT:
            return self.read_long()
        if tag == TAG_DOUBLE:
            return self.read_double()
        if tag == TAG_FLOAT:
            return self.read_float()
        if tag == TAG_STRING:
            return self.read_string()
        if tag == TAG_CHAR:
            return self.read_string()
        if tag == TAG_SEQUENCE:
            count = self.read_ulong()
            return [self.read_value() for _ in range(count)]
        if tag == TAG_STRUCT:
            count = self.read_ulong()
            result: dict[str, Any] = {}
            for _ in range(count):
                key = self.read_string()
                result[key] = self.read_value()
            return result
        raise MarshalError(f"unknown CDR type tag 0x{tag:02x}")


def marshal_values(values: tuple[Any, ...] | list[Any]) -> bytes:
    """Marshal a sequence of values (an argument list or a single result)."""
    stream = CdrOutputStream()
    stream.write_ulong(len(values))
    for value in values:
        stream.write_value(value)
    return stream.getvalue()


def unmarshal_values(data: bytes) -> list[Any]:
    """Unmarshal a sequence of values written by :func:`marshal_values`."""
    stream = CdrInputStream(data)
    count = stream.read_ulong()
    values = [stream.read_value() for _ in range(count)]
    if stream.remaining:
        raise MarshalError(f"{stream.remaining} trailing bytes after CDR values")
    return values
