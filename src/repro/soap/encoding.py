"""Encoding of RMI values to and from SOAP/XSD XML.

The WSDL standard "supports direct encoding of a small subset of Java object
types and permits the encoding of complex data structures using XML" (§2.1).
This module maps the shared RMI type model (:mod:`repro.rmitypes`) onto XML
Schema types and encodes/decodes Python values accordingly:

========================  =======================
RMI type                  XSD type
========================  =======================
``int``                   ``xsd:int``
``double``                ``xsd:double``
``float``                 ``xsd:float``
``boolean``               ``xsd:boolean``
``string``                ``xsd:string``
``char``                  ``xsd:string`` (length 1)
``T[]``                   ``soapenc:Array``
struct ``S``              ``tns:S`` complex type
========================  =======================

Values go straight between Python and text: :func:`encode_value` writes an
element's XML.  :func:`read_typed` reads it back from the text in exactly
the form :func:`encode_value` writes, and raises :class:`Unrecognised` at
anything else; :func:`decode_value` / :func:`decode_typed` read an
``xml.etree.ElementTree`` element, whatever form the text had.
"""

from __future__ import annotations

import re
from typing import Any
from xml.etree.ElementTree import Element

from repro.errors import SoapEncodingError
from repro.rmitypes import (
    PRIMITIVES,
    ArrayType,
    PrimitiveType,
    RmiType,
    StructType,
    TypeRegistry,
    TypeError_,
    parse_type,
)
from repro.xmlutil import text_of
from repro.xmlutil.serializer import escape_text

def encode_value(
    name: str,
    value: Any,
    rmi_type: RmiType,
    registry: TypeRegistry | None = None,
) -> str:
    """The XML of an element named ``name`` carrying ``value`` of ``rmi_type``.

    The element is unqualified and carries a ``type`` label, as do its items
    and fields.  Labels and names are identifiers, so only string data needs
    escaping.

    Raises
    ------
    repro.rmitypes.TypeError_
        Unless ``value`` conforms to ``rmi_type``.
    """
    rmi_type.validate(value, registry)
    return _encode(name, f'{name} type="{rmi_type.type_name}"', value, rmi_type)


def _encode(name: str, start: str, value: Any, rmi_type: RmiType) -> str:
    """The element opened by ``<start>`` and closed by ``</name>``."""
    if isinstance(rmi_type, PrimitiveType):
        kind = rmi_type.name
        if kind == "string" or kind == "char":
            content = escape_text(str(value))
        elif kind == "boolean":
            content = "true" if value else "false"
        elif kind == "void":
            content = ""
        else:
            content = str(value)
    elif isinstance(rmi_type, ArrayType):
        item_type = rmi_type.element_type
        label = item_type.type_name
        content = "".join(
            _encode("item", f'item index="{index}" type="{label}"', item, item_type)
            for index, item in enumerate(value)
        )
    elif isinstance(rmi_type, StructType):
        content = "".join(
            _encode(
                field.name,
                f'{field.name} type="{field.field_type.type_name}"',
                value[field.name],
                field.field_type,
            )
            for field in rmi_type.fields
        )
    else:
        raise SoapEncodingError(f"cannot encode value of type {rmi_type!r}")
    return f"<{start}>{content}</{name}>" if content else f"<{start}/>"


# -- reading the written form ---------------------------------------------------


class Unrecognised(Exception):
    """The text is not in the form the writer emits.

    Raised by :func:`read_typed` and :func:`unescape`, also for a value the
    type cannot decode; the caller then reads the text with ElementTree,
    which gives the same value or raises the error that applies.
    """


#: A value element's start tag as :func:`encode_value` writes it: the name,
#: an array item's ``index``, the type label, and ``/`` when it is empty.
_START = re.compile(
    r'<([A-Za-z_][A-Za-z0-9_]*)(?: index="[0-9]+")? type="([A-Za-z_][A-Za-z0-9_]*(?:\[\])*)"(/?)>'
)
#: The references :func:`~repro.xmlutil.serializer.escape_text` writes.
_REFERENCES = {"amp": "&", "lt": "<", "gt": ">", "#13": "\r"}


def unescape(text: str) -> str:
    """The character data that :func:`escape_text` wrote as ``text``.

    Raises :class:`Unrecognised` at any other ``&``.
    """
    if "&" not in text:
        return text
    head, *references = text.split("&")
    parts = [head]
    for reference in references:
        name, semicolon, rest = reference.partition(";")
        char = _REFERENCES.get(name)
        if char is None or not semicolon:
            raise Unrecognised
        parts += (char, rest)
    return "".join(parts)


def read_typed(
    text: str, position: int, registry: TypeRegistry | None = None
) -> tuple[Any, RmiType, int]:
    """Read the value element :func:`encode_value` wrote at ``text[position:]``.

    Returns ``(value, type, end)``: what :func:`decode_typed` gives for the
    element, and the position after it.  Nested elements must carry the
    names and labels the writer gives them, struct fields in declaration
    order.  The caller checks, once for the whole document, that it holds
    no ``]]>``, raw carriage return or character XML 1.0 cannot carry.

    Raises
    ------
    Unrecognised
        If the element is not in that form, or its label or a value does not
        decode.
    """
    match = _START.match(text, position)
    if match is None:
        raise Unrecognised
    label = match[2]
    rmi_type = PRIMITIVES.get(label)
    if rmi_type is None:
        try:
            rmi_type = parse_type(label, registry)
        except TypeError_:
            raise Unrecognised from None
    value, end = _read(text, match, rmi_type)
    return value, rmi_type, end


def _read(text: str, start: re.Match, rmi_type: RmiType) -> tuple[Any, int]:
    """The value of the element opened by ``start``, and the position after it."""
    end = start.end()
    empty = start[3]
    if isinstance(rmi_type, PrimitiveType):
        content = ""
        if not empty:
            stop = text.find("<", end)
            close = f"</{start[1]}>"
            if stop < 0 or not text.startswith(close, stop):
                raise Unrecognised
            content = text[end:stop]
            if "&" in content:
                content = unescape(content)
            end = stop + len(close)
        try:
            return _decode_primitive(content, rmi_type), end
        except SoapEncodingError:
            raise Unrecognised from None
    if isinstance(rmi_type, ArrayType):
        items: list[Any] = []
        if not empty:
            item_type = rmi_type.element_type
            while (item := _START.match(text, end)) is not None:
                value, end = _read(text, item, item_type)
                items.append(value)
            end = _closed(text, end, start[1])
        return items, end
    if isinstance(rmi_type, StructType):
        fields: dict[str, Any] = {}
        if empty:
            if rmi_type.fields:
                raise Unrecognised
            return fields, end
        for field_def in rmi_type.fields:
            field = _START.match(text, end)
            if field is None or field[1] != field_def.name:
                raise Unrecognised
            fields[field_def.name], end = _read(text, field, field_def.field_type)
        return fields, _closed(text, end, start[1])
    raise Unrecognised


def _closed(text: str, position: int, name: str) -> int:
    """The position after the end tag ``</name>`` at ``position``."""
    if position < 0 or not text.startswith(f"</{name}>", position):
        raise Unrecognised
    return position + len(name) + 3


# -- reading an element tree -------------------------------------------------------


def decode_value(
    element: Element,
    rmi_type: RmiType,
    registry: TypeRegistry | None = None,
) -> Any:
    """Decode the value carried by ``element`` according to ``rmi_type``."""
    if isinstance(rmi_type, PrimitiveType):
        return _decode_primitive(text_of(element), rmi_type)
    if isinstance(rmi_type, ArrayType):
        item_type = rmi_type.element_type
        return [decode_value(child, item_type, registry) for child in element]
    if isinstance(rmi_type, StructType):
        result: dict[str, Any] = {}
        for field_def in rmi_type.fields:
            child = element.find(field_def.name)
            if child is None:
                raise SoapEncodingError(
                    f"struct {rmi_type.name!r} is missing field {field_def.name!r}"
                )
            result[field_def.name] = decode_value(child, field_def.field_type, registry)
        return result
    raise SoapEncodingError(f"cannot decode value of type {rmi_type!r}")


def _decode_primitive(text: str, rmi_type: PrimitiveType) -> Any:
    try:
        if rmi_type.name == "void":
            return None
        if rmi_type.name in ("int", "double", "float") and "_" in text:
            # Python's digit separators are not XML Schema lexical forms.
            raise ValueError("'_' is not a digit")
        if rmi_type.name == "int":
            return int(text)
        if rmi_type.name in ("double", "float"):
            return float(text)
        if rmi_type.name == "boolean":
            if text not in ("true", "false", "1", "0"):
                raise ValueError(text)
            return text in ("true", "1")
        if rmi_type.name == "char":
            if len(text) != 1:
                raise ValueError(text)
            return text
        return text
    except ValueError as exc:
        raise SoapEncodingError(
            f"cannot decode {text!r} as {rmi_type.name}: {exc}"
        ) from None


def decode_typed(
    element: Element, registry: TypeRegistry | None = None
) -> tuple[Any, RmiType]:
    """Decode an element using its embedded ``type`` label: ``(value, type)``.

    This is the path the SDE SOAP Call Handler uses for incoming requests:
    the server does not trust the client's view of the interface, so it
    decodes what actually arrived and then matches it against the live
    interface (§5.1.3).
    """
    label = element.get("type")
    if label is None:
        raise SoapEncodingError(f"element {element.tag} carries no type attribute")
    rmi_type = parse_type(label, registry)
    return decode_value(element, rmi_type, registry), rmi_type
