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
element's XML, and :func:`decode_value` / :func:`decode_typed` read an
``xml.etree.ElementTree`` element.
"""

from __future__ import annotations

from typing import Any
from xml.etree.ElementTree import Element

from repro.errors import SoapEncodingError
from repro.rmitypes import (
    ArrayType,
    PrimitiveType,
    RmiType,
    StructType,
    TypeRegistry,
    parse_type,
)
from repro.xmlutil import Namespaces, QName, text_of
from repro.xmlutil.serializer import escape_text

_XSD_BY_PRIMITIVE = {
    "int": "int",
    "double": "double",
    "float": "float",
    "boolean": "boolean",
    "string": "string",
    "char": "string",
    "void": "anyType",
}


def xsd_qname(rmi_type: RmiType, target_namespace: str) -> QName:
    """Return the XSD (or target-namespace) QName describing ``rmi_type``."""
    if isinstance(rmi_type, PrimitiveType):
        return QName(Namespaces.XSD, _XSD_BY_PRIMITIVE[rmi_type.name])
    if isinstance(rmi_type, ArrayType):
        return QName(Namespaces.SOAP_ENCODING, "Array")
    if isinstance(rmi_type, StructType):
        return QName(target_namespace, rmi_type.name)
    raise SoapEncodingError(f"cannot map {rmi_type!r} to an XSD type")


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
