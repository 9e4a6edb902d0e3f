"""Parsing a WSDL document back into an :class:`InterfaceDescription`.

This is the client-side half of the round trip (the ``WSDL Compiler`` box in
Figure 1): CDE fetches the published WSDL over HTTP, parses it with this
module and hands the resulting description to the stub compiler.
"""

from __future__ import annotations

import functools
from xml.etree.ElementTree import Element

from repro.errors import WsdlError, XmlError
from repro.interface import (
    DESCRIPTION_MEMO_SIZE,
    InterfaceDescription,
    OperationSignature,
    Parameter,
)
from repro.rmitypes import StructType, TypeRegistry, parse_type, resolve_structs
from repro.xmlutil import Namespaces, parse

#: Clark-notation prefixes of the WSDL, WSDL-SOAP and XSD namespaces.
_WSDL = f"{{{Namespaces.WSDL}}}"
_SOAP = f"{{{Namespaces.WSDL_SOAP}}}"
_XSD = f"{{{Namespaces.XSD}}}"


@functools.lru_cache(maxsize=DESCRIPTION_MEMO_SIZE)
def parse_wsdl(text: str) -> InterfaceDescription:
    """Parse a WSDL document and return the interface it describes.

    Parses are memoised by document text (see :data:`DESCRIPTION_MEMO_SIZE`),
    so every client that fetched the same published document shares one
    frozen description.  A malformed document is not remembered: it raises
    on every call.

    Raises
    ------
    WsdlError
        If the document is not well-formed WSDL.
    """
    return _parse_wsdl(text)


def _parse_wsdl(text: str) -> InterfaceDescription:
    try:
        root = parse(text)
    except XmlError as exc:
        raise WsdlError(f"malformed WSDL document: {exc}") from None
    if root.tag != f"{_WSDL}definitions":
        raise WsdlError(f"root element must be wsdl:definitions, got {root.tag}")

    service_name = root.get("name")
    namespace = root.get("targetNamespace")
    if not service_name or not namespace:
        raise WsdlError("wsdl:definitions must carry name and targetNamespace")
    version_text = root.get("version", "0")
    try:
        version = int(version_text)
    except ValueError:
        raise WsdlError(f"malformed version attribute {version_text!r}") from None

    structs = _parse_structs(root)
    registry = TypeRegistry(structs)
    messages = _parse_messages(root, registry)
    operations = _parse_port_type(root, messages)
    endpoint_url = _parse_endpoint(root)

    return InterfaceDescription(
        service_name=service_name,
        namespace=namespace,
        operations=tuple(sorted(operations, key=lambda op: op.name)),
        structs=tuple(sorted(structs, key=lambda s: s.name)),
        version=version,
        endpoint_url=endpoint_url,
    )


def _parse_structs(root: Element) -> list[StructType]:
    types = root.find(f"{_WSDL}types")
    if types is None:
        return []
    schema = types.find(f"{_XSD}schema")
    if schema is None:
        return []

    raw: list[tuple[str, list[tuple[str, str]]]] = []
    for complex_type in schema.findall(f"{_XSD}complexType"):
        name = complex_type.get("name")
        if not name:
            raise WsdlError("complexType without a name")
        sequence = complex_type.find(f"{_XSD}sequence")
        fields: list[tuple[str, str]] = []
        if sequence is not None:
            for element in sequence.findall(f"{_XSD}element"):
                field_name = element.get("name")
                field_type = element.get("type")
                if not field_name or not field_type:
                    raise WsdlError(f"malformed field in complexType {name!r}")
                fields.append((field_name, field_type))
        raw.append((name, fields))
    return resolve_structs(raw, parse_type, WsdlError)


def _parse_messages(
    root: Element, registry: TypeRegistry
) -> dict[str, list[tuple[str, "object"]]]:
    """Return message name -> list of (part name, resolved type).

    Parts are kept as plain tuples because response messages use the part
    name ``return``, which is not a legal parameter identifier.
    """
    messages: dict[str, list[tuple[str, object]]] = {}
    for message in root.findall(f"{_WSDL}message"):
        name = message.get("name")
        if not name:
            raise WsdlError("wsdl:message without a name")
        parts: list[tuple[str, object]] = []
        for part in message.findall(f"{_WSDL}part"):
            part_name = part.get("name")
            part_type = part.get("type")
            if not part_name or not part_type:
                raise WsdlError(f"malformed part in message {name!r}")
            parts.append((part_name, parse_type(part_type, registry)))
        messages[name] = parts
    return messages


def _parse_port_type(
    root: Element, messages: dict[str, list[tuple[str, object]]]
) -> list[OperationSignature]:
    operations: list[OperationSignature] = []
    port_type = root.find(f"{_WSDL}portType")
    if port_type is None:
        return operations
    for op_element in port_type.findall(f"{_WSDL}operation"):
        name = op_element.get("name")
        if not name:
            raise WsdlError("wsdl:operation without a name")
        input_element = op_element.find(f"{_WSDL}input")
        output_element = op_element.find(f"{_WSDL}output")
        request_message = input_element.get("message") if input_element is not None else None
        response_message = output_element.get("message") if output_element is not None else None
        parameters = tuple(
            Parameter(part_name, part_type)
            for part_name, part_type in messages.get(request_message or "", [])
        )
        return_parts = messages.get(response_message or "", [])
        if return_parts:
            return_type = return_parts[0][1]
        else:
            from repro.rmitypes import VOID

            return_type = VOID
        operations.append(
            OperationSignature(name=name, parameters=parameters, return_type=return_type)
        )
    return operations


def _parse_endpoint(root: Element) -> str:
    service = root.find(f"{_WSDL}service")
    if service is None:
        return ""
    port = service.find(f"{_WSDL}port")
    if port is None:
        return ""
    address = port.find(f"{_SOAP}address")
    if address is None:
        return ""
    return address.get("location", "") or ""
