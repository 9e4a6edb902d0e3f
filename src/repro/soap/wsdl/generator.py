"""Rendering an :class:`InterfaceDescription` into a WSDL document.

The generated document follows the WSDL 1.1 structure the paper describes
(§2.1): a ``types`` section declaring complex types, per-operation request and
response ``message`` elements, a ``portType`` listing the operations, a SOAP
``binding`` and a ``service`` whose ``soap:address`` carries the endpoint
location.  A *minimal* WSDL document (endpoint address but no operations,
§5.1.1 footnote) is simply the rendering of a minimal description.
"""

from __future__ import annotations

from xml.etree.ElementTree import Element, SubElement

from repro.interface import InterfaceDescription, OperationSignature
from repro.rmitypes import StructType
from repro.xmlutil import Namespaces, serialize, serialize_pretty

#: Clark-notation prefixes of the WSDL, WSDL-SOAP and XSD namespaces.
_WSDL = f"{{{Namespaces.WSDL}}}"
_SOAP = f"{{{Namespaces.WSDL_SOAP}}}"
_XSD = f"{{{Namespaces.XSD}}}"


def generate_wsdl(description: InterfaceDescription, pretty: bool = False) -> str:
    """Return the WSDL document describing ``description``."""
    element = build_wsdl_element(description)
    return serialize_pretty(element) if pretty else serialize(element)


def build_wsdl_element(description: InterfaceDescription) -> Element:
    """Build the WSDL document as an ElementTree."""
    tns = description.namespace
    definitions = Element(
        f"{_WSDL}definitions",
        {
            "name": description.service_name,
            "targetNamespace": tns,
            "version": str(description.version),
        },
    )

    _add_types(definitions, description)
    for operation in description.operations:
        _add_messages(definitions, operation, tns)
    _add_port_type(definitions, description, tns)
    _add_binding(definitions, description, tns)
    _add_service(definitions, description, tns)
    return definitions


def _add_types(definitions: Element, description: InterfaceDescription) -> None:
    types = SubElement(definitions, f"{_WSDL}types")
    schema = SubElement(types, f"{_XSD}schema", {"targetNamespace": description.namespace})
    for struct in description.structs:
        _add_complex_type(schema, struct, description.namespace)


def _add_complex_type(schema: Element, struct: StructType, tns: str) -> None:
    complex_type = SubElement(schema, f"{_XSD}complexType", {"name": struct.name})
    sequence = SubElement(complex_type, f"{_XSD}sequence")
    for field_def in struct.fields:
        SubElement(
            sequence,
            f"{_XSD}element",
            {"name": field_def.name, "type": field_def.field_type.type_name},
        )


def _add_messages(definitions: Element, operation: OperationSignature, tns: str) -> None:
    request = SubElement(definitions, f"{_WSDL}message", {"name": f"{operation.name}Request"})
    for parameter in operation.parameters:
        SubElement(
            request,
            f"{_WSDL}part",
            {"name": parameter.name, "type": parameter.param_type.type_name},
        )
    response = SubElement(definitions, f"{_WSDL}message", {"name": f"{operation.name}Response"})
    SubElement(
        response,
        f"{_WSDL}part",
        {"name": "return", "type": operation.return_type.type_name},
    )


def _add_port_type(definitions: Element, description: InterfaceDescription, tns: str) -> None:
    port_type = SubElement(
        definitions, f"{_WSDL}portType", {"name": f"{description.service_name}PortType"}
    )
    for operation in description.operations:
        op_element = SubElement(port_type, f"{_WSDL}operation", {"name": operation.name})
        SubElement(op_element, f"{_WSDL}input", {"message": f"{operation.name}Request"})
        SubElement(op_element, f"{_WSDL}output", {"message": f"{operation.name}Response"})


def _add_binding(definitions: Element, description: InterfaceDescription, tns: str) -> None:
    binding = SubElement(
        definitions,
        f"{_WSDL}binding",
        {
            "name": f"{description.service_name}SoapBinding",
            "type": f"{description.service_name}PortType",
        },
    )
    SubElement(
        binding,
        f"{_SOAP}binding",
        {"style": "rpc", "transport": "http://schemas.xmlsoap.org/soap/http"},
    )
    for operation in description.operations:
        op_element = SubElement(binding, f"{_WSDL}operation", {"name": operation.name})
        SubElement(
            op_element,
            f"{_SOAP}operation",
            {"soapAction": f"{description.namespace}#{operation.name}"},
        )


def _add_service(definitions: Element, description: InterfaceDescription, tns: str) -> None:
    service = SubElement(definitions, f"{_WSDL}service", {"name": description.service_name})
    port = SubElement(
        service,
        f"{_WSDL}port",
        {
            "name": f"{description.service_name}Port",
            "binding": f"{description.service_name}SoapBinding",
        },
    )
    SubElement(port, f"{_SOAP}address", {"location": description.endpoint_url})
