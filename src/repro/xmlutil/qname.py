"""Qualified names and well-known namespace URIs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XmlError


class Namespaces:
    """Namespace URIs used by the SOAP/WSDL portions of the system."""

    SOAP_ENVELOPE = "http://schemas.xmlsoap.org/soap/envelope/"
    SOAP_ENCODING = "http://schemas.xmlsoap.org/soap/encoding/"
    WSDL = "http://schemas.xmlsoap.org/wsdl/"
    WSDL_SOAP = "http://schemas.xmlsoap.org/wsdl/soap/"
    XSD = "http://www.w3.org/2001/XMLSchema"
    XSI = "http://www.w3.org/2001/XMLSchema-instance"

    #: Conventional prefixes used by the serialiser for readability.
    DEFAULT_PREFIXES = {
        SOAP_ENVELOPE: "soapenv",
        SOAP_ENCODING: "soapenc",
        WSDL: "wsdl",
        WSDL_SOAP: "wsdlsoap",
        XSD: "xsd",
        XSI: "xsi",
    }


@dataclass(frozen=True)
class QName:
    """A namespace-qualified XML name."""

    namespace: str | None
    local_name: str

    def __post_init__(self) -> None:
        if not self.local_name:
            raise XmlError("local name must not be empty")
        if ":" in self.local_name or " " in self.local_name:
            raise XmlError(f"invalid local name {self.local_name!r}")

    @classmethod
    def plain(cls, local_name: str) -> "QName":
        """A name with no namespace."""
        return cls(None, local_name)

    def clark(self) -> str:
        """Return the Clark notation form ``{namespace}local`` used by
        ``xml.etree.ElementTree``."""
        if self.namespace:
            return f"{{{self.namespace}}}{self.local_name}"
        return self.local_name

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        """Parse Clark notation (``{ns}local`` or plain ``local``)."""
        namespace, local = split_clark(text)
        return cls(namespace or None, local)

    def __str__(self) -> str:
        return self.clark()


def split_clark(name: str) -> tuple[str, str]:
    """``(namespace, local)`` of a Clark-notation name (``{ns}local`` or
    plain ``local``, whose namespace is ``""``)."""
    if name[:1] == "{":
        namespace, brace, local = name[1:].partition("}")
        if not brace:
            raise XmlError(f"malformed Clark notation: {name!r}")
        return namespace, local
    return "", name
