"""SOAP Request and SOAP Response envelopes.

A SOAP Request "encapsulates the remote method call in a standard textual
format" (§2.1); the response carries either the return value or a
:class:`~repro.soap.faults.SoapFault`.  Requests are encoded positionally
(``arg0``, ``arg1``, ...) with embedded type labels so the server can decode
them without trusting the client's stub to be current — which is the whole
point of live development: the client's view may legitimately be stale.

Envelopes go straight between values and text.  One writer renders
requests, responses, faults and traced envelopes (a ``soapenv:Header``
block); it declares namespaces and picks prefixes exactly as the generic
serialiser would for the same tree.

Reading scans requests and value responses in the one form that writer
emits, without a tree (see :func:`_opening` and
:func:`repro.soap.encoding.read_typed`).  Any other text, well formed or
not, goes to the reference reader, which parses the document with
ElementTree and walks its nodes.  It reads the writer's form to the same
envelope, and it is the only reader of Fault replies, of envelopes in any
other form (other prefixes, whitespace, comments, CDATA) and of malformed
documents, so every error keeps its message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Mapping, Sequence
from xml.etree.ElementTree import Element

from repro.errors import SoapEncodingError, SoapError, XmlError
from repro.rmitypes import RmiType, TypeRegistry, VOID, infer_type
from repro.soap.encoding import Unrecognised, decode_typed, encode_value, read_typed, unescape
from repro.soap.faults import FaultCodes, SoapFault
from repro.xmlutil import Namespaces, parse, text_of
from repro.xmlutil.qname import split_clark
from repro.xmlutil.serializer import (
    ILLEGAL_CHARS,
    XML_DECLARATION,
    encode_document,
    escape_attribute,
    escape_text,
)

_SOAP_ENV = Namespaces.SOAP_ENVELOPE
_ENVELOPE = f"{{{_SOAP_ENV}}}Envelope"
_HEADER = f"{{{_SOAP_ENV}}}Header"
_BODY = f"{{{_SOAP_ENV}}}Body"
_FAULT = f"{{{_SOAP_ENV}}}Fault"

#: Namespace of the observability trace-context header block (the SOAP 1.1
#: extensible-header channel the causal tracer propagates ids through).
TRACE_NAMESPACE = "urn:repro:obs"
_TRACE_CONTEXT = f"{{{TRACE_NAMESPACE}}}TraceContext"


# -- writing -------------------------------------------------------------------


def _element(tag: str, content: str) -> str:
    """``<tag>content</tag>``, or ``<tag/>`` when there is no content."""
    return f"<{tag}>{content}</{tag}>" if content else f"<{tag}/>"


#: The XML declaration and the Envelope start tag up to its first namespace
#: declaration, ``soapenv`` (the first namespace an envelope uses).
_ENVELOPE_START = (
    f'{XML_DECLARATION}<soapenv:Envelope xmlns:soapenv="{escape_attribute(_SOAP_ENV)}"'
)


def _document(
    namespace: str | None, local: str, content: str, trace_context: str | None = None
) -> str:
    """An envelope whose Body holds the element ``{namespace}local``.

    ``content`` is that element's XML content.  Namespaces are declared on
    the Envelope as the generic serialiser declares them: in first-use
    order (envelope, trace header, body element), well-known ones with their
    conventional prefix, others as ``ns0``, ``ns1``, ... in turn.
    """
    if not local or ":" in local or " " in local:
        raise XmlError(f"invalid local name {local!r}")
    declarations = header = ""
    numbered = 0  # ``ns<n>`` prefixes declared so far
    if trace_context is not None:
        declarations = f' xmlns:ns0="{escape_attribute(TRACE_NAMESPACE)}"'
        block = _element("ns0:TraceContext", escape_text(trace_context))
        header = f"<soapenv:Header>{block}</soapenv:Header>"
        numbered = 1
    if not namespace:
        tag = local
    elif namespace == _SOAP_ENV:
        tag = f"soapenv:{local}"
    elif namespace == TRACE_NAMESPACE and numbered:
        tag = f"ns0:{local}"
    else:
        prefix = Namespaces.DEFAULT_PREFIXES.get(namespace) or f"ns{numbered}"
        declarations += f' xmlns:{prefix}="{escape_attribute(namespace)}"'
        tag = f"{prefix}:{local}"
    return (
        f"{_ENVELOPE_START}{declarations}>{header}"
        f"<soapenv:Body>{_element(tag, content)}</soapenv:Body></soapenv:Envelope>"
    )


def _fault_content(fault: SoapFault) -> str:
    content = _element("faultcode", escape_text(fault.fault_code))
    content += _element("faultstring", escape_text(fault.fault_string))
    if fault.detail:
        content += _element("detail", escape_text(fault.detail))
    return content


class _Envelope:
    """The wire forms every envelope offers, built on :meth:`_document`."""

    def _document(self) -> str:
        raise NotImplementedError

    def to_xml_and_wire(self) -> tuple[str, bytes]:
        """The document as text and as UTF-8 wire bytes.

        Producers charge the text's length as processing cost.  Encoding
        is also the check that the document holds only characters XML 1.0
        can carry, so every wire form raises the same error.

        Raises
        ------
        SoapEncodingError
            If a value holds a character XML 1.0 cannot carry.
        """
        xml = self._document()
        try:
            return xml, encode_document(xml)
        except XmlError as exc:
            raise SoapEncodingError(str(exc)) from None

    def to_xml(self) -> str:
        """Serialise to the textual wire format."""
        return self.to_xml_and_wire()[0]

    def to_wire(self) -> bytes:
        """Serialise straight to UTF-8 wire bytes."""
        return self.to_xml_and_wire()[1]


# -- reading the written form ---------------------------------------------------------

_PREFIX = r"[A-Za-z_][A-Za-z0-9_-]*"
#: What :func:`_document` writes before the Body element's content: the
#: Envelope's further namespace declarations (1), the trace Header's prefix
#: (2) and text (3), and the Body element's qualified name (4), prefix (5),
#: local name (6) and ``/`` when it is empty (7).  Namespace names with a
#: reference, whitespace or a brace go to the reference reader.
_OPENING = re.compile(
    re.escape(_ENVELOPE_START)
    + rf'((?: xmlns:{_PREFIX}="[^"<&{{}}\s]+")*)>'
    + rf"(?:<soapenv:Header><({_PREFIX}):TraceContext(?:/>|>([^<]*)</\2:TraceContext>)"
    + r"</soapenv:Header>)?"
    + rf"<soapenv:Body><((?:({_PREFIX}):)?([A-Za-z_][A-Za-z0-9_]*))(/?)>"
)
_DECLARATION = re.compile(rf' xmlns:({_PREFIX})="([^"]*)"')
_CLOSING = "</soapenv:Body></soapenv:Envelope>"
#: Names a prefix other than ``xml`` must not be bound to (Namespaces in XML §3).
_RESERVED_NAMESPACES = ("http://www.w3.org/XML/1998/namespace", "http://www.w3.org/2000/xmlns/")


@lru_cache(maxsize=64)
def _namespaces(declarations: str) -> Mapping[str, str] | None:
    """The namespace each Envelope prefix names, or ``None`` when
    ElementTree could reject the declarations."""
    namespaces = {"soapenv": _SOAP_ENV}
    for prefix, namespace in _DECLARATION.findall(declarations):
        if prefix in namespaces or prefix[:3].lower() == "xml" or namespace in _RESERVED_NAMESPACES:
            return None
        namespaces[prefix] = namespace
    return MappingProxyType(namespaces)


def _opening(text: str) -> tuple[re.Match, str, str | None, int]:
    """Scan the envelope :func:`_document` wrote, all but the Body element's content.

    Returns the :data:`_OPENING` match, the Body element's namespace (``""``
    if unqualified), the trace context and where the content must end.
    Tags and attributes are matched by pattern.  Character data is checked
    here, once for the whole text: no character XML 1.0 cannot carry, no
    raw carriage return (ElementTree reads one as a newline) and no ``]]>``.

    Raises
    ------
    Unrecognised
        If the text is not in that form.
    """
    # ``"]" in`` is one memchr; the three-character search is several times slower.
    if "\r" in text or ("]" in text and "]]>" in text):
        raise Unrecognised
    for char in ILLEGAL_CHARS:
        if char in text:
            raise Unrecognised
    if not text.isascii():
        try:
            text.encode("utf-8")  # the reference reader raises at a lone surrogate
        except UnicodeEncodeError:
            raise Unrecognised from None
    opening = _OPENING.match(text)
    if opening is None:
        raise Unrecognised
    namespaces = _namespaces(opening[1])
    if namespaces is None:
        raise Unrecognised
    trace_context = None
    if opening[2] is not None:
        if namespaces.get(opening[2]) != TRACE_NAMESPACE:
            raise Unrecognised
        trace_context = unescape(opening[3] or "") or None
    namespace = ""
    if opening[5] is not None:
        namespace = namespaces.get(opening[5])
        if namespace is None:
            raise Unrecognised
    closing = _CLOSING if opening[7] else f"</{opening[4]}>{_CLOSING}"
    if not text.endswith(closing):
        raise Unrecognised
    return opening, namespace, trace_context, len(text) - len(closing)


# -- the reference reader ---------------------------------------------------------------


def _parse(text: str, what: str) -> Element:
    try:
        return parse(text)
    except XmlError as exc:
        raise SoapError(f"malformed {what}: {exc}") from None


def _header_trace_context(envelope: Element) -> str | None:
    header = envelope.find(_HEADER)
    if header is None:
        return None
    block = header.find(_TRACE_CONTEXT)
    if block is None:
        return None
    return text_of(block) or None


def _body_child(envelope: Element, what: str) -> Element:
    if envelope.tag != _ENVELOPE:
        raise SoapError(f"{what} root element must be soapenv:Envelope, got {envelope.tag}")
    body = envelope.find(_BODY)
    if body is None:
        raise SoapError(f"{what} has no soapenv:Body")
    if not len(body):
        raise SoapError(f"{what} Body is empty")
    return body[0]


def _read_fault(element: Element) -> SoapFault:
    code = element.find("faultcode")
    string = element.find("faultstring")
    detail = element.find("detail")
    return SoapFault(
        fault_code=text_of(code) if code is not None else FaultCodes.SERVER,
        fault_string=text_of(string) if string is not None else "",
        detail=text_of(detail) if detail is not None else "",
    )


@dataclass
class SoapRequest(_Envelope):
    """A SOAP Request: one operation invocation with typed arguments."""

    operation: str
    arguments: tuple[Any, ...] = ()
    argument_types: tuple[RmiType, ...] = ()
    namespace: str = "urn:repro"
    #: Optional causal-trace token carried in a soapenv:Header block.  ``None``
    #: (the untraced case) keeps the envelope Header-free and byte-identical
    #: to the historical wire format.
    trace_context: str | None = None

    def __post_init__(self) -> None:
        if self.argument_types and len(self.argument_types) != len(self.arguments):
            raise SoapError(
                "argument_types must match arguments "
                f"({len(self.argument_types)} types for {len(self.arguments)} arguments)"
            )

    @classmethod
    def for_call(
        cls,
        operation: str,
        arguments: Sequence[Any],
        namespace: str = "urn:repro",
        registry: TypeRegistry | None = None,
    ) -> "SoapRequest":
        """Build a request, inferring argument types from the Python values."""
        types = tuple(infer_type(value, registry) for value in arguments)
        return cls(operation, tuple(arguments), types, namespace)

    def _document(self) -> str:
        types = self.argument_types or tuple(infer_type(v) for v in self.arguments)
        content = "".join(
            encode_value(f"arg{index}", value, rmi_type)
            for index, (value, rmi_type) in enumerate(zip(self.arguments, types))
        )
        return _document(self.namespace, self.operation, content, self.trace_context)

    @classmethod
    def from_xml(cls, text: str, registry: TypeRegistry | None = None) -> "SoapRequest":
        """Parse a SOAP Request from its wire format.

        Raises
        ------
        SoapError
            If the document is not a well-formed SOAP Request.
        """
        try:
            opening, namespace, trace_context, stop = _opening(text)
            if namespace == _SOAP_ENV and opening[6] == "Fault":
                raise Unrecognised
            arguments = []
            types = []
            position = opening.end()
            while position < stop:
                value, rmi_type, position = read_typed(text, position, registry)
                arguments.append(value)
                types.append(rmi_type)
            if position != stop:
                raise Unrecognised
        except Unrecognised:
            return cls._from_tree(text, registry)
        return cls(
            operation=opening[6],
            arguments=tuple(arguments),
            argument_types=tuple(types),
            namespace=namespace or "urn:repro",
            trace_context=trace_context,
        )

    @classmethod
    def _from_tree(cls, text: str, registry: TypeRegistry | None) -> "SoapRequest":
        """The reference reader: :meth:`from_xml` through ElementTree."""
        envelope = _parse(text, "SOAP Request")
        call = _body_child(envelope, "SOAP Request")
        if call.tag == _FAULT:
            raise SoapError("SOAP Request body contains a Fault element")
        arguments = []
        types = []
        for child in call:
            value, rmi_type = decode_typed(child, registry)
            arguments.append(value)
            types.append(rmi_type)
        namespace, operation = split_clark(call.tag)
        return cls(
            operation=operation,
            arguments=tuple(arguments),
            argument_types=tuple(types),
            namespace=namespace or "urn:repro",
            trace_context=_header_trace_context(envelope),
        )


@dataclass
class SoapResponse(_Envelope):
    """A SOAP Response: either a return value or a fault."""

    operation: str
    return_value: Any = None
    return_type: RmiType = VOID
    fault: SoapFault | None = None
    namespace: str = "urn:repro"

    @property
    def is_fault(self) -> bool:
        """True if the response carries a fault instead of a value."""
        return self.fault is not None

    @classmethod
    def for_result(
        cls,
        operation: str,
        value: Any,
        return_type: RmiType,
        namespace: str = "urn:repro",
    ) -> "SoapResponse":
        """A successful response carrying ``value``."""
        return cls(operation, value, return_type, None, namespace)

    @classmethod
    def for_fault(cls, operation: str, fault: SoapFault, namespace: str = "urn:repro") -> "SoapResponse":
        """A fault response."""
        return cls(operation, None, VOID, fault, namespace)

    def _document(self) -> str:
        if self.fault is not None:
            return _document(_SOAP_ENV, "Fault", _fault_content(self.fault))
        content = encode_value("return", self.return_value, self.return_type)
        return _document(self.namespace, f"{self.operation}Response", content)

    @classmethod
    def from_xml(cls, text: str, registry: TypeRegistry | None = None) -> "SoapResponse":
        """Parse a SOAP Response from its wire format.

        Raises
        ------
        SoapError
            If the document is not a well-formed SOAP Response.
        """
        try:
            opening, namespace, _trace_context, stop = _opening(text)
            position = opening.end()
            local = opening[6]
            # A Fault (local name ``Fault``) goes to the reference reader too.
            if not local.endswith("Response") or not text.startswith("<return ", position):
                raise Unrecognised
            value, return_type, position = read_typed(text, position, registry)
            if position != stop:
                raise Unrecognised
        except Unrecognised:
            return cls._from_tree(text, registry)
        return cls(
            operation=local[: -len("Response")],
            return_value=value,
            return_type=return_type,
            namespace=namespace or "urn:repro",
        )

    @classmethod
    def _from_tree(cls, text: str, registry: TypeRegistry | None) -> "SoapResponse":
        """The reference reader: :meth:`from_xml` through ElementTree."""
        envelope = _parse(text, "SOAP Response")
        child = _body_child(envelope, "SOAP Response")
        if child.tag == _FAULT:
            return cls(operation="", fault=_read_fault(child))
        namespace, local = split_clark(child.tag)
        if not local.endswith("Response"):
            raise SoapError(
                f"SOAP Response body element should end with 'Response', got {child.tag}"
            )
        operation = local[: -len("Response")]
        return_element = child.find("return")
        if return_element is None:
            return cls(operation=operation, return_value=None, return_type=VOID)
        value, return_type = decode_typed(return_element, registry)
        return cls(
            operation=operation,
            return_value=value,
            return_type=return_type,
            namespace=namespace or "urn:repro",
        )
