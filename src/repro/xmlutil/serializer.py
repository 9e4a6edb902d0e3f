"""Deterministic serialisation of ElementTree elements, and XML escaping.

The serialiser collects every namespace used anywhere in the document,
declares all of them on the root element with stable prefixes (well-known
namespaces get their conventional prefixes, others get ``ns0``, ``ns1``, ...)
and escapes text and attribute values.  Determinism matters because a
published WSDL document is rendered on its first read and must be the same
bytes however late that read comes.

The SOAP envelope writer renders envelopes straight to text with this
module's escaping and character check and the same prefix rule, so both
writers give the same bytes for the same document.
"""

from __future__ import annotations

import re
from xml.etree.ElementTree import Element

from repro.errors import XmlError
from repro.xmlutil.qname import Namespaces, split_clark

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'

#: Characters XML 1.0 (§2.2) cannot carry: C0 controls other than tab,
#: newline and carriage return, U+FFFE, U+FFFF and lone surrogates.
_ILLEGAL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff\ud800-\udfff]")
#: The same less the surrogates, which ``str.encode`` rejects.  Their 31
#: ``in`` tests (``memchr``) cost a tenth of one ``_ILLEGAL.search`` over a
#: 4.5 KB envelope, so the search only names the first in a failing text.
#: The SOAP envelope reader makes the same tests.
ILLEGAL_CHARS = tuple(chr(code) for code in range(0x20) if chr(code) not in "\t\n\r") + (
    "\ufffe",
    "\uffff",
)


def escape_text(value: str) -> str:
    """Escape character data.

    A carriage return becomes ``&#13;``: left raw, end-of-line handling
    (XML 1.0 §2.11) would hand the reader a newline instead.
    """
    if "&" in value or "<" in value or ">" in value or "\r" in value:
        return (
            value.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
            .replace("\r", "&#13;")
        )
    return value


def escape_attribute(value: str) -> str:
    """Escape an attribute value.

    Tab and newline become character references too: left raw,
    attribute-value normalisation (XML 1.0 §3.3.3) turns them into spaces.
    """
    value = escape_text(value).replace('"', "&quot;")
    if "\t" in value or "\n" in value:
        return value.replace("\t", "&#9;").replace("\n", "&#10;")
    return value


def encode_document(text: str) -> bytes:
    """The UTF-8 bytes of the document ``text``.

    Raises
    ------
    XmlError
        If ``text`` holds a character XML 1.0 cannot carry (a C0 control
        other than tab, newline and carriage return, U+FFFE, U+FFFF or a
        lone surrogate).  The message names the first such character and
        the text between the markup around it.
    """
    try:
        wire = text.encode("utf-8")
    except UnicodeEncodeError:
        raise _illegal_character(text) from None
    for char in ILLEGAL_CHARS:
        if char in text:
            raise _illegal_character(text)
    return wire


def _illegal_character(text: str) -> XmlError:
    position = _ILLEGAL.search(text).start()
    start = text.rfind(">", 0, position) + 1
    end = text.find("<", position)
    run = text[start:] if end < 0 else text[start:end]
    return XmlError(f"XML 1.0 cannot carry {text[position]!r} (in {run!r})")


def _assign_prefixes(namespaces: list[str]) -> dict[str, str]:
    prefixes: dict[str, str] = {}
    counter = 0
    for namespace in namespaces:
        well_known = Namespaces.DEFAULT_PREFIXES.get(namespace)
        if well_known and well_known not in prefixes.values():
            prefixes[namespace] = well_known
        else:
            prefixes[namespace] = f"ns{counter}"
            counter += 1
    return prefixes


def _collect_namespaces(root: Element) -> list[str]:
    # A dict doubles as an ordered set: first-seen document order, O(1) membership.
    seen: dict[str, None] = {}
    for element in root.iter():
        for name in (element.tag, *element.attrib):
            namespace = split_clark(name)[0]
            if namespace:
                seen[namespace] = None
    return list(seen)


def _qualified(name: str, prefixes: dict[str, str]) -> str:
    namespace, local = split_clark(name)
    if namespace:
        return f"{prefixes[namespace]}:{local}"
    return local


def serialize(root: Element, xml_declaration: bool = True) -> str:
    """Serialise ``root`` to a compact, single-line-per-document string."""
    return _serialize(root, pretty=False, xml_declaration=xml_declaration)


def serialize_pretty(root: Element, xml_declaration: bool = True) -> str:
    """Serialise ``root`` with two-space indentation for human consumption
    (the SDE Manager Interface's "view the WSDL/CORBA-IDL" feature)."""
    return _serialize(root, pretty=True, xml_declaration=xml_declaration)


def _serialize(root: Element, pretty: bool, xml_declaration: bool) -> str:
    prefixes = _assign_prefixes(_collect_namespaces(root))
    parts: list[str] = []
    if xml_declaration:
        parts.append(XML_DECLARATION)
        if pretty:
            parts.append("\n")
    _write_element(root, prefixes, parts, pretty, depth=0, declare_namespaces=True)
    return "".join(parts)


def _write_element(
    element: Element,
    prefixes: dict[str, str],
    parts: list[str],
    pretty: bool,
    depth: int,
    declare_namespaces: bool,
) -> None:
    indent = "  " * depth if pretty else ""
    newline = "\n" if pretty else ""

    tag = _qualified(element.tag, prefixes)
    attribute_parts: list[str] = []
    if declare_namespaces:
        for namespace, prefix in prefixes.items():
            attribute_parts.append(f'xmlns:{prefix}="{escape_attribute(namespace)}"')
    for name, value in element.attrib.items():
        attribute_parts.append(f'{_qualified(name, prefixes)}="{escape_attribute(value)}"')

    attributes_text = (" " + " ".join(attribute_parts)) if attribute_parts else ""

    if not len(element) and not element.text:
        parts.append(f"{indent}<{tag}{attributes_text}/>{newline}")
        return

    parts.append(f"{indent}<{tag}{attributes_text}>")
    if element.text:
        parts.append(escape_text(element.text))
    if len(element):
        parts.append(newline)
        for child in element:
            _write_element(child, prefixes, parts, pretty, depth + 1, declare_namespaces=False)
        parts.append(indent)
    parts.append(f"</{tag}>{newline}")
