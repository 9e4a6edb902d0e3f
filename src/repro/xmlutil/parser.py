"""Parsing XML text into ``xml.etree.ElementTree`` element trees.

The standard library resolves namespaces (tags come back in Clark
notation) and entities; this module only maps its errors onto
:class:`~repro.errors.XmlError`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import XmlError


def parse(text: str | bytes) -> ET.Element:
    """Parse XML ``text`` and return the root element.

    Raises
    ------
    XmlError
        If the document is not well formed.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XmlError(f"document is not valid UTF-8: {exc}") from None
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from None


def text_of(element: ET.Element) -> str:
    """The text ``element`` carries as data.

    A leaf's text is data (string values may legitimately start or end with
    whitespace); the text of an element with children is only the
    serialiser's indentation, so it is stripped.
    """
    if len(element):
        return (element.text or "").strip()
    return element.text or ""
