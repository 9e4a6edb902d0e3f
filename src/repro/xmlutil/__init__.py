"""Namespace-aware XML on the standard library's ElementTree.

SOAP envelopes and WSDL documents are namespace-heavy XML.  The package's
one element model is ``xml.etree.ElementTree.Element``: tags and attribute
names are in Clark notation (``{namespace}local``).  On top of it this
package provides qualified names (:class:`QName`) and the well-known
namespace URIs, :func:`parse` (text to an element tree, malformed input
raising :class:`~repro.errors.XmlError`), :func:`text_of` (an element's
text as data), a deterministic serialiser (:func:`serialize`,
:func:`serialize_pretty`) and the escaping and character checks that the
SOAP envelope writer shares with it (:mod:`repro.xmlutil.serializer`).
"""

from repro.xmlutil.qname import QName, Namespaces
from repro.xmlutil.serializer import serialize, serialize_pretty
from repro.xmlutil.parser import parse, text_of

__all__ = [
    "QName",
    "Namespaces",
    "serialize",
    "serialize_pretty",
    "parse",
    "text_of",
]
