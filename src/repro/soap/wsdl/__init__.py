"""WSDL generation, parsing and stub compilation.

These are the analogues of Apache Axis' ``Java2WSDL`` and ``WSDL2Java`` tools
the paper builds on (§3):

* :func:`repro.soap.wsdl.generator.generate_wsdl` renders an
  :class:`~repro.interface.InterfaceDescription` into a WSDL document;
* :func:`repro.soap.wsdl.parser.parse_wsdl` recovers the description from a
  WSDL document retrieved over HTTP;
* :class:`repro.soap.wsdl.compiler.CompiledStub` exposes a parsed
  description as callable client-side method stubs.
"""

from repro.soap.wsdl.generator import generate_wsdl
from repro.soap.wsdl.parser import parse_wsdl
from repro.soap.wsdl.compiler import CompiledStub

__all__ = ["generate_wsdl", "parse_wsdl", "CompiledStub"]
