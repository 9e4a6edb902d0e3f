"""E7 — interface-generation cost versus interface size.

Section 5.6's premise is that "the generation and publication of the server
interface description is a relatively expensive operation", which is what
justifies suppressing transient publications.  This experiment sweeps the
number of distributed operations and reports the size of the generated WSDL
and CORBA-IDL documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corba.idl import generate_idl
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import DOUBLE, INT, STRING
from repro.soap.wsdl import generate_wsdl


@dataclass(frozen=True)
class GenerationResult:
    """Document sizes for one interface size."""

    operations: int
    wsdl_bytes: int
    idl_bytes: int


def build_interface(operation_count: int) -> InterfaceDescription:
    """Build a synthetic interface with ``operation_count`` operations of
    varied signatures."""
    operations = []
    parameter_menu = (
        (Parameter("name", STRING),),
        (Parameter("a", INT), Parameter("b", INT)),
        (Parameter("x", DOUBLE), Parameter("y", DOUBLE), Parameter("label", STRING)),
    )
    return_menu = (STRING, INT, DOUBLE)
    for index in range(operation_count):
        operations.append(
            OperationSignature(
                name=f"operation_{index}",
                parameters=parameter_menu[index % len(parameter_menu)],
                return_type=return_menu[index % len(return_menu)],
            )
        )
    return InterfaceDescription(
        service_name="GeneratedService",
        namespace="urn:bench:generated",
        endpoint_url="http://server:8070/sde/GeneratedService",
    ).with_operations(operations)


def run_interface_generation_sweep(
    operation_counts: tuple[int, ...] = (1, 5, 10, 25, 50, 100)
) -> list[GenerationResult]:
    """Generate WSDL and IDL documents across the interface-size sweep."""
    results = []
    for count in operation_counts:
        description = build_interface(count)
        wsdl = generate_wsdl(description)
        idl = generate_idl(description)
        results.append(
            GenerationResult(
                operations=count,
                wsdl_bytes=len(wsdl.encode("utf-8")),
                idl_bytes=len(idl.encode("utf-8")),
            )
        )
    return results
