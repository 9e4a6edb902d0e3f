"""E6 — substrate characterisation: SOAP (XML/HTTP) vs CORBA (GIOP/IIOP).

Section 2 of the paper contrasts the two technologies: SOAP exchanges
verbose, textual XML over HTTP, whereas IIOP "supports a wide range of
primitives, data structures, and object references" in a binary encoding.
This experiment quantifies the difference that drives the Table 1 gap in the
reproduction: wire message sizes for equivalent calls across a payload sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.corba.cdr import marshal_values
from repro.corba.giop import ReplyMessage, ReplyStatus, RequestMessage
from repro.rmitypes import FieldDef, INT, STRING, StructType, TypeRegistry, infer_type
from repro.soap.envelope import SoapRequest, SoapResponse

#: The struct type used by the struct-bearing workloads.
ADDRESS_STRUCT = StructType(
    "Address", (FieldDef("street", STRING), FieldDef("number", INT))
)


@dataclass(frozen=True)
class EncodingResult:
    """Wire sizes for one workload point."""

    label: str
    soap_request_bytes: int
    soap_response_bytes: int
    giop_request_bytes: int
    giop_reply_bytes: int


def measure_call(
    label: str,
    operation: str,
    arguments: tuple[Any, ...],
    result: Any,
    registry: TypeRegistry | None = None,
) -> EncodingResult:
    """Measure wire sizes for one logical call in both encodings."""
    if registry is None:
        registry = TypeRegistry((ADDRESS_STRUCT,))
    soap_request = SoapRequest.for_call(operation, arguments, registry=registry)
    return_type = infer_type(result, registry) if result is not None else None
    if return_type is None:
        soap_response = SoapResponse(operation=operation)
    else:
        soap_response = SoapResponse.for_result(operation, result, return_type)

    giop_request = RequestMessage(
        request_id=1,
        object_key="EchoService",
        operation=operation,
        arguments_cdr=marshal_values(arguments),
    )
    giop_reply = ReplyMessage(
        request_id=1,
        status=ReplyStatus.NO_EXCEPTION,
        body_cdr=marshal_values((result,)),
    )
    return EncodingResult(
        label=label,
        soap_request_bytes=len(soap_request.to_wire()),
        soap_response_bytes=len(soap_response.to_wire()),
        giop_request_bytes=len(giop_request.to_bytes()),
        giop_reply_bytes=len(giop_reply.to_bytes()),
    )


def default_workloads() -> list[tuple[str, str, tuple[Any, ...], Any]]:
    """The payload sweep: primitives, strings of growing size, arrays, structs."""
    workloads: list[tuple[str, str, tuple[Any, ...], Any]] = [
        ("two ints", "add", (3, 4), 7),
        ("small string", "echo", ("hello",), "hello"),
        ("medium string", "echo", ("x" * 256,), "x" * 256),
        ("large string", "echo", ("x" * 4096,), "x" * 4096),
        ("int array (100)", "total", (list(range(100)),), sum(range(100))),
        ("struct", "locate", ({"street": "1 Brookings Dr", "number": 1045},), True),
        (
            "struct array (25)",
            "batch",
            ([{"street": f"{i} Main St", "number": i} for i in range(25)],),
            25,
        ),
    ]
    return workloads


def run_encoding_comparison() -> list[EncodingResult]:
    """Measure the default payload sweep."""
    return [measure_call(label, op, args, result) for label, op, args, result in default_workloads()]
