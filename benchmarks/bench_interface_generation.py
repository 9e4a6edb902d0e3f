"""E7 — interface-generation cost versus interface size (§5.6 premise).

The stable-change mechanism exists because "the generation and publication of
the server interface description is a relatively expensive operation".  This
benchmark measures the wall-clock cost of generating WSDL and CORBA-IDL
documents as the number of distributed operations grows, plus the cost of the
full generate→publish→fetch→parse round trip a client refresh pays.

Run with:  pytest benchmarks/bench_interface_generation.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.corba.idl import generate_idl, parse_idl
from repro.experiments.interface_generation import build_interface, run_interface_generation_sweep
from repro.soap.wsdl import generate_wsdl, parse_wsdl


@pytest.mark.benchmark(group="interface-generation")
@pytest.mark.parametrize("operations", [5, 25, 100])
def test_wsdl_generation_cost(benchmark, operations):
    description = build_interface(operations)
    document = benchmark(generate_wsdl, description)
    assert parse_wsdl(document).same_signature(description)
    benchmark.extra_info["operations"] = operations
    benchmark.extra_info["document_bytes"] = len(document)


@pytest.mark.benchmark(group="interface-generation")
@pytest.mark.parametrize("operations", [5, 25, 100])
def test_idl_generation_cost(benchmark, operations):
    description = build_interface(operations)
    document = benchmark(generate_idl, description)
    assert parse_idl(document).same_signature(description)
    benchmark.extra_info["operations"] = operations
    benchmark.extra_info["document_bytes"] = len(document)


@pytest.mark.benchmark(group="interface-generation")
def test_generate_parse_roundtrip_cost(benchmark):
    """The full cost of a refresh that meets a new document: generate + parse both.

    ``parse_wsdl``/``parse_idl`` memoise by document text, and every round
    here renders the same text, so the round trip calls the unmemoised parse
    (``__wrapped__``) to time a real parse rather than a memo lookup.
    """
    description = build_interface(25)

    def roundtrip():
        parse_wsdl.__wrapped__(generate_wsdl(description))
        parse_idl.__wrapped__(generate_idl(description))

    benchmark(roundtrip)


@pytest.mark.benchmark(group="interface-generation")
def test_document_size_sweep(benchmark):
    results = benchmark(run_interface_generation_sweep)
    sizes = [(result.operations, result.wsdl_bytes, result.idl_bytes) for result in results]
    assert sizes == sorted(sizes)
    print("\noperations  WSDL bytes  IDL bytes")
    for operations, wsdl_bytes, idl_bytes in sizes:
        print(f"{operations:10d}  {wsdl_bytes:10d}  {idl_bytes:9d}")
    benchmark.extra_info["sweep"] = sizes
