"""The WSDL and CORBA-IDL parsers memoise their result by document text.

A published description is an immutable value, so every client that fetched
the same document may share one parse.  These tests count the real parses
below the memo, check that errors are never remembered and that the memo
keeps to its bound.
"""

from __future__ import annotations

import pytest

from repro.cluster.presets import fault_drill_scenario
from repro.corba.idl import generate_idl, parse_idl
from repro.corba.idl import parser as idl_parser
from repro.errors import IdlError, WsdlError
from repro.interface import DESCRIPTION_MEMO_SIZE, InterfaceDescription
from repro.soap.wsdl import generate_wsdl, parse_wsdl
from repro.soap.wsdl import parser as wsdl_parser

#: (memoised parser, its module, the name of the real parse below the memo)
PARSERS = {
    "wsdl": (parse_wsdl, wsdl_parser, "_parse_wsdl"),
    "idl": (parse_idl, idl_parser, "_parse_idl"),
}


def _clear_memos() -> None:
    for memoised, _module, _inner in PARSERS.values():
        memoised.cache_clear()


@pytest.fixture
def real_parses(monkeypatch):
    """Empty memos, and the texts each real (unmemoised) parse received."""
    texts: dict[str, list[str]] = {kind: [] for kind in PARSERS}
    for kind, (_memoised, module, inner) in PARSERS.items():
        real = getattr(module, inner)

        def counting(text, real=real, seen=texts[kind]):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(module, inner, counting)
    _clear_memos()
    yield texts
    _clear_memos()


def test_fault_drill_parses_each_published_document_once(real_parses):
    distinct = {}
    for clients in (16, 64):
        _clear_memos()
        for texts in real_parses.values():
            texts.clear()
        report = fault_drill_scenario(clients).run()
        assert report.total_successes == report.total_calls == clients * 4
        for kind, texts in real_parses.items():
            memo = PARSERS[kind][0].cache_info()
            assert len(texts) == len(set(texts)) == memo.misses
            # Half the fleet speaks each protocol; each of its clients
            # parses the documents of both replicas.
            assert memo.hits + memo.misses == clients
        distinct[clients] = {kind: len(texts) for kind, texts in real_parses.items()}
    # One document per replica of each service, whatever the fleet size.
    assert distinct[16] == distinct[64] == {"wsdl": 2, "idl": 2}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_malformed_document_raises_on_every_call(real_parses, kind):
    memoised, _module, _inner = PARSERS[kind]
    document, error = {
        "wsdl": ("<wsdl:definitions", WsdlError),
        "idl": ("module Broken { interface X { long op(; };", IdlError),
    }[kind]
    for _ in range(3):
        with pytest.raises(error):
            memoised(document)
    assert real_parses[kind] == [document] * 3
    assert memoised.cache_info().currsize == 0


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_memo_keeps_to_its_bound(real_parses, kind):
    memoised, _module, _inner = PARSERS[kind]
    generate = generate_wsdl if kind == "wsdl" else generate_idl
    documents = [
        generate(InterfaceDescription.minimal("Svc", "urn:memo", f"http://server:{port}/Svc"))
        for port in range(DESCRIPTION_MEMO_SIZE + 8)
    ]
    for document in documents:
        memoised(document)
    info = memoised.cache_info()
    assert info.currsize == info.maxsize == DESCRIPTION_MEMO_SIZE
    assert len(real_parses[kind]) == len(documents)
    memoised(documents[-1])  # still remembered
    assert len(real_parses[kind]) == len(documents)
    memoised(documents[0])  # evicted, so parsed again
    assert len(real_parses[kind]) == len(documents) + 1
