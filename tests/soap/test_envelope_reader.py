"""The SOAP envelope reader: the written form without ElementTree, all else with it.

``SoapRequest.from_xml`` and ``SoapResponse.from_xml`` scan the form the
envelope writer emits for requests and value responses, and hand any other
text, Fault replies included, to the reference reader, which parses it with
ElementTree.  A SOAP call's host cost rests on the scan taking every request
and value response the system itself writes, so the first tests make the
reference reader raise at anything but a Fault and run whole scenarios
through it.  The others pin that forms the scan does not take still read as
they always did.
"""

from __future__ import annotations

import pytest

from repro import STRING, RetryPolicy, Scenario, op, rolling, upgrade
from repro.cluster.presets import fault_drill_scenario
from repro.core.sde import SDEConfig
from repro.errors import SoapError
from repro.rmitypes import ArrayType, FieldDef, INT, StructType, TypeRegistry
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.soap.faults import SoapFault


@pytest.fixture
def reference_reads(monkeypatch):
    """Make both reference readers record the text they get and raise
    unless it is a Fault reply, which they still read."""
    reads: list[str] = []
    for cls in (SoapRequest, SoapResponse):

        def refuse(cls, text, registry, reference=cls._from_tree):
            reads.append(text)
            if "<soapenv:Fault>" not in text:
                raise AssertionError(f"reference reader used for {text!r}")
            return reference(text, registry)

        monkeypatch.setattr(cls, "_from_tree", classmethod(refuse))
    return reads


def _soap_clients(report):
    clients = [client for client in report.clients if client.protocol == "soap"]
    assert clients
    return clients


class TestEveryWrittenEnvelopeSkipsTheReference:
    def test_fault_drill(self, reference_reads):
        report = fault_drill_scenario(32).run()
        assert reference_reads == []
        assert sum(client.successes for client in _soap_clients(report)) > 0

    def test_fault_drill_with_trace_headers(self, reference_reads):
        report = fault_drill_scenario(32).run(obs=True)
        assert reference_reads == []
        assert sum(client.successes for client in _soap_clients(report)) > 0

    def test_breaking_rolling_upgrade_with_stale_faults(self, reference_reads):
        echo = op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)
        echo_v2 = op("echo_v2", (("m", STRING),), STRING, body=lambda _self, m: m + "!")
        breaking = upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"})
        report = (
            Scenario(name="soap-break-roll", sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("Echo", [echo], technology="soap", replicas=2)
            .clients(8, service="Echo", calls=8, arguments=("hi",), think_time=0.02,
                     arrival=0.001, retry=RetryPolicy(max_attempts=4, timeout=0.2))
            .at(0.03, rolling("Echo", breaking, batch_size=1, drain=0.03))
            .run()
        )
        clients = _soap_clients(report)
        stale_faults = sum(client.stale_faults for client in clients)
        assert stale_faults > 0
        assert sum(client.successes for client in clients) > 0
        # Only the stale Fault replies went to the reference reader.
        assert len(reference_reads) == stale_faults


POINT = StructType("Point", (FieldDef("x", INT), FieldDef("tags", ArrayType(STRING))))
REGISTRY = TypeRegistry([POINT])


class TestWrittenForm:
    def test_request_reads_back(self, reference_reads):
        request = SoapRequest(
            "move",
            ({"x": 3, "tags": ["a&b", "<c>"]}, "\r\n text \t"),
            (POINT, STRING),
            namespace="urn:repro:Shapes",
            trace_context="00-ab-cd-01",
        )
        assert SoapRequest.from_xml(request.to_xml(), REGISTRY) == request
        assert reference_reads == []

    def test_response_reads_back(self, reference_reads):
        response = SoapResponse.for_result("move", [[1, 2], []], ArrayType(ArrayType(INT)),
                                           namespace="urn:repro:Shapes")
        assert SoapResponse.from_xml(response.to_xml(), REGISTRY) == response
        assert reference_reads == []

    def test_faults_read_back_through_the_reference(self, reference_reads):
        faults = [
            SoapResponse.for_fault("", SoapFault.non_existent_method("move", 4)),
            SoapResponse.for_fault("", SoapFault("Server", "", "")),
        ]
        for fault in faults:
            assert SoapResponse.from_xml(fault.to_xml()) == fault
        assert len(reference_reads) == len(faults)


class TestOtherFormsGoToTheReference:
    def _variants(self, text: str) -> list[str]:
        return [
            text.replace("><", ">\n  <"),  # indented
            text.replace("<soapenv:Body>", "<!-- note --><soapenv:Body>"),
            text.replace("soapenv", "SOAP-ENV"),
            text.replace("hello", "<![CDATA[hello]]>"),
            text.replace('type="string">', 'type="string" >'),
            text + "\n",
        ]

    def test_well_formed_variants_read_as_the_written_form(self):
        request = SoapRequest("echo", ("hello",), (STRING,), namespace="urn:repro:Echo")
        text = request.to_xml()
        for variant in self._variants(text):
            assert variant != text
            assert SoapRequest.from_xml(variant) == request, variant
        response = SoapResponse.for_result("echo", "hello", STRING, namespace="urn:repro:Echo")
        for variant in self._variants(response.to_xml()):
            assert SoapResponse.from_xml(variant) == response, variant

    @pytest.mark.parametrize(
        "damage",
        [
            ("hello", "hel\x01lo"),
            ("hello", "hel\ufffelo"),
            ("hello", "hel]]>lo"),
            ("hello", "hel&bogus;lo"),
            ("</arg0>", "</arg1>"),
            ("<ns0:echo>", "<ns9:echo>"),
            ('xmlns:ns0="urn:repro:Echo"', 'xmlns:ns0="urn:repro:Echo" xmlns:ns0="urn:x"'),
        ],
    )
    def test_malformed_text_raises_the_reference_error(self, damage):
        text = SoapRequest("echo", ("hello",), (STRING,), namespace="urn:repro:Echo").to_xml()
        damaged = text.replace(*damage)
        with pytest.raises(SoapError) as raised:
            SoapRequest.from_xml(damaged)
        with pytest.raises(SoapError) as reference:
            SoapRequest._from_tree(damaged, None)
        assert str(raised.value) == str(reference.value)
        assert str(raised.value).startswith("malformed SOAP Request")
