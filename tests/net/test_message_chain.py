"""The per-message chain: what reaches the wire, and how many frames it costs.

Every RMI message walks scheduler → simnet → transport → HTTP/GIOP on both
legs of a call.  Report fingerprints cover times and counts but not payload
bytes, so the first test pins every delivered message of a small mixed
SOAP/CORBA fault drill byte for byte.  The others count the Python frames
the simulation core and the network stack, the GIOP/CDR and HTTP codecs,
and the SOAP envelope codec spend on a drill, so a change that adds a frame
per message fails here and names the cost.
"""

from __future__ import annotations

import gc
import sys

from repro.cluster.presets import fault_drill_scenario


class TestWireIdentity:
    def test_fault_drill_wire_bytes_are_pinned(self, delivered_digest):
        runtime = fault_drill_scenario(32).build()
        runtime.world.network.record_deliveries = True
        runtime.run()
        assert delivered_digest(runtime) == (
            450,
            "9531ff2c714bc1381d0f12f91da54db0e0e5148f77d8879335f7e0f6b359f4fc",
        )


def _chain_calls(function, prefixes: tuple[str, ...]) -> int:
    """Python ``call`` events in code of the ``prefixes`` modules while
    ``function`` runs, with the collector drained and paused (a collection
    mid-run would finalize earlier tests' garbage)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith(prefixes):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestChainLength:
    def test_fault_drill_frames_stay_within_budget(self):
        """A deterministic guard, not a timing.

        Running ``fault_drill_scenario(64)`` (889 events, 931 messages sent)
        cost 73,757 frames in the simulation core and the network stack when
        every message computed its delay twice, went through a listener
        adapter and per-message closures, and read virtual time through two
        properties; shortening that chain brought it to 35,198.  Waiting on
        the reply deferred directly instead of through a second future, and
        routing through plain dicts instead of a route-table class, brought
        it to 33,239.  One future per request (the reply decoded in the
        transport's parse), HTTP messages parsed without re-running their
        constructor checks, the network's transmit step folded into
        ``Host.send`` and the scheduler's cancel accounting into
        ``Event.cancel`` brought it to 25,395.  Framing each SOAP call's POST
        from an endpoint parsed once per bind, and rendering a fixed start
        line and header set once, brought it to 24,921.  Parsing each
        distinct HTTP head once, and sending SOAP replies and published
        documents as bytes framed once, brought it from 24,921 to 23,361.
        The bound is that figure plus 2%: a change that adds a frame per
        message (about 930 more) fails here.
        """
        runtime = fault_drill_scenario(64).build()
        assert _chain_calls(runtime.run, ("repro.net", "repro.sim")) <= 23_828

    def test_fault_drill_codec_frames_stay_within_budget(self):
        """The same guard for the protocol codecs, GIOP/CDR and HTTP.

        The drill cost 24,189 frames in ``repro.corba`` and
        ``repro.net.http`` when CDR was read one primitive per method call,
        the GIOP header field by field, and every call chained a second
        future onto the transport's.  Framing GIOP and CDR in one ``struct``
        pass and encoding synchronous server results in the dispatch frame
        brought it to 12,685; framing SOAP POSTs from a prepared request
        line and headers, to 12,201, and later changes to 11,921.  Parsing
        each distinct HTTP head once and sending SOAP replies and published
        documents as bytes framed once brought it from 11,921 to 10,330.
        The bound is that figure plus 2%.  (IDL parses and HTTP heads are
        memoised per process, so a test run that parsed the drill's IDL or
        heads earlier counts fewer; the bound is an upper one.)
        """
        runtime = fault_drill_scenario(64).build()
        assert _chain_calls(runtime.run, ("repro.corba", "repro.net.http")) <= 10_537

    def test_fault_drill_soap_frames_stay_within_budget(self):
        """The same guard for the SOAP envelope codec and ``repro.xmlutil``.

        The drill cost 8,087 frames there when every envelope was read
        through an ElementTree tree.  Reading requests and value responses
        by one scan of the text the writer emits brought it to 6,920.
        Framing each SOAP reply from the envelope's own wire bytes, not a
        second ``to_xml`` encode, brought it to 6,789.  Rendering a published
        WSDL document on its first read instead of at every publication (the
        deploy-time minimal documents and the mid-run edit's version, which
        no client fetches, are never rendered) brought it from 6,789 to
        6,215.  The bound is that figure plus 2%.  (WSDL parses are memoised per process, so the bound
        is an upper one here too.)
        """
        runtime = fault_drill_scenario(64).build()
        assert _chain_calls(runtime.run, ("repro.soap", "repro.xmlutil")) <= 6_339
