"""The per-message chain: what reaches the wire, and how many frames it costs.

Every RMI message walks scheduler → simnet → transport → HTTP/GIOP on both
legs of a call.  Report fingerprints cover times and counts but not payload
bytes, so the first test pins every delivered message of a small mixed
SOAP/CORBA fault drill byte for byte.  The second counts the Python frames
the simulation core and the network stack spend on a drill, so a change
that adds a frame per message fails here and names the cost.
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


def _chain_calls(function) -> int:
    """Python ``call`` events in ``repro.net``/``repro.sim`` code while
    ``function`` runs, with the collector drained and paused (a collection
    mid-run would finalize earlier tests' garbage)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith(
            ("repro.net", "repro.sim")
        ):
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
        it to 33,239.  The bound is that figure plus 2%: a change that adds
        a frame per message (about 930 more) fails here.
        """
        runtime = fault_drill_scenario(64).build()
        assert _chain_calls(runtime.run) <= 33_904
