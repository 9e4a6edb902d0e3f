"""Property tests: same-instant delivery coalescing is invisible.

``Network.transmit`` lets a message join the previous delivery event when
both arrive at the same virtual instant and nothing was scheduled in
between.  No observer may tell: every payload arrives at its send time plus
the link's one-way delay, in ``(arrival time, send order)``.  Drops on a
partitioned link or at a crashed host are counted once per send.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.latency import LatencyModel
from repro.net.simnet import Address, Network
from repro.sim import Scheduler

#: A burst schedule: at each time bucket, send this many payloads of these
#: sizes (sizes repeat deterministically so equal-arrival runs happen often).
_bursts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # time bucket
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=10,
)

_DEST = Address("receiver", 80)

#: Finite bandwidth so different sizes produce different arrivals, while
#: equal sizes coalesce into shared delivery batches.
_LATENCY = LatencyModel(propagation=0.001, bandwidth_bytes_per_second=10_000.0)


def _payloads(sizes: list[int]) -> list[bytes]:
    # Distinct first byte per message so a reordering cannot cancel out.
    return [bytes([index % 256]) + b"x" * size for index, size in enumerate(sizes)]


def _build() -> tuple[Scheduler, Network, list]:
    scheduler = Scheduler()
    network = Network(scheduler, _LATENCY)
    network.add_host("sender")
    receiver = network.add_host("receiver")
    trace: list[tuple[float, bytes]] = []
    receiver.bind(80, lambda message, host: trace.append((host.network.scheduler.now, message.payload)))
    return scheduler, network, trace


class TestBatchedDeliveryIdentity:
    @given(bursts=_bursts)
    @settings(max_examples=100, deadline=None)
    def test_coalesced_deliveries_keep_time_and_send_order(self, bursts):
        scheduler, network, trace = _build()
        sender = network.host("sender")
        expected: list[tuple[float, int, bytes]] = []

        def send_burst(sizes: list[int]) -> None:
            for payload in _payloads(sizes):
                arrival = scheduler.now + _LATENCY.one_way_delay(len(payload))
                expected.append((arrival, len(expected), payload))
                sender.send(_DEST, payload)

        for bucket, sizes in bursts:
            scheduler.schedule(bucket * 0.01, lambda s=sizes: send_burst(s))
        scheduler.run_until_idle()
        assert trace == [(arrival, payload) for arrival, _, payload in sorted(expected)]


class TestScalarFallback:
    def _faulted(self, fault: str):
        scheduler, network, trace = _build()
        sender = network.host("sender")
        if fault == "partition":
            network.partition("sender", "receiver")
        elif fault == "down":
            network.host("receiver").down = True
        sent = [sender.send(_DEST, payload).message_id for payload in _payloads([10, 10, 20])]
        scheduler.run_until_idle()
        return trace, sent, network.messages_dropped

    def test_partitioned_link_counts_drops_identically(self):
        assert self._faulted("partition") == ([], [1, 2, 3], 3)

    def test_down_destination_counts_drops_identically(self):
        assert self._faulted("down") == ([], [1, 2, 3], 3)
