"""A fixed pure-Python job that measures how fast the host is right now.

Shared machines change speed by tens of percent within seconds (other
tenants, frequency changes), which swamps a 10% regression in raw wall
time.  The benchmark times this job just before every rep and scales the
rep by ``REFERENCE_S / reference time``, so host times read as if measured
on a host where this job takes ``REFERENCE_S``.

The job imports nothing from ``repro`` and must never change: then its time
depends only on the host, and a change to the program under test moves the
scaled times exactly as much as the raw ones.  It is shaped like the
simulator's inner loop (heap-scheduled callbacks, HTTP-style framing,
header parsing, struct packing) so that contention slows both alike.
"""

from __future__ import annotations

import heapq
import struct
import time

#: About the job's time on a quiet 2-core Intel Xeon VM with CPython 3.11.
REFERENCE_S = 0.025


class _Message:
    __slots__ = ("src", "dst", "payload", "seq")

    def __init__(self, src: str, dst: str, payload: bytes, seq: int) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.seq = seq


class _MiniNet:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.now = 0.0
        self.inbox: dict[str, list[int]] = {}
        self.delivered = 0

    def schedule(self, delay: float, callback, *args) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, callback, args))

    def send(self, src: str, dst: str, body: str) -> None:
        header = "POST /%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (dst, len(body))
        payload = header.encode("ascii") + body.encode("utf-8")
        self.schedule(0.001 + (self.seq % 7) * 1e-4, self.deliver, _Message(src, dst, payload, self.seq))

    def deliver(self, message: _Message) -> None:
        head, _, body = message.payload.partition(b"\r\n\r\n")
        fields = dict(line.split(": ", 1) for line in head.decode("ascii").split("\r\n")[1:])
        self.inbox.setdefault(message.dst, []).append(int(fields["Content-Length"]))
        self.delivered += 1
        if message.seq % 2:
            self.send(message.dst, message.src, "<r>%s</r>" % body.decode("utf-8")[:20])
        else:
            struct.unpack(">id", struct.pack(">id", message.seq, self.now))

    def run(self) -> None:
        while self.queue:
            self.now, _seq, callback, args = heapq.heappop(self.queue)
            callback(*args)


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed job."""
    start = time.perf_counter()
    net = _MiniNet()
    for client in range(240):
        for call in range(12):
            net.schedule(call * 0.01 + client * 1e-5, net.send, f"c{client}",
                         f"server-{client % 4}", f"<echo>hello {call}</echo>")
    net.run()
    return time.perf_counter() - start
