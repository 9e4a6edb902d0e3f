"""Discrete-event simulation kernel.

The original system runs on real wall-clock time (JVM timers, LAN latency).
To make the paper's timing-sensitive mechanisms — the stable-change publisher
(§5.6), the stale-call blocking protocol (§5.7) and the client/server
interleavings of Figures 7 and 8 — deterministic and testable, everything in
this reproduction is driven by a virtual clock and an event scheduler.
"""

from repro.sim.scheduler import Event, Scheduler
from repro.sim.servercore import ServerCore
from repro.sim.timers import ResettableTimer, PeriodicTimer

__all__ = [
    "Event",
    "Scheduler",
    "ServerCore",
    "ResettableTimer",
    "PeriodicTimer",
]
