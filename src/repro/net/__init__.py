"""Simulated network substrate.

The paper's evaluation (Table 1) runs a client laptop and a server desktop on
the same T1 local-area network.  This package provides a deterministic
in-process replacement: named hosts attached to a :class:`Network`, message
delivery delayed by a configurable :class:`~repro.net.latency.LatencyModel`,
and per-host CPU cost accounting through
:class:`~repro.net.latency.CostModel`.  The HTTP substrate used to publish
WSDL/IDL documents and to carry SOAP traffic lives in :mod:`repro.net.http`.
"""

from repro.net.latency import (
    CostModel,
    LatencyModel,
    t1_lan_profile,
    loopback_profile,
    wan_profile,
)
from repro.net.simnet import Host, Message, Network, PortListener
from repro.net.transport import (
    ClientChannel,
    Connection,
    Deferred,
    Endpoint,
    TransportStats,
)

__all__ = [
    "CostModel",
    "LatencyModel",
    "t1_lan_profile",
    "loopback_profile",
    "wan_profile",
    "Host",
    "Message",
    "Network",
    "PortListener",
    "ClientChannel",
    "Connection",
    "Deferred",
    "Endpoint",
    "TransportStats",
]
