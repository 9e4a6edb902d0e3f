"""Latency and CPU-cost models for the simulated network.

Table 1 of the paper reports round-trip times of 0.42–0.58 seconds for a
single RMI call across a T1 LAN between a 1 GHz PowerBook client and a
3.2 GHz Pentium 4 server, including XML or CDR processing on 2004-era
middleware stacks.  The models below capture the *components* of those
numbers:

* network propagation and serialization delay (``LatencyModel``);
* per-endpoint CPU cost of parsing/generating messages, dispatching calls via
  reflection, and the extra indirection SDE introduces (``CostModel``).

The constants in :func:`t1_lan_profile` are calibrated so the reproduction of
Table 1 lands in the same order of magnitude and, more importantly, preserves
the paper's qualitative shape: CORBA beats SOAP, and the SDE variants stay
within roughly 25% of their static counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_non_negative


@dataclass(frozen=True)
class LatencyModel:
    """One-way network delay as a function of message size.

    Attributes
    ----------
    propagation:
        Fixed one-way delay in seconds (distance, switching, kernel).
    bandwidth_bytes_per_second:
        Link bandwidth; ``0`` means infinite bandwidth.
    per_message_overhead:
        Fixed per-message cost (connection handling, TCP/HTTP framing).
    """

    propagation: float = 0.0005
    bandwidth_bytes_per_second: float = 193_000.0  # 1.544 Mbit/s T1 line
    per_message_overhead: float = 0.001

    def __post_init__(self) -> None:
        require_non_negative(self.propagation, "propagation")
        require_non_negative(self.bandwidth_bytes_per_second, "bandwidth_bytes_per_second")
        require_non_negative(self.per_message_overhead, "per_message_overhead")

    def one_way_delay(self, size_bytes: int) -> float:
        """Return the one-way delay for a message of ``size_bytes`` bytes."""
        if size_bytes < 0:  # inline: this runs once per message sent
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes!r}")
        transmission = 0.0
        if self.bandwidth_bytes_per_second > 0:
            transmission = size_bytes / self.bandwidth_bytes_per_second
        return self.propagation + self.per_message_overhead + transmission


@dataclass(frozen=True)
class CostModel:
    """Per-endpoint CPU cost of handling a message.

    Attributes
    ----------
    fixed_dispatch:
        Base cost of receiving a request and invoking a statically bound
        handler (socket handling, thread hand-off).
    text_parse_per_byte:
        Cost per byte of parsing or generating a *textual* (XML) message.
        SOAP pays this on both request and response.
    binary_parse_per_byte:
        Cost per byte of marshalling/unmarshalling a *binary* (CDR/GIOP)
        message.  Significantly cheaper than text.
    reflection_overhead:
        Extra cost paid when the call is dispatched through the dynamic-class
        reflection path (the SDE servers) rather than a compiled static stub.
    interface_check:
        Cost of the SDE call handler's interface-consistency check (matching
        the request against the live dynamic interface, §5.1.3/§5.2.3).
    dsi_overhead:
        Additional cost of dispatching through the Dynamic Skeleton Interface
        instead of a compiled skeleton (SDE's CORBA subsystem, §5.2.2).
    """

    fixed_dispatch: float = 0.010
    text_parse_per_byte: float = 0.000045
    binary_parse_per_byte: float = 0.000012
    reflection_overhead: float = 0.020
    interface_check: float = 0.008
    dsi_overhead: float = 0.015

    def __post_init__(self) -> None:
        for name in (
            "fixed_dispatch",
            "text_parse_per_byte",
            "binary_parse_per_byte",
            "reflection_overhead",
            "interface_check",
            "dsi_overhead",
        ):
            require_non_negative(getattr(self, name), name)

    def text_processing(self, size_bytes: int) -> float:
        """CPU cost of parsing or producing a textual message of this size."""
        require_non_negative(size_bytes, "size_bytes")
        return self.fixed_dispatch + size_bytes * self.text_parse_per_byte

    def binary_processing(self, size_bytes: int) -> float:
        """CPU cost of marshalling a binary message of this size."""
        require_non_negative(size_bytes, "size_bytes")
        return self.fixed_dispatch + size_bytes * self.binary_parse_per_byte

    def dynamic_dispatch_overhead(self) -> float:
        """Extra cost per call of the live (SDE) dispatch path."""
        return self.reflection_overhead + self.interface_check


def t1_lan_profile() -> LatencyModel:
    """The paper's testbed: two machines on the same T1 local-area network."""
    return LatencyModel(
        propagation=0.0008,
        bandwidth_bytes_per_second=193_000.0,
        per_message_overhead=0.004,
    )


def loopback_profile() -> LatencyModel:
    """Both endpoints on one machine: negligible propagation, huge bandwidth."""
    return LatencyModel(
        propagation=0.00002,
        bandwidth_bytes_per_second=500_000_000.0,
        per_message_overhead=0.00005,
    )


def wan_profile() -> LatencyModel:
    """A wide-area profile: 40 ms propagation, 1 MB/s, 5 ms per message."""
    return LatencyModel(
        propagation=0.040,
        bandwidth_bytes_per_second=1_000_000.0,
        per_message_overhead=0.005,
    )


def era_2004_cost_model() -> CostModel:
    """CPU cost constants calibrated for the paper's 2004-era middleware.

    The absolute values are tuned so that a small echo-style SOAP call over
    :func:`t1_lan_profile` lands around half a second of round-trip time, as
    in Table 1, with the SOAP/CORBA and dynamic/static gaps preserved
    (CORBA faster than SOAP; SDE within roughly 25% of the static servers).
    """
    return CostModel(
        fixed_dispatch=0.055,
        text_parse_per_byte=0.000050,
        binary_parse_per_byte=0.000012,
        reflection_overhead=0.030,
        interface_check=0.015,
        dsi_overhead=0.040,
    )
