"""Shared exception hierarchy for the ``repro`` package.

Every layer of the system (simulation kernel, network substrate, SOAP and
CORBA stacks, the JPie dynamic-class environment, and the SDE/CDE middleware)
raises exceptions rooted at :class:`ReproError` so that applications can catch
the whole family with a single handler while tests can assert on precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulation kernel."""


class SchedulerError(SimulationError):
    """Raised on invalid scheduler operations (e.g. negative delays)."""


class DeadlockError(SimulationError):
    """Raised when the scheduler is asked to wait for a condition that can
    never become true because no further events are pending."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for errors raised by the simulated network."""


class HostNotFoundError(NetworkError):
    """Raised when a message is addressed to an unknown host."""


class PortInUseError(NetworkError):
    """Raised when binding a listener to a port that is already bound."""


class ConnectionRefusedError(NetworkError):
    """Raised when no listener is bound to the destination port."""


class TransportError(NetworkError):
    """Raised when a message cannot be delivered (e.g. network partition)."""


class ConnectionAbortedError(TransportError):
    """Raised (asynchronously, through a failed :class:`Deferred`) when an
    in-flight request's connection is torn down — the peer crashed or the
    fault layer aborted the link — so callers fail fast instead of hanging."""


class HttpError(NetworkError):
    """Raised for malformed HTTP messages or client-side HTTP failures."""


# ---------------------------------------------------------------------------
# XML utilities
# ---------------------------------------------------------------------------


class XmlError(ReproError):
    """Raised for malformed XML documents or invalid qualified names."""


# ---------------------------------------------------------------------------
# SOAP stack
# ---------------------------------------------------------------------------


class SoapError(ReproError):
    """Base class for SOAP-stack errors."""


class SoapEncodingError(SoapError):
    """Raised when a value cannot be encoded to, or decoded from, SOAP XML."""


class WsdlError(SoapError):
    """Raised for malformed or inconsistent WSDL documents."""


# ---------------------------------------------------------------------------
# CORBA stack
# ---------------------------------------------------------------------------


class CorbaError(ReproError):
    """Base class for CORBA-stack errors."""


class IdlError(CorbaError):
    """Raised for malformed or inconsistent CORBA-IDL documents."""


class IorError(CorbaError):
    """Raised when an Interoperable Object Reference cannot be parsed."""


class GiopError(CorbaError):
    """Raised for malformed GIOP messages."""


class MarshalError(CorbaError):
    """Raised when a value cannot be marshalled into, or from, CDR form."""


class CorbaSystemException(CorbaError):
    """CORBA system exception surfaced to the client (BAD_OPERATION, ...).

    Attributes
    ----------
    name:
        The CORBA system exception name, e.g. ``"BAD_OPERATION"``.
    minor:
        Minor code giving vendor-specific detail.
    """

    def __init__(self, name: str, detail: str = "", minor: int = 0):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name
        self.detail = detail
        self.minor = minor


class CorbaUserException(CorbaError):
    """A user exception raised by a servant and propagated to the client."""

    def __init__(self, type_name: str, message: str = ""):
        super().__init__(f"{type_name}: {message}" if message else type_name)
        self.type_name = type_name
        self.message = message


# ---------------------------------------------------------------------------
# JPie dynamic-class environment
# ---------------------------------------------------------------------------


class JPieError(ReproError):
    """Base class for errors raised by the dynamic-class environment."""


class DynamicClassError(JPieError):
    """Raised on invalid dynamic-class mutations (duplicate members, ...)."""


class MemberNotFoundError(JPieError):
    """Raised when a dynamic method or field lookup fails."""


class SignatureError(JPieError):
    """Raised when a call does not match any live method signature."""


class ExportError(JPieError):
    """Raised when a dynamic class cannot be exported to a static class."""


# ---------------------------------------------------------------------------
# SDE / CDE middleware (the paper's contribution)
# ---------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """Base class for SDE/CDE middleware errors."""


class DeploymentError(MiddlewareError):
    """Raised when automated deployment of a server class fails."""


class ServerNotInitializedError(MiddlewareError):
    """Raised (and transmitted as a fault) when a call arrives before any
    instance of the gateway subclass exists — §5.1.3 of the paper."""


class NonExistentMethodError(MiddlewareError):
    """Raised (and transmitted as a fault) when a client invokes a method
    that is no longer part of the server interface — §5.7 of the paper."""

    def __init__(self, operation: str, interface_version: int | None = None):
        detail = f"Non existent Method: {operation}"
        if interface_version is not None:
            detail += f" (published interface version {interface_version})"
        super().__init__(detail)
        self.operation = operation
        self.interface_version = interface_version


class MalformedRequestError(MiddlewareError):
    """Raised when an incoming RMI request cannot be parsed — §5.1.3."""


class RemoteApplicationError(MiddlewareError):
    """Raised on the client when the server method threw an exception.

    The original exception is wrapped in a fault by the call handler
    (§5.1.3/§5.2.3); CDE surfaces it as this error so client code can
    distinguish application failures from middleware conditions.
    """

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class PublicationError(MiddlewareError):
    """Raised when the interface publisher cannot generate or publish a
    server interface description."""


class TechnologyError(MiddlewareError):
    """Raised when an unknown or misconfigured technology plug-in is used."""


# -- cluster / scenario layer ------------------------------------------------------


class ClusterError(ReproError):
    """Raised by the declarative Scenario API (:mod:`repro.cluster`)."""


class ServiceNotFoundError(ClusterError):
    """Raised when a scenario references a service the registry does not know."""


class NoAliveReplicaError(ClusterError):
    """Raised when every replica of a service is crashed (or, under
    version-aware routing, older than the client's §6 watermark) at
    selection time; clients with a retry policy treat it as a retryable
    failure and wait for a restart."""


# -- traffic layer -----------------------------------------------------------------


class TraceError(ClusterError):
    """Raised by the trace record/replay layer (:mod:`repro.traffic.trace`):
    unversioned or malformed trace files, records that do not read back
    (:mod:`repro.util.records`, naming the record), and scenarios that
    cannot be serialised (unregistered operation bodies, non-JSON
    arguments, untraceable timeline actions)."""


# -- interface-evolution layer -----------------------------------------------------


class EvolveError(ReproError):
    """Raised by the interface-evolution subsystem (:mod:`repro.evolve`)."""


class RolloutError(EvolveError):
    """Raised on invalid rollout plans (overlapping rollouts, empty upgrades)."""
