"""SOAP Faults.

The paper's SOAP Call Handler replies with three distinguished faults
(§5.1.3): "Server not initialized" while no instance of the gateway subclass
exists, "Malformed SOAP Request" when parsing fails, and "Non existent
Method" when the requested operation is not part of the live interface.
Application exceptions thrown by server methods are wrapped in a fault as
well.  This module defines the fault model and the factories for those cases;
:mod:`repro.soap.envelope` writes and reads the ``<soapenv:Fault>`` element.
"""

from __future__ import annotations

from dataclasses import dataclass


class FaultCodes:
    """SOAP 1.1 fault codes plus the SDE-specific fault strings."""

    CLIENT = "Client"
    SERVER = "Server"

    SERVER_NOT_INITIALIZED = "Server not initialized"
    MALFORMED_REQUEST = "Malformed SOAP Request"
    NON_EXISTENT_METHOD = "Non existent Method"
    APPLICATION_FAULT = "Application Fault"


@dataclass(frozen=True)
class SoapFault:
    """A SOAP Fault carried inside a SOAP Response."""

    fault_code: str
    fault_string: str
    detail: str = ""

    def __str__(self) -> str:
        if self.detail:
            return f"{self.fault_code}: {self.fault_string} ({self.detail})"
        return f"{self.fault_code}: {self.fault_string}"

    # -- factories -------------------------------------------------------

    @classmethod
    def server_not_initialized(cls) -> "SoapFault":
        """§5.1.3: the call arrived before any server instance existed."""
        return cls(FaultCodes.SERVER, FaultCodes.SERVER_NOT_INITIALIZED)

    @classmethod
    def malformed_request(cls, detail: str = "") -> "SoapFault":
        """§5.1.3: the incoming SOAP Request could not be parsed."""
        return cls(FaultCodes.CLIENT, FaultCodes.MALFORMED_REQUEST, detail)

    @classmethod
    def non_existent_method(cls, operation: str, interface_version: int | None = None) -> "SoapFault":
        """§5.7: the requested operation is not in the live interface."""
        detail = f"operation={operation}"
        if interface_version is not None:
            detail += f"; publishedVersion={interface_version}"
        return cls(FaultCodes.CLIENT, FaultCodes.NON_EXISTENT_METHOD, detail)

    @classmethod
    def application_fault(cls, exception: BaseException) -> "SoapFault":
        """§5.1.3: the server method threw; the exception is encapsulated."""
        return cls(
            FaultCodes.SERVER,
            FaultCodes.APPLICATION_FAULT,
            f"{type(exception).__name__}: {exception}",
        )

    # -- classification ----------------------------------------------------

    @property
    def is_non_existent_method(self) -> bool:
        """True for the §5.7 "Non existent Method" fault."""
        return self.fault_string == FaultCodes.NON_EXISTENT_METHOD

    @property
    def is_server_not_initialized(self) -> bool:
        """True for the "Server not initialized" fault."""
        return self.fault_string == FaultCodes.SERVER_NOT_INITIALIZED
