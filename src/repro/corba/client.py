"""Static CORBA client — the "OpenORB client" baseline of Table 1 / Figure 2.

The client follows the interaction of Figure 2: it obtains the CORBA-IDL
document and the IOR, initialises its client ORB from the IOR, and invokes
the methods declared in the IDL through typed stubs.
"""

from __future__ import annotations

from typing import Any

from repro.corba.idl import parse_idl
from repro.corba.ior import IOR
from repro.corba.orb import ClientOrb, RemoteObjectReference
from repro.errors import CorbaError
from repro.interface import InterfaceDescription, OperationSignature
from repro.net.latency import CostModel
from repro.net.simnet import Host


class CorbaStubMethod:
    """A typed client stub for one IDL-declared operation."""

    def __init__(self, signature: OperationSignature, target: RemoteObjectReference) -> None:
        self.signature = signature
        self._target = target
        self.call_count = 0
        self.__name__ = signature.name
        self.__doc__ = f"Remote CORBA stub for {signature.describe()}"

    def __call__(self, *arguments: Any) -> Any:
        if len(arguments) != self.signature.arity:
            raise CorbaError(
                f"operation {self.signature.name!r} expects {self.signature.arity} "
                f"argument(s), got {len(arguments)}"
            )
        for value, parameter in zip(arguments, self.signature.parameters):
            parameter.param_type.validate(value)
        self.call_count += 1
        return self._target.invoke(self.signature.name, *arguments)

    def __repr__(self) -> str:
        return f"CorbaStubMethod({self.signature.describe()})"


class CorbaStub:
    """The compiled client-side view of an IDL interface."""

    def __init__(self, description: InterfaceDescription, target: RemoteObjectReference) -> None:
        self.description = description
        self.target = target
        self._methods = {
            operation.name: CorbaStubMethod(operation, target)
            for operation in description.operations
        }

    @property
    def operation_names(self) -> tuple[str, ...]:
        """Names of all operations available on this stub."""
        return tuple(self._methods)

    def method(self, name: str) -> CorbaStubMethod:
        """Return the stub method for ``name``."""
        try:
            return self._methods[name]
        except KeyError:
            raise CorbaError(
                f"operation {name!r} is not declared in the IDL "
                f"(available: {', '.join(self._methods) or 'none'})"
            ) from None

    def invoke(self, name: str, *arguments: Any) -> Any:
        """Invoke operation ``name`` with ``arguments``."""
        return self.method(name)(*arguments)

    def __getattr__(self, name: str) -> CorbaStubMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.method(name)
        except CorbaError as exc:
            raise AttributeError(str(exc)) from None

    def __repr__(self) -> str:
        return f"CorbaStub({self.description.service_name}, operations={list(self._methods)})"


class StaticCorbaClient:
    """A static CORBA-RMI client attached to a simulated host."""

    def __init__(
        self,
        host: Host,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.host = host
        self.orb = ClientOrb(host, cost_model=cost_model, speed_factor=speed_factor)
        self.description: InterfaceDescription | None = None
        self.stub: CorbaStub | None = None

    # -- connection (Figure 2, step 1) ----------------------------------------

    def connect(self, idl_document: str, ior: IOR | str) -> CorbaStub:
        """Parse the IDL, initialise the client ORB from the IOR and build stubs."""
        self.description = parse_idl(idl_document)
        reference = (
            self.orb.string_to_object(ior) if isinstance(ior, str) else self.orb.object_for(ior)
        )
        self.stub = CorbaStub(self.description, reference)
        return self.stub

    # -- invocation (Figure 2, steps 2 and 3) ------------------------------------

    def invoke(self, operation: str, *arguments: Any) -> Any:
        """Invoke ``operation`` through the compiled stub."""
        if self.stub is None:
            raise CorbaError("client is not connected; call connect() first")
        return self.stub.invoke(operation, *arguments)

    def close(self) -> None:
        """Release the client ORB's connections."""
        self.orb.close()

    def __repr__(self) -> str:
        target = self.description.service_name if self.description else "<disconnected>"
        return f"StaticCorbaClient(host={self.host.name!r}, target={target})"
