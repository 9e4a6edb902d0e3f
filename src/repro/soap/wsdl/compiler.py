"""WSDL stub compiler — the analogue of Axis' ``WSDL2Java``.

Given a parsed :class:`~repro.interface.InterfaceDescription` and a transport
callable (anything that can take a :class:`~repro.soap.envelope.SoapRequest`
and return a :class:`~repro.soap.envelope.SoapResponse`), :class:`CompiledStub`
exposes the service's operations as callable server-method stubs.  The static
SOAP client (§2.1, Figure 1) is built on it.  CDE's dynamic bindings are not:
they call through the client protocol stacks of :mod:`repro.cluster.protocols`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SoapError, SoapFaultError
from repro.interface import InterfaceDescription, OperationSignature
from repro.soap.envelope import SoapRequest, SoapResponse

Transport = Callable[[SoapRequest], SoapResponse]


class StubMethod:
    """A single callable stub for one remote operation."""

    def __init__(
        self,
        signature: OperationSignature,
        namespace: str,
        transport: Transport,
    ) -> None:
        self.signature = signature
        self._namespace = namespace
        self._transport = transport
        self.call_count = 0
        self.__name__ = signature.name
        self.__doc__ = f"Remote stub for {signature.describe()}"

    def __call__(self, *arguments: Any) -> Any:
        if len(arguments) != self.signature.arity:
            raise SoapError(
                f"operation {self.signature.name!r} expects {self.signature.arity} "
                f"argument(s), got {len(arguments)}"
            )
        for value, parameter in zip(arguments, self.signature.parameters):
            parameter.param_type.validate(value)
        request = SoapRequest(
            operation=self.signature.name,
            arguments=tuple(arguments),
            argument_types=self.signature.parameter_types(),
            namespace=self._namespace,
        )
        self.call_count += 1
        response = self._transport(request)
        return unwrap_response(response)

    def __repr__(self) -> str:
        return f"StubMethod({self.signature.describe()})"


def unwrap_response(response: SoapResponse) -> Any:
    """Return the response value, raising :class:`SoapFaultError` on faults."""
    if response.is_fault:
        raise SoapFaultError(response.fault)
    return response.return_value


class CompiledStub:
    """The compiled client-side view of a service.

    Operations are exposed both as attributes (``stub.add(2, 3)``) and via
    :meth:`invoke` for dynamically-named dispatch (what CDE uses when the
    operation name itself is part of the live development loop).
    """

    def __init__(self, description: InterfaceDescription, transport: Transport) -> None:
        self.description = description
        self._transport = transport
        self._methods: dict[str, StubMethod] = {
            operation.name: StubMethod(operation, description.namespace, transport)
            for operation in description.operations
        }

    @property
    def operation_names(self) -> tuple[str, ...]:
        """Names of all operations available on this stub."""
        return tuple(self._methods)

    def method(self, name: str) -> StubMethod:
        """Return the stub method for ``name``."""
        try:
            return self._methods[name]
        except KeyError:
            raise SoapError(
                f"operation {name!r} is not part of the compiled interface "
                f"(available: {', '.join(self._methods) or 'none'})"
            ) from None

    def invoke(self, name: str, *arguments: Any) -> Any:
        """Invoke operation ``name`` with ``arguments``."""
        return self.method(name)(*arguments)

    def __getattr__(self, name: str) -> StubMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.method(name)
        except SoapError as exc:
            raise AttributeError(str(exc)) from None

    def __repr__(self) -> str:
        return (
            f"CompiledStub({self.description.service_name}, "
            f"operations={list(self._methods)})"
        )

