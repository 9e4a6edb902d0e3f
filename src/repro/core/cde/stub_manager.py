"""Client-side stub management.

"In CDE, we extend the live development model introduced by JPie to automate
addition, mutation, and deletion of dynamic server methods within dynamic
clients" (§2.3).  The :class:`ClientStubManager` keeps a dynamic class in the
client's JPie environment whose methods mirror the server interface; every
refresh of the binding updates that class in place, so client code written
against the stub class always sees the current server interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.interface import InterfaceDescription, OperationSignature
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.environment import JPieEnvironment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cde.binding import DynamicClientBinding


class ClientStubManager:
    """Maintains a dynamic stub class mirroring one server interface."""

    def __init__(
        self,
        binding: "DynamicClientBinding",
        environment: JPieEnvironment,
        class_name: str | None = None,
    ) -> None:
        self.binding = binding
        self.environment = environment
        self.class_name = class_name or f"{binding.service_name}Stub"
        self.stub_class: DynamicClass = environment.create_class(self.class_name)
        binding.stub_manager = self
        if binding.description is not None:
            self.update_from(binding.description)

    # -- stub maintenance ------------------------------------------------------

    def update_from(self, description: InterfaceDescription) -> None:
        """Reconcile the stub class with ``description``.

        Methods are added, removed or re-signatured in place; existing stub
        instances keep working because dynamic instances always dispatch
        through the current class definition.
        """
        wanted = {operation.name: operation for operation in description.operations}
        existing = {method.name: method for method in self.stub_class.methods}

        for name in list(existing):
            if name not in wanted:
                self.stub_class.remove_method(name)

        for name, operation in wanted.items():
            if name in existing:
                method = existing[name]
                if method.signature() != operation:
                    method.set_parameters(operation.parameters)
                    method.set_return_type(operation.return_type)
                method.set_body(self._body_for(operation))
            else:
                self.stub_class.add_method(
                    name,
                    operation.parameters,
                    operation.return_type,
                    body=self._body_for(operation),
                    distributed=False,
                )

    def _body_for(self, operation: OperationSignature):
        binding = self.binding

        def stub_body(_instance: Any, *arguments: Any) -> Any:
            return binding.invoke(operation.name, *arguments)

        stub_body.__doc__ = f"Client stub for remote operation {operation.describe()}"
        return stub_body

    # -- convenience -----------------------------------------------------------------

    def new_stub_instance(self):
        """Create a live stub instance whose methods call the remote server."""
        return self.stub_class.new_instance()

    @property
    def operation_names(self) -> tuple[str, ...]:
        """The operations currently exposed by the stub class."""
        return tuple(method.name for method in self.stub_class.methods)

    def __repr__(self) -> str:
        return (
            f"ClientStubManager({self.class_name!r}, operations={list(self.operation_names)})"
        )
