"""The Client Development Environment facade.

CDE "simplifies distributed application development by masking technical
differences between local and remote method invocations" (§2.3): the
developer connects to a server through any registered client protocol stack
and receives a :class:`~repro.core.cde.binding.DynamicClientBinding` plus,
optionally, a dynamic stub class managed by
:class:`~repro.core.cde.stub_manager.ClientStubManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.cde.binding import DynamicClientBinding
from repro.core.cde.stub_manager import ClientStubManager
from repro.jpie.debugger import JPieDebugger
from repro.jpie.environment import JPieEnvironment
from repro.net.simnet import Host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.protocols import ProtocolClientFactory
    from repro.cluster.registry import Replica


class ClientDevelopmentEnvironment:
    """A running CDE session on the client machine."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.jpie = JPieEnvironment("cde")
        self.bindings: list[DynamicClientBinding] = []

    @property
    def debugger(self) -> JPieDebugger:
        """The client-side JPie debugger (§6, Figure 9)."""
        return self.jpie.debugger

    def connect(self, factory: "ProtocolClientFactory", replica: "Replica") -> DynamicClientBinding:
        """Bind to ``replica`` through a new stack built by ``factory``."""
        stack = factory(self.host, len(self.bindings), (replica,))
        binding = DynamicClientBinding(self, stack, replica)
        self.bindings.append(binding)
        return binding

    def create_stub_class(
        self, binding: DynamicClientBinding, class_name: str | None = None
    ) -> ClientStubManager:
        """Create a client-side dynamic stub class mirroring the binding."""
        return ClientStubManager(binding, self.jpie, class_name)

    def __repr__(self) -> str:
        return f"ClientDevelopmentEnvironment(host={self.host.name!r}, bindings={len(self.bindings)})"
