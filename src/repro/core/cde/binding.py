"""Dynamic client bindings: CDE's live view of one remote server.

A binding is a blocking façade over one client protocol stack — the same
:class:`~repro.cluster.protocols.ProtocolClient` the fleet driver runs
asynchronously — bound to one replica.  The stack fetches and parses the
published interface description, builds and sends requests and sorts the
replies; the binding runs each call to completion.  Invocations are sent
even when the local view might be stale — that is the nature of live
development — and the client half of the §6 consistency algorithm runs when
the stack classifies a reply as a "Non existent Method" fault:

1. the client view of the server interface is updated to the currently
   published one (which, thanks to the server half in §5.7, is guaranteed to
   be at least as recent as the interface the server used to process the
   call);
2. the exception is handed to the JPie debugger so the developer sees the
   changed signature, with a ``retry`` callback implementing the "try again"
   feature;
3. the exception is raised to the calling code.

Every stale fault produces a :class:`GuaranteeRecord` capturing the version
the server reported and the version the client observed after refreshing;
the Figure 8 experiment checks ``client_version >= server_version`` over all
interleavings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cluster import protocols
from repro.errors import (
    NonExistentMethodError,
    RemoteApplicationError,
    ServerNotInitializedError,
)
from repro.evolve.diff import InterfaceDelta, diff_descriptions
from repro.interface import InterfaceDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.registry import Replica
    from repro.core.cde.client_env import ClientDevelopmentEnvironment
    from repro.core.cde.stub_manager import ClientStubManager


@dataclass(frozen=True)
class GuaranteeRecord:
    """One observation of the §6 recency guarantee."""

    operation: str
    server_version: int
    client_version_after_refresh: int
    interface_diff: InterfaceDelta

    @property
    def satisfied(self) -> bool:
        """True if the client ended up with an interface at least as recent
        as the one the server used to reject the call."""
        return self.client_version_after_refresh >= self.server_version


class DynamicClientBinding:
    """A live, blocking client binding to one replica of a server."""

    def __init__(
        self,
        cde: "ClientDevelopmentEnvironment",
        stack: "protocols.ProtocolClient",
        replica: "Replica",
    ) -> None:
        self.cde = cde
        self.stack = stack
        self.replica = replica
        #: Calls per :meth:`~repro.cluster.protocols.ProtocolClient.classify`
        #: outcome, plus ``"refreshes"``.
        self.stats: Counter[str] = Counter()
        self.guarantee_records: list[GuaranteeRecord] = []
        self.stub_manager: "ClientStubManager | None" = None
        self.refresh()

    # -- the client view of the interface -------------------------------------

    @property
    def description(self) -> InterfaceDescription | None:
        """The client's current view of the server interface."""
        return self.stack.binding.bound.get(self.replica.index)

    @property
    def interface_version(self) -> int:
        """The publication version of the client's current view."""
        description = self.description
        return description.version if description is not None else -1

    @property
    def service_name(self) -> str:
        """The remote service name."""
        description = self.description
        return description.service_name if description is not None else ""

    @property
    def technology(self) -> str:
        """The RMI technology of the bound server (the stack's)."""
        return self.stack.technology

    def refresh(self) -> InterfaceDelta:
        """Re-fetch the published interface description and update the view.

        Returns the delta from the previous to the new view so callers (and
        the debugger display) can show what changed; it is empty on the
        first refresh and for a stack that binds no descriptions.
        """
        previous = self.description
        self.stack.prepare_replica(self.replica)
        current = self.description
        self.stats["refreshes"] += 1
        if current is not None and self.stub_manager is not None:
            self.stub_manager.update_from(current)
        if previous is None or current is None:
            version = self.interface_version
            return InterfaceDelta(self.service_name, version, version)
        return diff_descriptions(previous, current)

    # -- invocation --------------------------------------------------------------

    def invoke(self, operation: str, *arguments: Any) -> Any:
        """Invoke ``operation`` on the remote server.

        The call is attempted even if ``operation`` is not (or no longer)
        part of the client's current view — the server decides.
        """
        stack, replica = self.stack, self.replica
        deferred = stack.call(replica, operation, arguments)
        try:
            value, error = deferred.wait(self.cde.host.network.scheduler), None
        except BaseException as exc:
            if not deferred.completed:
                # The reply may still arrive; a kept-alive connection must
                # not correlate it with the next call.
                stack.reset_replica(replica)
                raise
            value, error = None, exc
        outcome = stack.classify(value, error)
        self.stats[outcome] += 1
        if outcome == protocols.OUTCOME_SUCCESS:
            return stack.result(value)
        fault = stack.fault_text(value, error)
        if fault is None:
            stack.reset_replica(replica)
            raise error  # type: ignore[misc]
        if outcome == protocols.OUTCOME_STALE:
            self._handle_stale_fault(operation, arguments, fault)
        if outcome == protocols.OUTCOME_NOT_INITIALIZED:
            raise ServerNotInitializedError(fault)
        raise RemoteApplicationError(fault)

    # -- the §6 client-side algorithm -----------------------------------------------------

    def _handle_stale_fault(self, operation: str, arguments: tuple[Any, ...], fault: str) -> None:
        server_version = _parse_published_version(fault)
        diff = self.refresh()
        record = GuaranteeRecord(
            operation=operation,
            server_version=server_version,
            client_version_after_refresh=self.interface_version,
            interface_diff=diff,
        )
        self.guarantee_records.append(record)

        error = NonExistentMethodError(operation, server_version)
        self.cde.debugger.report(
            source=f"{self.technology}:{self.service_name}",
            exception=error,
            description=(
                f"call to stale method {operation!r}; interface changes: {diff.summary()}"
            ),
            retry=lambda: self.invoke(operation, *arguments),
            context={
                "operation": operation,
                "server_version": server_version,
                "client_version": self.interface_version,
                "diff": diff.summary(),
            },
        )
        raise error

    def __repr__(self) -> str:
        return (
            f"DynamicClientBinding({self.technology}:{self.service_name}, "
            f"version={self.interface_version})"
        )


def _parse_published_version(detail: str) -> int:
    """Extract the ``publishedVersion=N`` hint carried in stale-call faults."""
    marker = "publishedVersion="
    if marker not in detail:
        return -1
    fragment = detail.split(marker, 1)[1]
    digits = ""
    for character in fragment:
        if character.isdigit():
            digits += character
        else:
            break
    return int(digits) if digits else -1
