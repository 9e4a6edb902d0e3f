"""The CORBA Call Handler (§5.2.3).

"In the CORBA subsystem, the CORBA Call Handler is a simple wrapper around
the Server ORB, and the low level communication details are handled by making
OpenORB API calls."  Here the handler owns a :class:`~repro.corba.orb.ServerOrb`
and registers a DSI :class:`~repro.corba.dsi.DynamicServant` whose dispatch
function feeds incoming calls through the shared
:class:`~repro.core.sde.call_handler.CallHandler` logic; using DSI means the
Server ORB never needs to be re-initialised when server methods or types
change (§5.2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.sde.call_handler import CallHandler, DispatchOutcome
from repro.corba.dsi import DynamicServant, ServerRequest
from repro.corba.ior import IOR
from repro.corba.orb import ServerOrb
from repro.net.transport import Deferred
from repro.corba.poa import PortableObjectAdapter
from repro.errors import (
    CorbaUserException,
    NonExistentMethodError,
    ServerNotInitializedError,
)
from repro.interface import OperationSignature
from repro.soap.faults import FaultCodes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.manager import ManagedServer, SDEManager

#: User-exception type names carried in GIOP replies so CDE can classify them.
EXC_SERVER_NOT_INITIALIZED = "ServerNotInitialized"
EXC_NON_EXISTENT_METHOD = "NonExistentMethod"
EXC_APPLICATION = "ApplicationException"


class CorbaCallHandler(CallHandler):
    """The CORBA End Point + Call Handler for a managed CORBA server class."""

    def __init__(self, manager: "SDEManager", server: "ManagedServer", iiop_port: int) -> None:
        super().__init__(manager, server)
        self.iiop_port = iiop_port
        self.object_key = server.dynamic_class.name
        self.poa = PortableObjectAdapter(f"sde-poa:{self.object_key}")
        self.servant = DynamicServant(self.object_key, self._serve_request)
        self.poa.activate_object(self.object_key, self.servant)

        cost_model = manager.config.cost_model
        dynamic_overhead = (
            cost_model.dynamic_dispatch_overhead() + cost_model.dsi_overhead
            if cost_model is not None
            else 0.0
        )
        self.orb = ServerOrb(
            manager.host,
            iiop_port,
            poa=self.poa,
            cost_model=cost_model,
            speed_factor=manager.config.speed_factor,
            dynamic_dispatch_overhead=dynamic_overhead,
            cores=manager.server_core,
        )

    # -- endpoint --------------------------------------------------------------

    @property
    def endpoint_url(self) -> str:
        return f"iiop://{self.manager.host.name}:{self.iiop_port}/{self.object_key}"

    @property
    def ior(self) -> IOR:
        """The IOR naming the managed object."""
        return IOR(
            type_id=self.servant.repository_id,
            host=self.manager.host.name,
            port=self.iiop_port,
            object_key=self.object_key,
        )

    def start(self) -> None:
        self.orb.start()

    def stop(self) -> None:
        self.orb.stop()

    # -- DSI dispatch -------------------------------------------------------------

    def _serve_request(self, request: ServerRequest) -> None:
        reply = _CorbaReply(self, request)
        self.dispatch(request.operation, request.arguments, reply)
        if not request.completed:
            # Held by a §5.7 stall: the ORB encodes the reply on resolution.
            deferred: Deferred = Deferred(f"giop result for {request.operation}")
            reply.resolve, reply.reject = deferred.complete, deferred.fail
            request.set_result(deferred)

    def _exception_for(self, error: BaseException) -> CorbaUserException:
        if isinstance(error, ServerNotInitializedError):
            return CorbaUserException(EXC_SERVER_NOT_INITIALIZED, FaultCodes.SERVER_NOT_INITIALIZED)
        if isinstance(error, NonExistentMethodError):
            detail = f"operation={error.operation}"
            if error.interface_version is not None:
                detail += f"; publishedVersion={error.interface_version}"
            return CorbaUserException(EXC_NON_EXISTENT_METHOD, detail)
        return CorbaUserException(EXC_APPLICATION, f"{type(error).__name__}: {error}")


class _CorbaReply(DispatchOutcome):
    """Where one DSI request's dispatch reports: into the
    :class:`ServerRequest` while ``dispatch`` runs, into a deferred once a
    §5.7 stall has held the call past it."""

    def __init__(self, handler: CorbaCallHandler, request: ServerRequest) -> None:
        self.handler = handler
        self.operation = request.operation
        self.resolve, self.reject = request.set_result, request.set_exception

    def on_result(self, value: Any, signature: OperationSignature) -> None:
        self.resolve(value)

    def on_fault(self, error: BaseException) -> None:
        self.reject(self.handler._exception_for(error))
