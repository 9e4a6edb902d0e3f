"""Object Request Brokers.

"In a client-server system that uses CORBA-RMI, the Client ORB and the
Server ORB form the communication endpoints.  They direct invocations and
results between remote objects located on client and server sides.  ORBs use
IIOP to communicate over a network." (§2.2)

The :class:`ServerOrb` is a GIOP codec over the shared transport layer: a
:class:`~repro.net.transport.Endpoint` owns the IIOP port, the per-connection
FIFO reply ordering and the drop-after-stop accounting, while the ORB parses
GIOP Requests, locates the servant through the object adapter and encodes
GIOP Replies.  The :class:`ClientOrb` turns an IOR into a
:class:`RemoteObjectReference` whose :meth:`~RemoteObjectReference.invoke`
performs a blocking remote call over a persistent
:class:`~repro.net.transport.ClientChannel` connection;
:meth:`ClientOrb.invoke_async` is the non-blocking variant used by the
multi-client workload driver.  CPU cost for marshalling and dispatch is
charged to the virtual clock through the optional
:class:`~repro.net.latency.CostModel`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.corba.giop import (
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    parse_message,
)
from repro.corba.ior import IOR
from repro.corba.poa import PortableObjectAdapter
from repro.errors import (
    CorbaError,
    CorbaSystemException,
    CorbaUserException,
    GiopError,
)
from repro.net.latency import CostModel
from repro.net.simnet import Address, Host, Message
from repro.net.transport import (
    ClientChannel,
    Connection,
    Deferred,
    Endpoint,
    Later,
    ReplyOutcome,
)
from repro.obs import hooks as _obs_hooks
from repro.sim.servercore import ServerCore

_EPHEMERAL_BASE = 53000


class ServerOrb:
    """The server-side ORB: an IIOP endpoint dispatching to servants."""

    def __init__(
        self,
        host: Host,
        port: int,
        poa: PortableObjectAdapter | None = None,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
        dynamic_dispatch_overhead: float = 0.0,
        cores: "ServerCore | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.poa = poa if poa is not None else PortableObjectAdapter()
        self.cost_model = cost_model
        self.speed_factor = speed_factor
        self.dynamic_dispatch_overhead = dynamic_dispatch_overhead
        self.endpoint = Endpoint(
            host,
            port,
            self._on_request,
            name=f"orb:{host.name}:{port}",
            cores=cores,
        )
        self.requests_handled = 0
        self.system_exceptions_sent = 0
        self.user_exceptions_sent = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind the IIOP port and begin accepting requests."""
        self.endpoint.start()

    def stop(self) -> None:
        """Unbind the IIOP port; replies completed later are dropped."""
        self.endpoint.stop()

    @property
    def running(self) -> bool:
        """True while the ORB is accepting requests."""
        return self.endpoint.running

    def object_reference(self, object_key: str, type_id: str | None = None) -> IOR:
        """Build the IOR naming the object registered under ``object_key``."""
        if type_id is None:
            servant = self.poa.servant_for(object_key)
            type_id = servant.repository_id
        return IOR(type_id=type_id, host=self.host.name, port=self.port, object_key=object_key)

    # -- request handling -----------------------------------------------------

    def _on_request(self, message: Message, connection: Connection) -> ReplyOutcome:
        request_size = len(message.payload)
        try:
            giop = parse_message(message.payload)
        except GiopError:
            # Without a parsable request id there is nothing to correlate a
            # reply with; real ORBs close the connection, we drop the message.
            self.system_exceptions_sent += 1
            return None
        if not isinstance(giop, RequestMessage):
            return None

        if giop.service_context and _obs_hooks.ACTIVE is not None:
            # Stage the incoming trace context for the call handler, which
            # consumes (and clears) it synchronously inside ``invoke``.
            _obs_hooks.SERVER_WIRE_CONTEXT = giop.service_context
        try:
            servant = self.poa.servant_for(giop.object_key)
            result = servant.invoke(giop.operation, unmarshal_values(giop.arguments_cdr))
        except Exception as exc:  # noqa: BLE001 - mapped to a GIOP reply
            return self._encoded(giop.request_id, None, exc, request_size, 0.0)

        if isinstance(result, Deferred):
            # Held by the servant (a §5.7 stall): encoded when it resolves.
            out: Deferred = Deferred(f"giop reply {giop.request_id}")
            result.subscribe(
                lambda value, error, delay: out.complete(
                    *self._encoded(giop.request_id, value, error, request_size, delay)
                )
            )
            return out
        return self._encoded(giop.request_id, result, None, request_size, 0.0)

    def _encoded(
        self,
        request_id: int,
        value: Any,
        error: BaseException | None,
        request_size: int,
        extra_delay: float,
    ) -> tuple[bytes, float]:
        if error is None:
            self.requests_handled += 1
            try:
                reply = ReplyMessage(request_id, ReplyStatus.NO_EXCEPTION, marshal_values((value,)))
            except Exception as marshal_error:  # noqa: BLE001 - e.g. unmarshallable result
                # A result the CDR layer cannot encode must still produce a
                # reply, or the client (and this connection's FIFO) hangs.
                reply = self._exception_reply(request_id, marshal_error)
        else:
            reply = self._exception_reply(request_id, error)
        if self.cost_model is not None:
            extra_delay += self._processing_delay(request_size, len(reply.body_cdr))
        return reply.to_bytes(), extra_delay

    def _exception_reply(self, request_id: int, exc: BaseException) -> ReplyMessage:
        if isinstance(exc, CorbaUserException):
            self.user_exceptions_sent += 1
            status, name, detail = ReplyStatus.USER_EXCEPTION, exc.type_name, exc.message
        elif isinstance(exc, CorbaSystemException):
            self.system_exceptions_sent += 1
            status, name, detail = ReplyStatus.SYSTEM_EXCEPTION, exc.name, exc.detail
        else:
            self.system_exceptions_sent += 1
            status, name, detail = (
                ReplyStatus.SYSTEM_EXCEPTION, "UNKNOWN", f"{type(exc).__name__}: {exc}"
            )
        return ReplyMessage(request_id, status, b"", name, detail)

    def _processing_delay(self, request_size: int, reply_size: int) -> float:
        cost = self.cost_model.binary_processing(request_size)
        cost += self.cost_model.binary_processing(reply_size)
        cost += self.dynamic_dispatch_overhead
        return cost * self.speed_factor

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"ServerOrb({self.host.name}:{self.port}, {state})"


class RemoteObjectReference:
    """A client-side reference to a remote CORBA object."""

    def __init__(self, orb: "ClientOrb", ior: IOR) -> None:
        self.orb = orb
        self.ior = ior

    def invoke(self, operation: str, *arguments: Any) -> Any:
        """Perform a blocking remote invocation of ``operation``."""
        return self.orb.invoke(self.ior, operation, arguments)

    def invoke_async(self, operation: str, *arguments: Any) -> Deferred:
        """Issue a non-blocking remote invocation of ``operation``."""
        return self.orb.invoke_async(self.ior, operation, arguments)

    def __repr__(self) -> str:
        return f"RemoteObjectReference({self.ior.type_id} at {self.ior.host}:{self.ior.port})"


class ClientOrb:
    """The client-side ORB."""

    def __init__(
        self,
        host: Host,
        cost_model: CostModel | None = None,
        speed_factor: float = 1.0,
    ) -> None:
        self.host = host
        self.cost_model = cost_model
        self.speed_factor = speed_factor
        self.channel = ClientChannel(host, base_port=_EPHEMERAL_BASE, name="client-orb")
        self._request_ids = itertools.count(1)
        self.calls_made = 0

    # -- public API -----------------------------------------------------------

    def string_to_object(self, stringified_ior: str) -> RemoteObjectReference:
        """Parse a stringified IOR and return an object reference
        (the CORBA ``string_to_object`` operation used at client
        initialisation, Figure 2 step 1)."""
        return RemoteObjectReference(self, IOR.from_string(stringified_ior))

    def invoke(self, ior: IOR, operation: str, arguments: tuple[Any, ...]) -> Any:
        """Marshal, transmit, await and unmarshal one remote invocation.

        CORBA exceptions are replies, not transport failures, so they leave
        the connection intact; anything else (dead server, malformed reply)
        resets it so a stale expectation cannot mis-correlate the next call.
        """
        try:
            return self.invoke_async(ior, operation, arguments).wait(self.channel.scheduler)
        except (CorbaUserException, CorbaSystemException):
            raise
        except BaseException:
            self.channel.reset(Address(ior.host, ior.port))
            raise

    def invoke_async(self, ior: IOR, operation: str, arguments: tuple[Any, ...]) -> Deferred:
        """Issue one remote invocation without blocking.

        The returned deferred — the request's only one — resolves with the
        operation result, or fails with the mapped CORBA exception: the
        reply is decoded and interpreted in the transport's parse.
        Marshalling cost is charged as a virtual-clock delay before the
        request leaves; unmarshalling cost delays the resolution, so the
        round-trip time a caller observes is identical to the blocking path.
        """
        request_id = next(self._request_ids)
        # In-band trace propagation: an active client-side trace context
        # rides the request's GIOP service-context slot (untraced calls
        # frame nothing, keeping their bytes identical).
        context = _obs_hooks.CONTEXT
        payload = RequestMessage(
            request_id,
            ior.object_key,
            operation,
            marshal_values(arguments),
            context.encode_bytes() if context is not None else b"",
        ).to_bytes()
        return self.channel.request_async(
            Address(ior.host, ior.port),
            payload,
            partial(self._reply_value, request_id),
            description=f"CORBA {operation} on {ior.object_key}",
            delay=self._cost(len(payload)),
        )

    def _reply_value(self, request_id: int, message: Message) -> Any:
        """The result carried by the reply to ``request_id`` (or its
        unmarshalling cost and then the result, as :class:`Later`)."""
        try:
            reply = parse_message(message.payload)
        except GiopError as exc:
            raise CorbaError(f"malformed GIOP reply: {exc}") from None
        if not isinstance(reply, ReplyMessage) or reply.request_id != request_id:
            raise CorbaError("GIOP reply does not match the outstanding request")
        self.calls_made += 1
        cost = self._cost(len(reply.body_cdr) + 24)
        if cost > 0:
            return Later(cost, partial(self._interpret_reply, reply))
        return self._interpret_reply(reply)

    # -- internals ------------------------------------------------------------

    def _interpret_reply(self, reply: ReplyMessage) -> Any:
        if reply.status == ReplyStatus.NO_EXCEPTION:
            values = unmarshal_values(reply.body_cdr)
            return values[0] if values else None
        if reply.status == ReplyStatus.USER_EXCEPTION:
            raise CorbaUserException(reply.exception_type, reply.exception_detail)
        raise CorbaSystemException(reply.exception_type or "UNKNOWN", reply.exception_detail)

    def _cost(self, size_bytes: int) -> float:
        if self.cost_model is None:
            return 0.0
        return self.cost_model.binary_processing(size_bytes) * self.speed_factor

    def __repr__(self) -> str:
        return f"ClientOrb(host={self.host.name!r}, calls={self.calls_made})"
