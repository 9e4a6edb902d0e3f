"""Route-based HTTP server running on the shared transport layer.

Handlers may return:

* a response (an :class:`HttpResponse` or its framed bytes) — sent at once;
* a ``(response, processing_delay)`` tuple — sent ``processing_delay``
  virtual seconds later, which is how server-side CPU cost (XML parsing,
  reflection dispatch) is charged to the round-trip time;
* a :class:`~repro.net.transport.Deferred` — sent whenever the handler (or
  anything holding the deferred object) later calls
  :meth:`~repro.net.transport.Deferred.complete` with the response.  SDE's
  call handlers use this to stall a reply until the interface publisher has
  caught up (§5.7).

Connection semantics (per-peer FIFO reply ordering, keep-alive accounting,
dropping replies completed after :meth:`HttpServer.stop`) come from the
underlying :class:`~repro.net.transport.Endpoint`.  Exact paths are found
in O(1) through a dict keyed by ``(method, path)``; prefix routes are
scanned in registration order only when no exact route matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.errors import HttpError
from repro.net.http.messages import HttpRequest, HttpResponse, StatusCodes
from repro.net.simnet import Address, Host, Message
from repro.net.transport import Connection, Deferred, Endpoint, ReplyOutcome
from repro.sim.servercore import ServerCore


HandlerResult = Union[HttpResponse, bytes, tuple[Union[HttpResponse, bytes], float], Deferred]
Handler = Callable[[HttpRequest], HandlerResult]


@dataclass
class Route:
    """A single route: exact path or prefix plus the handler."""

    path: str
    handler: Handler
    methods: tuple[str, ...] = ("GET", "POST")
    prefix: bool = False


class HttpServer:
    """An HTTP server listening on ``(host, port)`` of the simulated network."""

    def __init__(
        self,
        host: Host,
        port: int,
        name: str = "http-server",
        cores: "ServerCore | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.endpoint = Endpoint(
            host,
            port,
            self._on_request,
            name=name,
            cores=cores,
        )
        #: Exact routes by ``(method, path)``; the first registration wins.
        self._exact: dict[tuple[str, str], Route] = {}
        #: Prefix routes, scanned in registration order after an exact miss.
        self._prefixes: list[Route] = []

    # -- configuration ----------------------------------------------------

    def add_route(
        self,
        path: str,
        handler: Handler,
        methods: tuple[str, ...] = ("GET", "POST"),
        prefix: bool = False,
    ) -> Route:
        """Register ``handler`` for ``path`` and return the created route."""
        route = Route(path=path, handler=handler, methods=tuple(m.upper() for m in methods), prefix=prefix)
        if route.prefix:
            self._prefixes.append(route)
        else:
            for method in route.methods:
                self._exact.setdefault((method, route.path), route)
        return route

    @property
    def address(self) -> Address:
        """The network address this server listens on."""
        return Address(self.host.name, self.port)

    @property
    def url(self) -> str:
        """The base URL of this server, e.g. ``http://server:8080``."""
        return f"http://{self.host.name}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind to the host port and begin serving."""
        self.endpoint.start()

    def stop(self) -> None:
        """Unbind from the host port; replies completed later are dropped."""
        self.endpoint.stop()

    @property
    def running(self) -> bool:
        """True while the server is bound to its port."""
        return self.endpoint.running

    # -- request handling ---------------------------------------------------

    def _on_request(self, message: Message, connection: Connection) -> ReplyOutcome:
        try:
            request = HttpRequest.from_bytes(message.payload)
        except HttpError as exc:
            return HttpResponse(StatusCodes.BAD_REQUEST, body=str(exc)).to_bytes()

        # Query strings (``?wsdl``) are ignored for matching, as they are by
        # the servlet containers the paper builds on.
        bare_path = request.path.split("?", 1)[0]
        route = self._exact.get((request.method, bare_path))
        if route is None:
            for route in self._prefixes:
                if request.method in route.methods and bare_path.startswith(route.path):
                    break
            else:
                return HttpResponse.not_found(f"no route for {request.path}").to_bytes()

        try:
            result = route.handler(request)
        except Exception as exc:  # noqa: BLE001 - converted to HTTP 500
            return HttpResponse.server_error(f"{type(exc).__name__}: {exc}").to_bytes()

        if isinstance(result, Deferred):
            return result.transform(self._encode_resolution)
        if isinstance(result, tuple):
            response, delay = result
            return (response if isinstance(response, bytes) else response.to_bytes()), delay
        return result if isinstance(result, bytes) else result.to_bytes()

    @staticmethod
    def _encode_resolution(value: HttpResponse | bytes, error: BaseException | None) -> bytes:
        if error is not None:
            return HttpResponse.server_error(f"{type(error).__name__}: {error}").to_bytes()
        return value if isinstance(value, bytes) else value.to_bytes()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"HttpServer({self.url}, routes={len(self._exact) + len(self._prefixes)}, {state})"
