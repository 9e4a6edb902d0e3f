"""HTTP client for the simulated network, built on the transport layer.

The client keeps one persistent connection (source port) per destination —
HTTP/1.1 keep-alive — through a :class:`~repro.net.transport.ClientChannel`.
``request`` drives the event scheduler until the response arrives, which is
how synchronous RMI calls are expressed on the single-threaded simulator;
``request_async`` returns a :class:`~repro.net.transport.Deferred` instead,
which is what lets a multi-client workload keep many requests in flight
deterministically; with a ``decode`` it resolves with the decoded response.
A sender that posts many bodies to one URL with the same headers parses the
URL and renders the request line and headers once (:meth:`HttpClient.prepare`)
and frames each body's bytes with them (:meth:`HttpClient.send_async`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import HttpError
from repro.net.http.messages import HttpRequest, HttpResponse, frame, request_head
from repro.net.simnet import Address, Host, Message
from repro.net.transport import ClientChannel, Deferred

_EPHEMERAL_BASE = 49152


@dataclass(frozen=True)
class PreparedRequest:
    """A request's destination, request line and headers, rendered once for
    any number of bodies."""

    destination: Address
    #: The request line and headers as :func:`~repro.net.http.messages.frame`
    #: takes them.
    head: str
    tail: str
    #: ``"<method> <url>"``, which names the request's reply future.
    description: str


class HttpClient:
    """An HTTP client attached to a simulated host."""

    def __init__(self, host: Host, name: str = "http-client") -> None:
        self.host = host
        self.name = name
        self.channel = ClientChannel(host, base_port=_EPHEMERAL_BASE, name=name)

    @property
    def requests_sent(self) -> int:
        """Total requests issued through this client."""
        return self.channel.requests_sent

    # -- public API ---------------------------------------------------------

    def get(self, url: str, headers: dict[str, str] | None = None) -> HttpResponse:
        """Issue a blocking GET request to ``url``."""
        return self.request("GET", url, headers=headers)

    def request(
        self,
        method: str,
        url: str,
        body: str = "",
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        """Issue a blocking HTTP request and return the response.

        ``url`` must be of the form ``http://<host>:<port>/<path>`` where
        ``<host>`` is a simulated host name.
        """
        destination, payload = self._build(method, url, body, headers)
        return self.channel.request(
            destination, payload, self._parse_response, description=f"{method} {url}"
        )

    def request_async(
        self,
        method: str,
        url: str,
        body: str = "",
        headers: dict[str, str] | None = None,
        decode: Callable[[HttpResponse], Any] | None = None,
    ) -> Deferred:
        """Issue a request without blocking; resolve with the response, or
        with ``decode(response)`` when given (an error it raises fails the
        deferred)."""
        destination, payload = self._build(method, url, body, headers)
        return self.channel.request_async(
            destination,
            payload,
            self._parse_response if decode is None else partial(_decoded, decode),
            description=f"{method} {url}",
        )

    def _build(
        self,
        method: str,
        url: str,
        body: str,
        headers: dict[str, str] | None,
    ) -> tuple[Address, bytes]:
        destination, path = self.parse_url(url)
        # The caller's own Host header, in any case, overrides the default.
        request = HttpRequest(
            method=method,
            path=path,
            headers={"Host": f"{destination.host}:{destination.port}", **(headers or {})},
            body=body,
        )
        return destination, request.to_bytes()

    def prepare(
        self, method: str, url: str, headers: dict[str, str] | None = None
    ) -> PreparedRequest:
        """Parse ``url`` and render the request line and headers, with the
        default ``Host`` as :meth:`request` sends it, once for :meth:`send_async`."""
        destination, path = self.parse_url(url)
        fields = {"Host": f"{destination.host}:{destination.port}", **(headers or {})}
        return PreparedRequest(destination, *request_head(method, path, fields), f"{method} {url}")

    def send_async(
        self,
        request: PreparedRequest,
        body: bytes,
        decode: Callable[[HttpResponse], Any] | None = None,
        delay: float = 0.0,
    ) -> Deferred:
        """:meth:`request_async` for a prepared request and the body's UTF-8
        bytes; a positive ``delay`` (client processing time) holds the
        request back that many seconds."""
        return self.channel.request_async(
            request.destination,
            frame(request.head, request.tail, body),
            self._parse_response if decode is None else partial(_decoded, decode),
            request.description,
            delay,
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _parse_response(message: Message) -> HttpResponse:
        return HttpResponse.from_bytes(message.payload)

    @staticmethod
    def parse_url(url: str) -> tuple[Address, str]:
        """Split ``http://host:port/path`` into an address and a path."""
        if not url.startswith("http://"):
            raise HttpError(f"only http:// URLs are supported, got {url!r}")
        authority, _slash, path = url[len("http://"):].partition("/")
        host, colon, port_text = authority.partition(":")
        port = 80
        if colon:
            try:
                port = int(port_text)
            except ValueError:
                raise HttpError(f"malformed port in URL {url!r}") from None
        if not host:
            raise HttpError(f"missing host in URL {url!r}")
        return Address(host, port), "/" + path

    def __repr__(self) -> str:
        return f"HttpClient(host={self.host.name!r}, sent={self.requests_sent})"


def _decoded(decode: Callable[[HttpResponse], Any], message: Message) -> Any:
    return decode(HttpResponse.from_bytes(message.payload))
