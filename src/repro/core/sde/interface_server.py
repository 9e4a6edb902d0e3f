"""The Interface Server: SDE's integrated HTTP publication server.

"The Interface Server acts as a simple HTTP server that publishes the WSDL
documents to the public domain" (§5.1); "the same Interface Server is used by
both subsystems for simplicity" (§5.2) — it also serves CORBA-IDL documents
and IORs.  The SDE Manager Interface lets the developer start and stop it
(§4).
"""

from __future__ import annotations

from repro.errors import PublicationError
from repro.net.http import HttpResponse, HttpServer
from repro.net.simnet import Host


class InterfaceServer:
    """Publishes interface documents (WSDL, IDL, IOR) at HTTP paths."""

    def __init__(self, host: Host, port: int = 8080) -> None:
        self.host = host
        self.port = port
        self.http_server = HttpServer(host, port, name="sde-interface-server")
        #: Path -> content, type and its 200 reply framed on the first GET.
        self._documents: dict[str, tuple[str, str, bytes | None]] = {}
        self._publication_count: dict[str, int] = {}
        self.http_server.add_route("/", self._serve, methods=("GET",), prefix=True)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start serving published documents."""
        self.http_server.start()

    def stop(self) -> None:
        """Stop the HTTP server (published documents are retained)."""
        self.http_server.stop()

    @property
    def running(self) -> bool:
        """True while the HTTP server is accepting requests."""
        return self.http_server.running

    @property
    def base_url(self) -> str:
        """Base URL of the interface server."""
        return self.http_server.url

    # -- publication ----------------------------------------------------------

    def publish(self, path: str, content: str, content_type: str = "text/xml; charset=utf-8") -> str:
        """Publish (or republish) ``content`` at ``path`` and return its URL."""
        if not path.startswith("/"):
            raise PublicationError(f"publication path must start with '/', got {path!r}")
        self._documents[path] = (content, content_type, None)
        self._publication_count[path] = self._publication_count.get(path, 0) + 1
        return self.url_for(path)

    def withdraw(self, path: str) -> None:
        """Remove a published document."""
        self._documents.pop(path, None)

    def document(self, path: str) -> str | None:
        """Return the currently published content at ``path``, if any."""
        entry = self._documents.get(path)
        return entry[0] if entry else None

    def publication_count(self, path: str) -> int:
        """How many times ``path`` has been (re)published."""
        return self._publication_count.get(path, 0)

    @property
    def published_paths(self) -> tuple[str, ...]:
        """All paths that currently have a published document."""
        return tuple(sorted(self._documents))

    def url_for(self, path: str) -> str:
        """The full URL at which ``path`` is served."""
        return f"{self.http_server.url}{path}"

    # -- request handling --------------------------------------------------------

    def _serve(self, request) -> HttpResponse | bytes:
        path = request.path.split("?", 1)[0]
        entry = self._documents.get(path)
        if entry is None:
            return HttpResponse.not_found(f"no published document at {path}")
        content, content_type, framed = entry
        if framed is None:
            framed = HttpResponse(200, {"Content-Type": content_type}, content).to_bytes()
            self._documents[path] = content, content_type, framed
        return framed

    def __repr__(self) -> str:
        return f"InterfaceServer({self.base_url}, documents={len(self._documents)})"
