"""HTTP request/response message model and wire format.

Messages serialise to the familiar textual HTTP/1.1 format so that the
latency model sees realistic message sizes (headers included) and tests can
assert on exact wire bytes.

Header names are title-cased once: on construction, or by the parser for a
message read off the wire, which builds the message from the parsed fields
directly instead of re-running the constructor's checks.  Every message is
one datagram, so a missing ``Content-Length`` is accepted; one that is
present must equal the body's byte length, which :func:`frame` always
writes.  :func:`frame` is the one writer of the wire format: a message's
start line and headers are rendered around ``Content-Length`` once, so a
sender with a fixed request line and headers renders them once
(:func:`request_head`) and frames each body with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import HttpError

_CRLF = "\r\n"
_HEAD_END = b"\r\n\r\n"
_SUPPORTED_METHODS = {"GET", "POST", "PUT", "DELETE", "HEAD"}


class StatusCodes:
    """The subset of HTTP status codes the reproduction uses."""

    OK = 200
    BAD_REQUEST = 400
    NOT_FOUND = 404
    METHOD_NOT_ALLOWED = 405
    INTERNAL_SERVER_ERROR = 500
    SERVICE_UNAVAILABLE = 503

    REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    @classmethod
    def reason(cls, code: int) -> str:
        """Return the reason phrase for ``code`` (generic for unknown codes)."""
        return cls.REASONS.get(code, "Unknown")


@dataclass
class HttpRequest:
    """An HTTP request.

    The body is kept as ``str`` because every payload in this system (SOAP
    envelopes, WSDL, IDL, IOR documents) is textual; it is encoded to UTF-8
    at the wire boundary.
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""
    http_version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        self.method = _checked_request_line(self.method, self.path)
        headers = self.headers
        self.headers = dict(zip(map(str.title, headers), headers.values())) if headers else {}

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        return self.headers.get(name.title(), default)

    def to_bytes(self) -> bytes:
        """Serialise to the textual HTTP/1.1 wire format."""
        start_line = f"{self.method} {self.path} {self.http_version}"
        return frame(*_head(start_line, tuple(self.headers.items())), self.body.encode("utf-8"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpRequest":
        """Parse a request from its wire format."""
        start, headers, body = _decode(data, "request")
        parts = start.split(" ")
        if len(parts) != 3:
            raise HttpError(f"malformed request line: {start!r}")
        method, path, version = parts
        request = object.__new__(cls)
        request.method = _checked_request_line(method, path)
        request.path = path
        request.headers = headers
        request.body = body
        request.http_version = version
        return request


@dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""
    http_version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        headers = self.headers
        self.headers = dict(zip(map(str.title, headers), headers.values())) if headers else {}

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        return self.headers.get(name.title(), default)

    def to_bytes(self) -> bytes:
        """Serialise to the textual HTTP/1.1 wire format."""
        reason = StatusCodes.REASONS.get(self.status, "Unknown")
        start_line = f"{self.http_version} {self.status} {reason}"
        return frame(*_head(start_line, tuple(self.headers.items())), self.body.encode("utf-8"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpResponse":
        """Parse a response from its wire format."""
        start, headers, body = _decode(data, "response")
        parts = start.split(" ", 2)
        if len(parts) < 2:
            raise HttpError(f"malformed status line: {start!r}")
        version, status = parts[0], parts[1]
        try:
            status_code = int(status)
        except ValueError:
            raise HttpError(f"malformed status code: {status!r}") from None
        response = object.__new__(cls)
        response.status = status_code
        response.headers = headers
        response.body = body
        response.http_version = version
        return response

    # -- convenience constructors -----------------------------------------

    @classmethod
    def ok_text(cls, body: str, content_type: str = "text/plain") -> "HttpResponse":
        """A 200 response carrying a plain-text body."""
        return cls(StatusCodes.OK, {"Content-Type": content_type}, body)

    @classmethod
    def ok_xml(cls, body: str) -> "HttpResponse":
        """A 200 response carrying an XML body."""
        return cls(StatusCodes.OK, {"Content-Type": "text/xml; charset=utf-8"}, body)

    @classmethod
    def not_found(cls, detail: str = "") -> "HttpResponse":
        """A 404 response."""
        return cls(StatusCodes.NOT_FOUND, {"Content-Type": "text/plain"}, detail)

    @classmethod
    def server_error(cls, detail: str = "") -> "HttpResponse":
        """A 500 response."""
        return cls(StatusCodes.INTERNAL_SERVER_ERROR, {"Content-Type": "text/plain"}, detail)


def _checked_request_line(method: str, path: str) -> str:
    """``method`` upper-cased, once it and ``path`` are known to be valid."""
    method = method.upper()
    if method not in _SUPPORTED_METHODS:
        raise HttpError(f"unsupported HTTP method {method!r}")
    if not path.startswith("/"):
        raise HttpError(f"request path must start with '/', got {path!r}")
    return method


def request_head(method: str, path: str, headers: dict[str, str]) -> tuple[str, str]:
    """An HTTP/1.1 request line and ``headers`` as :func:`frame` takes them,
    header names title-cased (of two that differ only in case, the later
    wins) and the request line checked as :class:`HttpRequest` checks it."""
    method = _checked_request_line(method, path)
    fields = dict(zip(map(str.title, headers), headers.values()))
    return _head(f"{method} {path} HTTP/1.1", tuple(fields.items()))


@lru_cache(maxsize=256)
def _head(start_line: str, headers: tuple[tuple[str, str], ...]) -> tuple[str, str]:
    """``start_line`` and the header lines that sort before ``Content-Length``,
    and the header lines that sort after it.

    ``headers`` are ``(name, value)`` pairs with distinct, title-cased names;
    a ``Content-Length`` among them is left out, since :func:`frame` writes
    the body's.  Memoised, so messages with one start line and header set
    (every SOAP reply, every request to one URL) render them once.
    """
    head = start_line
    tail = ""
    for name, value in sorted(headers):
        if name < "Content-Length":
            head += f"{_CRLF}{name}: {value}"
        elif name > "Content-Length":
            tail += f"{_CRLF}{name}: {value}"
    return head, tail


def frame(head: str, tail: str, body: bytes) -> bytes:
    """The wire bytes of a message: ``head``, the ``Content-Length`` of
    ``body``, ``tail``, a blank line and ``body``.

    ``head`` and ``tail`` are a start line and headers as
    :func:`request_head` renders them: headers sorted by name, each line led
    by CRLF.
    """
    return f"{head}{_CRLF}Content-Length: {len(body)}{tail}{_CRLF}{_CRLF}".encode("utf-8") + body


def _decode(data: bytes, what: str) -> tuple[str, dict[str, str], str]:
    """Split a wire message into its start line, title-cased headers and body.

    Raises :class:`HttpError` on malformed framing, including a
    ``Content-Length`` that is not the body's byte length.
    """
    end = data.find(_HEAD_END)
    try:
        if end < 0:
            data.decode("utf-8")
            raise HttpError(f"HTTP {what} is missing the header/body separator")
        head = data[:end].decode("utf-8")
        body = data[end + 4 :]
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HttpError(f"HTTP {what} is not valid UTF-8: {exc}") from None
    lines = head.split(_CRLF)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpError(f"malformed header line: {line!r}")
        headers[name.strip().title()] = value.strip()
    length = headers.get("Content-Length")
    if length is not None and not (
        length.isascii() and length.isdigit() and int(length) == len(body)
    ):
        raise HttpError(
            f"HTTP {what} Content-Length {length!r} does not match "
            f"its {len(body)}-byte body"
        )
    return lines[0], headers, text
