"""Tests for the HTTP substrate: messages, server, client."""

import pytest

from repro.errors import HttpError
from repro.net.http import (
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    StatusCodes,
)
from repro.net.simnet import Address
from repro.net.transport import ClientChannel, Deferred, Endpoint


class TestHttpRequestMessage:
    def test_wire_roundtrip(self):
        request = HttpRequest("POST", "/services/Calc", {"Content-Type": "text/xml"}, "<x/>")
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == "POST"
        assert parsed.path == "/services/Calc"
        assert parsed.header("content-type") == "text/xml"
        assert parsed.body == "<x/>"

    def test_content_length_added(self):
        request = HttpRequest("POST", "/x", body="hello")
        assert b"Content-Length: 5" in request.to_bytes()

    def test_header_lookup_case_insensitive(self):
        request = HttpRequest("GET", "/", {"SOAPAction": "urn:a#b"})
        assert request.header("soapaction") == "urn:a#b"

    def test_unsupported_method_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest("FETCH", "/x")

    def test_path_must_be_absolute(self):
        with pytest.raises(HttpError):
            HttpRequest("GET", "x")

    def test_malformed_bytes_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest.from_bytes(b"not an http request")

    def test_malformed_header_line_rejected(self):
        raw = b"GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"
        with pytest.raises(HttpError):
            HttpRequest.from_bytes(raw)


class TestHttpResponseMessage:
    def test_wire_roundtrip(self):
        response = HttpResponse(200, {"Content-Type": "text/plain"}, "ok")
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.status == 200
        assert parsed.body == "ok"
        assert parsed.ok

    def test_error_statuses_not_ok(self):
        assert not HttpResponse(404).ok
        assert not HttpResponse(500).ok

    def test_reason_phrases(self):
        assert StatusCodes.reason(200) == "OK"
        assert StatusCodes.reason(404) == "Not Found"
        assert StatusCodes.reason(599) == "Unknown"

    def test_convenience_constructors(self):
        assert HttpResponse.ok_xml("<a/>").header("content-type").startswith("text/xml")
        assert HttpResponse.not_found("missing").status == 404
        assert HttpResponse.server_error("boom").status == 500

    def test_malformed_status_rejected(self):
        raw = b"HTTP/1.1 abc Bad\r\n\r\n"
        with pytest.raises(HttpError):
            HttpResponse.from_bytes(raw)


class TestHeadMemo:
    """Each distinct head is split once; every message still gets its own fields."""

    def test_mutating_parsed_headers_leaves_the_next_parse_alone(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Type: text/xml\r\nHost: s\r\n\r\n<x/>"
        first = HttpRequest.from_bytes(raw)
        first.headers["Content-Type"] = "changed"
        first.headers["Extra"] = "added"
        second = HttpRequest.from_bytes(raw)
        assert second.headers == {"Content-Type": "text/xml", "Host": "s"}
        assert second.headers is not first.headers

    def test_a_seen_head_still_checks_each_bodys_length(self):
        head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
        assert HttpResponse.from_bytes(head + b"ok").body == "ok"
        with pytest.raises(HttpError, match="does not match its 3-byte body"):
            HttpResponse.from_bytes(head + b"okk")
        with pytest.raises(HttpError, match="not valid UTF-8"):
            HttpResponse.from_bytes(head + b"\xff\xfe")


class TestContentLength:
    """Every message is one datagram: ``Content-Length`` must describe it."""

    def test_request_writes_the_body_length_over_a_stale_header(self):
        wire = HttpRequest("POST", "/x", {"content-length": "999"}, body="hi").to_bytes()
        assert b"Content-Length: 2\r\n" in wire
        assert b"999" not in wire

    def test_response_writes_the_body_length_over_a_stale_header(self):
        wire = HttpResponse(200, {"Content-Length": "1"}, body="héllo").to_bytes()
        assert b"Content-Length: 6\r\n" in wire

    @pytest.mark.parametrize("length", [b"2", b"7", b"-5", b"five", b"\xc2\xb2", b""])
    def test_request_with_wrong_length_rejected(self, length):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\nhello"
        with pytest.raises(HttpError, match="Content-Length"):
            HttpRequest.from_bytes(raw)

    def test_response_with_wrong_length_rejected(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhello"
        with pytest.raises(HttpError, match="Content-Length"):
            HttpResponse.from_bytes(raw)

    def test_request_with_an_oversized_length_rejected(self):
        """More digits than ``int()`` converts is a wrong length, not a crash."""
        raw = b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\nhi"
        with pytest.raises(HttpError, match="does not match its 2-byte body"):
            HttpRequest.from_bytes(raw)

    def test_response_with_an_oversized_length_rejected(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"0" * 5000 + b"2\r\n\r\nhi"
        with pytest.raises(HttpError, match="does not match its 2-byte body"):
            HttpResponse.from_bytes(raw)

    def test_an_oversized_length_outranks_a_bad_start_line(self):
        raw = b"POST x HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\nhi"
        with pytest.raises(HttpError, match="does not match"):
            HttpRequest.from_bytes(raw)

    def test_length_counts_bytes_not_characters(self):
        raw = "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nhéllo".encode("utf-8")
        assert HttpResponse.from_bytes(raw).body == "héllo"

    def test_missing_length_accepted(self):
        parsed = HttpRequest.from_bytes(b"POST /x HTTP/1.1\r\nHost: s\r\n\r\nhello")
        assert parsed.body == "hello"

    def test_server_answers_400_to_a_wrong_length(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        seen = []
        server.add_route("/x", lambda request: seen.append(request) or HttpResponse.ok_text("x"))
        server.start()
        channel = ClientChannel(network.host("client"))
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhello"
        response = channel.request(
            Address("server", 8080), raw, lambda message: HttpResponse.from_bytes(message.payload)
        )
        assert response.status == StatusCodes.BAD_REQUEST
        assert seen == []

    def test_server_answers_400_to_an_oversized_length(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        seen = []
        server.add_route("/x", lambda request: seen.append(request) or HttpResponse.ok_text("x"))
        server.start()
        channel = ClientChannel(network.host("client"))
        raw = b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\nhello"
        response = channel.request(
            Address("server", 8080), raw, lambda message: HttpResponse.from_bytes(message.payload)
        )
        assert response.status == StatusCodes.BAD_REQUEST
        assert "does not match" in response.body
        assert seen == []

    def test_client_call_fails_on_a_wrong_length(self, network, scheduler):
        Endpoint(
            network.host("server"),
            8080,
            lambda message, connection: b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhello",
        ).start()
        client = HttpClient(network.host("client"))
        with pytest.raises(HttpError, match="Content-Length"):
            client.get("http://server:8080/x")


class TestHttpServerAndClient:
    def _serve(self, network, handler, path="/test", methods=("GET", "POST")):
        server = HttpServer(network.host("server"), 8080)
        server.add_route(path, handler, methods=methods)
        server.start()
        return server

    def test_get_roundtrip(self, network, scheduler):
        self._serve(network, lambda request: HttpResponse.ok_text("pong"))
        client = HttpClient(network.host("client"))
        response = client.get("http://server:8080/test")
        assert response.ok
        assert response.body == "pong"

    def test_post_body_reaches_handler(self, network, scheduler):
        seen = []

        def handler(request):
            seen.append(request.body)
            return HttpResponse.ok_text("ack")

        self._serve(network, handler)
        client = HttpClient(network.host("client"))
        client.request("POST", "http://server:8080/test", "payload")
        assert seen == ["payload"]

    def test_unknown_route_is_404(self, network, scheduler):
        self._serve(network, lambda request: HttpResponse.ok_text("x"))
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/other").status == 404

    def test_query_string_ignored_for_matching(self, network, scheduler):
        self._serve(network, lambda request: HttpResponse.ok_text("wsdl here"))
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/test?wsdl").body == "wsdl here"

    def test_prefix_route(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        server.add_route("/docs/", lambda request: HttpResponse.ok_text(request.path), prefix=True)
        server.start()
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/docs/a/b").body == "/docs/a/b"

    def test_prefix_routes_first_registered_wins(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        server.add_route("/docs/", lambda request: HttpResponse.ok_text("docs"), prefix=True)
        server.add_route("/docs/deep/", lambda request: HttpResponse.ok_text("deep"), prefix=True)
        server.start()
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/docs/deep/x").body == "docs"

    def test_prefix_route_scoped_by_method(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        server.add_route(
            "/docs/", lambda request: HttpResponse.ok_text("docs"), methods=("GET",), prefix=True
        )
        server.start()
        client = HttpClient(network.host("client"))
        assert client.request("POST", "http://server:8080/docs/x", "body").status == 404
        assert client.get("http://server:8080/docs/x").body == "docs"

    def test_exact_route_scoped_by_method(self, network, scheduler):
        self._serve(network, lambda request: HttpResponse.ok_text("x"), methods=("GET",))
        client = HttpClient(network.host("client"))
        assert client.request("POST", "http://server:8080/test", "body").status == 404

    def test_exact_route_beats_an_earlier_prefix_route(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        server.add_route("/", lambda request: HttpResponse.ok_text("prefix"), prefix=True)
        server.add_route("/exact", lambda request: HttpResponse.ok_text("exact"))
        server.start()
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/exact").body == "exact"
        assert client.get("http://server:8080/other").body == "prefix"

    def test_handler_exception_becomes_500(self, network, scheduler):
        def handler(request):
            raise RuntimeError("handler blew up")

        self._serve(network, handler)
        client = HttpClient(network.host("client"))
        response = client.get("http://server:8080/test")
        assert response.status == 500
        assert "handler blew up" in response.body

    def test_delayed_response_advances_clock(self, network, scheduler):
        self._serve(network, lambda request: (HttpResponse.ok_text("slow"), 0.5))
        client = HttpClient(network.host("client"))
        start = scheduler.now
        client.get("http://server:8080/test")
        assert scheduler.now - start >= 0.5

    def test_deferred_response(self, network, scheduler):
        deferred_holder = []

        def handler(request):
            deferred = Deferred()
            deferred_holder.append(deferred)
            return deferred

        self._serve(network, handler)
        scheduler.schedule(
            2.0, lambda: deferred_holder[0].complete(HttpResponse.ok_text("late"))
        )
        client = HttpClient(network.host("client"))
        response = client.get("http://server:8080/test")
        assert response.body == "late"
        assert scheduler.now >= 2.0

    def test_handler_may_return_framed_bytes(self, network, scheduler):
        """A handler's response may be the wire bytes of one, sent as they
        are: directly, with a processing delay, or through a deferred."""
        framed = HttpResponse.ok_text("framed").to_bytes()
        later = Deferred()
        results = iter([framed, (framed, 0.5), later])
        self._serve(network, lambda request: next(results))
        scheduler.schedule(2.0, lambda: later.complete(framed))
        client = HttpClient(network.host("client"))
        start = scheduler.now
        assert client.get("http://server:8080/test").body == "framed"
        assert client.get("http://server:8080/test").body == "framed"
        assert scheduler.now - start >= 0.5
        assert client.get("http://server:8080/test").body == "framed"
        assert scheduler.now >= 2.0

    def test_deferred_double_completion_rejected(self):
        deferred = Deferred()
        deferred.complete(HttpResponse.ok_text("one"))
        with pytest.raises(Exception):
            deferred.complete(HttpResponse.ok_text("two"))

    def test_stopped_server_refuses_connections(self, network, scheduler):
        server = self._serve(network, lambda request: HttpResponse.ok_text("x"))
        server.stop()
        client = HttpClient(network.host("client"))
        with pytest.raises(Exception):
            client.get("http://server:8080/test")

    def test_multiple_sequential_requests(self, network, scheduler):
        counter = {"n": 0}

        def handler(request):
            counter["n"] += 1
            return HttpResponse.ok_text(str(counter["n"]))

        self._serve(network, handler)
        client = HttpClient(network.host("client"))
        bodies = [client.get("http://server:8080/test").body for _ in range(3)]
        assert bodies == ["1", "2", "3"]
        assert client.requests_sent == 3
        assert client.channel.replies_received == 3

    def test_duplicate_route_first_wins(self, network, scheduler):
        server = HttpServer(network.host("server"), 8080)
        server.add_route("/dup", lambda request: HttpResponse.ok_text("first"))
        server.add_route("/dup", lambda request: HttpResponse.ok_text("second"))
        server.start()
        client = HttpClient(network.host("client"))
        assert client.get("http://server:8080/dup").body == "first"

    def test_requests_served_counter(self, network, scheduler):
        server = self._serve(network, lambda request: HttpResponse.ok_text("x"))
        client = HttpClient(network.host("client"))
        client.get("http://server:8080/test")
        client.get("http://server:8080/missing")
        assert server.requests_served == 2


class TestUrlParsing:
    def test_parse_url_with_port_and_path(self):
        address, path = HttpClient.parse_url("http://server:8080/a/b?c=1")
        assert address.host == "server"
        assert address.port == 8080
        assert path == "/a/b?c=1"

    def test_parse_url_default_port(self):
        address, path = HttpClient.parse_url("http://server/x")
        assert address.port == 80

    def test_parse_url_without_path(self):
        address, path = HttpClient.parse_url("http://server:99")
        assert path == "/"

    @pytest.mark.parametrize("url", ["ftp://server/x", "http://:80/x", "http://server:abc/x"])
    def test_malformed_urls_rejected(self, url):
        with pytest.raises(HttpError):
            HttpClient.parse_url(url)
