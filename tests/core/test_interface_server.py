"""Tests for the SDE Interface Server (the integrated HTTP publication server)."""

import pytest

from repro.core.sde.interface_server import InterfaceServer
from repro.errors import ConnectionRefusedError, PublicationError
from repro.net.http import HttpClient


def _get(client, url):
    """GET ``url`` and wait for the response."""
    return client.request_async("GET", url).wait(client.channel.scheduler)


@pytest.fixture
def interface_server(network):
    server = InterfaceServer(network.host("server"), 8080)
    server.start()
    return server


@pytest.fixture
def client(network):
    return HttpClient(network.host("client"))


class TestPublication:
    def test_publish_and_fetch(self, interface_server, client):
        url = interface_server.publish("/wsdl/Calc.wsdl", "<definitions/>")
        response = _get(client, url)
        assert response.ok
        assert response.body == "<definitions/>"
        assert response.header("content-type").startswith("text/xml")

    def test_republish_replaces_content(self, interface_server, client):
        interface_server.publish("/doc", "v1", "text/plain")
        interface_server.publish("/doc", "v2", "text/plain")
        assert _get(client, interface_server.url_for("/doc")).body == "v2"

    def test_unknown_path_is_404(self, interface_server, client):
        assert _get(client, interface_server.url_for("/nothing")).status == 404

    def test_withdraw(self, interface_server, client):
        interface_server.publish("/doc", "content", "text/plain")
        interface_server.withdraw("/doc")
        assert _get(client, interface_server.url_for("/doc")).status == 404

    def test_publish_and_withdraw_invalidate_the_framed_document(
        self, interface_server, client
    ):
        """A document is framed on its first GET and sent as those bytes
        until it is republished or withdrawn."""
        url = interface_server.publish("/doc", "v1", "text/plain")
        assert _get(client, url).body == "v1"
        assert _get(client, url).body == "v1"
        interface_server.publish("/doc", "v2", "text/plain")
        assert _get(client, url).body == "v2"
        interface_server.withdraw("/doc")
        assert _get(client, url).status == 404
        interface_server.publish("/doc", "<v3/>")
        response = _get(client, url)
        assert (response.body, response.header("content-type")) == (
            "<v3/>", "text/xml; charset=utf-8"
        )

    def test_document_accessor(self, interface_server):
        interface_server.publish("/doc", "content", "text/plain")
        assert interface_server.document("/doc") == "content"
        assert interface_server.document("/missing") is None

    def test_invalid_path_rejected(self, interface_server):
        with pytest.raises(PublicationError):
            interface_server.publish("no-slash", "x")


class TestLifecycle:
    def test_stop_and_restart(self, interface_server, client):
        interface_server.publish("/doc", "content", "text/plain")
        interface_server.stop()
        assert not interface_server.running
        url = interface_server.url_for("/doc")
        with pytest.raises(ConnectionRefusedError):
            _get(client, url)
        # A caller whose wait unwound before the reply resets the connection.
        client.channel.reset(HttpClient.parse_url(url)[0])
        interface_server.start()
        assert _get(client, url).ok

    def test_documents_survive_restart(self, interface_server, client):
        interface_server.publish("/doc", "kept", "text/plain")
        interface_server.stop()
        interface_server.start()
        assert _get(client, interface_server.url_for("/doc")).body == "kept"
