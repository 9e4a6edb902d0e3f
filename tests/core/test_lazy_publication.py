"""Lazy publication: a version is published when its generation completes,
and its document text is rendered when a client first reads it.

A published document is a pure function of its versioned description, so
rendering it on the first read (a GET, or ``InterfaceServer.document``)
instead of inside the publication event changes no byte.  These tests pin
that identity over random edit, publish and fetch orders on both
technologies, pin that each version is rendered at most once and only if
read, and pin what a render that raises does now that it runs at read time.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Scenario, churn, op, rolling, upgrade
from repro.core.sde import SDEConfig
from repro.core.sde.idl_publisher import IdlPublisher
from repro.core.sde.interface_server import InterfaceServer
from repro.core.sde.wsdl_publisher import WsdlPublisher
from repro.corba.idl import parse_idl
from repro.interface import Parameter
from repro.jpie import JPieEnvironment
from repro.net.http import HttpClient
from repro.rmitypes import INT, STRING, VOID
from repro.soap.wsdl import parse_wsdl

PARSERS = {"soap": parse_wsdl, "corba": parse_idl}


def _echo(name: str = "echo"):
    return op(name, (("message", STRING),), STRING, body=lambda _self, message: message)


def _breaking_upgrade():
    return upgrade(add=[_echo("echo_v2")], remove=["echo"], successors={"echo": "echo_v2"})


def _eager(publisher, version: int) -> str:
    """What eager publication rendered for ``version``: the render of its
    versioned description, taken from the publication history."""
    record = publisher.publication_history[version - 1]
    assert record.version == version
    return publisher.render(record.description)


def _calc_publisher(cls, network, scheduler):
    """A ``cls`` publisher of a fresh class ``Calc`` on a started Interface Server."""
    interface_server = InterfaceServer(network.host("server"), 8080)
    interface_server.start()
    return cls(
        dynamic_class=JPieEnvironment().create_class("Calc"),
        interface_server=interface_server,
        scheduler=scheduler,
        namespace="urn:sde:Calc",
        endpoint_url="http://server:8070/sde/Calc",
        generation_cost=0.5,
    )


def _add_and_force(publisher) -> None:
    """Add a distributed ``add`` and force a publication."""
    publisher.dynamic_class.add_method(
        "add", (Parameter("a", INT),), INT, body=lambda _self, a: a, distributed=True
    )
    publisher.force_publish()


def _get(client, url):
    """GET ``url`` and wait for the response."""
    return client.request_async("GET", url).wait(client.channel.scheduler)


# ---------------------------------------------------------------------------
# Byte identity over edit / publish / fetch orders
# ---------------------------------------------------------------------------

#: One developer or client step against a two-replica service.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("edit"), st.integers(0, 1)),
        st.tuples(st.just("publish"), st.integers(0, 1)),
        st.tuples(st.just("wait"), st.sampled_from([0.001, 0.01, 0.03, 0.2])),
        st.tuples(st.just("fetch"), st.integers(0, 1)),
        st.tuples(st.just("document"), st.integers(0, 1)),
        st.tuples(st.just("churn"), st.integers(1, 4)),
        st.tuples(st.just("rolling"), st.just(0)),
    ),
    max_size=14,
)


class TestByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(technology=st.sampled_from(sorted(PARSERS)), plan=steps)
    def test_every_read_equals_the_eager_render(self, technology, plan):
        runtime = (
            Scenario(sde_config=SDEConfig(generation_cost=0.02, publication_timeout=0.05))
            .servers(2)
            .service("E", [_echo()], technology=technology, replicas=2)
            .build()
        )
        runtime.publish("E")
        replicas = runtime.replicas("E")
        client = HttpClient(runtime.world.add_client("probe"))
        parse = PARSERS[technology]

        def fetch(index: int) -> None:
            publisher = replicas[index].publisher
            body = _get(client, publisher.document_url).body
            assert body == _eager(publisher, parse(body).version)

        def document(index: int) -> None:
            publisher = replicas[index].publisher
            text = publisher.interface_server.document(publisher.document_path)
            assert text == _eager(publisher, publisher.version)

        edits = churns = 0
        rolled = False
        for kind, value in plan:
            if kind == "edit":
                edits += 1
                runtime.dynamic_class("E", value).add_method(
                    f"edit_{edits}", (Parameter("a", INT),), VOID,
                    body=lambda _self, a: None, distributed=True,
                )
            elif kind == "publish":
                replica = replicas[value]
                replica.node.manager_interface.force_publication(replica.class_name)
            elif kind == "wait":
                runtime.world.run_for(value)
            elif kind == "fetch":
                fetch(value)
            elif kind == "document":
                document(value)
            elif kind == "churn":
                churns += 1
                churn("E", rounds=value, period=0.004, prefix=f"churn{churns}_")(runtime)
            elif not rolled:
                rolled = True
                rolling("E", _breaking_upgrade(), batch_size=1, drain=0.005)(runtime)
        runtime.world.run_for(1.0)
        for index in range(len(replicas)):
            fetch(index)
            document(index)
            fetch(index)


# ---------------------------------------------------------------------------
# Render counts
# ---------------------------------------------------------------------------


@pytest.fixture
def renders(monkeypatch):
    """Every ``(publisher, version)`` the WSDL and IDL publishers render."""
    rendered: Counter = Counter()
    for cls in (WsdlPublisher, IdlPublisher):
        original = cls.render

        def counting(self, description, original=original):
            rendered[(id(self), description.version)] += 1
            return original(self, description)

        monkeypatch.setattr(cls, "render", counting)
    return rendered


@pytest.fixture
def reads(monkeypatch):
    """Every distinct ``(server, path, publication)`` a GET or
    ``document()`` read."""
    seen: set = set()
    publications: Counter = Counter()
    publish, serve, document = (
        InterfaceServer.publish, InterfaceServer._serve, InterfaceServer.document
    )

    def counting_publish(self, path, *args, **kwargs):
        publications[(id(self), path)] += 1
        return publish(self, path, *args, **kwargs)

    def note(server, path):
        if not path.endswith(".ior"):
            seen.add((id(server), path, publications[(id(server), path)]))

    def counting_serve(self, request):
        note(self, request.path.split("?", 1)[0])
        return serve(self, request)

    def counting_document(self, path):
        note(self, path)
        return document(self, path)

    monkeypatch.setattr(InterfaceServer, "publish", counting_publish)
    monkeypatch.setattr(InterfaceServer, "_serve", counting_serve)
    monkeypatch.setattr(InterfaceServer, "document", counting_document)
    return seen


class TestRenderCounts:
    def test_live_edit_renders_only_the_versions_clients_read(self, renders, reads):
        """The benchmark's live-edit shape, scaled down: churn and a breaking
        rolling upgrade on both technologies under a mixed fleet."""
        scenario = (
            Scenario(sde_config=SDEConfig(generation_cost=0.02))
            .servers(2)
            .service("EchoSoap", [_echo()], technology="soap", replicas=2)
            .service("EchoCorba", [_echo()], technology="corba", replicas=2)
            .clients(
                8, protocol_mix={"soap": 0.5, "corba": 0.5}, calls=8, operation="echo",
                arguments=("hi",), think_time=0.01,
            )
        )
        for service in ("EchoSoap", "EchoCorba"):
            scenario.at(0.010, churn(service, rounds=10, period=0.004))
            scenario.at(0.060, rolling(service, _breaking_upgrade(), batch_size=1, drain=0.005))
        runtime = scenario.build()
        report = runtime.run()
        assert report.outcomes("all").successes > 0
        assert report.outcomes("all").rebinds > 0
        assert set(renders.values()) == {1}
        assert len(renders) == len(reads)

        publishers = [
            replica.publisher
            for service in ("EchoSoap", "EchoCorba")
            for replica in runtime.replicas(service)
        ]
        rendered = []
        for _ in range(2):  # the second round of reads renders nothing
            for publisher in publishers:
                publisher.interface_server.document(publisher.document_path)
            rendered.append(sum(renders.values()))
        assert rendered[0] == rendered[1]
        assert set(renders.values()) == {1}
        assert len(renders) == len(reads)
        published = sum(len(publisher.publication_history) for publisher in publishers)
        assert 0 < len(renders) < published

    def test_a_version_replaced_unread_is_never_rendered(
        self, renders, network, scheduler
    ):
        publisher = _calc_publisher(WsdlPublisher, network, scheduler)
        interface_server = publisher.interface_server
        publisher.publish_minimal()
        _add_and_force(publisher)
        scheduler.run_until_idle()
        assert publisher.version == 2
        assert not renders

        text = interface_server.document(publisher.document_path)
        assert renders == {(id(publisher), 2): 1}
        assert interface_server.document(publisher.document_path) == text
        client = HttpClient(network.host("client"))
        assert _get(client, publisher.document_url).body == text
        assert _get(client, publisher.document_url).body == text
        assert renders == {(id(publisher), 2): 1}


# ---------------------------------------------------------------------------
# A render that raises
# ---------------------------------------------------------------------------


class _FlakyPublisher(WsdlPublisher):
    """A WSDL publisher whose render fails until ``broken`` is cleared."""

    broken = True

    def render(self, description):
        if self.broken:
            raise RuntimeError(f"cannot render version {description.version}")
        return super().render(description)


class TestRenderThatRaises:
    def test_publication_completes_and_reads_fail_until_render_works(
        self, network, scheduler
    ):
        publisher = _calc_publisher(_FlakyPublisher, network, scheduler)
        interface_server = publisher.interface_server
        _add_and_force(publisher)
        scheduler.run_until_idle()
        # The publication event itself no longer renders, so it completes.
        assert publisher.version == 1
        assert [record.version for record in publisher.publication_history] == [1]
        assert publisher.published_description.has_operation("add")

        client = HttpClient(network.host("client"))
        for _ in range(2):  # not memoised: every read runs the render again
            response = _get(client, publisher.document_url)
            assert response.status == 500
            assert "RuntimeError: cannot render version 1" in response.body
            with pytest.raises(RuntimeError, match="cannot render version 1"):
                interface_server.document(publisher.document_path)

        publisher.broken = False
        body = _get(client, publisher.document_url).body
        assert parse_wsdl(body).version == 1
        assert interface_server.document(publisher.document_path) == body
