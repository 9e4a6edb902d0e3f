"""The one bind path of the built-in client stacks.

``bind_replica`` fetches and parses a replica's published documents (the
WSDL, or the IDL and then — once per replica — the IOR) and returns a
deferred; ``prepare_replica`` waits on it.  These tests pin what the two
share: one error text for a document that is not served, and one reset
rule — a wait that unwinds before its bind completed resets the document
connection, and a bind that failed after its reply arrived does not.
"""

from __future__ import annotations

import pytest

from repro.cluster import Scenario, op
from repro.cluster.protocols import BUILTIN_STACKS
from repro.core.sde import SDEConfig
from repro.errors import DeadlockError, MiddlewareError
from repro.net.http import HttpClient, HttpResponse
from repro.net.transport import Deferred
from repro.rmitypes import STRING

#: (technology, the published document's path attribute on the publisher).
DOCUMENTS = [("soap", "document_path"), ("corba", "document_path"), ("corba", "ior_path")]


def _world(technology: str):
    """A published one-replica service and a fresh, unbound client stack."""
    runtime = (
        Scenario(sde_config=SDEConfig(publication_timeout=0.05, generation_cost=0.01))
        .service(
            "Echo",
            [op("echo", (("m", STRING),), STRING, body=lambda _self, m: m)],
            technology=technology,
        )
        .build()
    )
    runtime.publish("Echo")
    replica = runtime.replicas("Echo")[0]
    stack = BUILTIN_STACKS[technology](runtime.world.add_client("probe"), 0, [replica])
    return runtime, replica, stack


def _document_connection(stack, replica):
    """The stack's connection to the replica's Interface Server."""
    address, _path = HttpClient.parse_url(replica.publisher.document_url)
    return stack.http.channel.connection_for(address)


def _failure(deferred: Deferred) -> BaseException:
    errors: list[BaseException | None] = []
    deferred.subscribe(lambda _value, error, _delay: errors.append(error))
    assert deferred.completed
    return errors[0]


@pytest.mark.parametrize(("technology", "document"), DOCUMENTS)
def test_a_document_not_served_fails_both_entry_points_with_one_text(technology, document):
    """``prepare_replica`` raises and ``bind_replica`` fails with the same
    ``MiddlewareError``; the reply arrived, so the connection keeps its
    source port and owes nothing."""
    runtime, replica, stack = _world(technology)
    publisher = replica.publisher
    path = getattr(publisher, document)
    publisher.interface_server.withdraw(path)
    connection = _document_connection(stack, replica)
    port = connection.port

    with pytest.raises(MiddlewareError) as prepared:
        stack.prepare_replica(replica)
    bound = stack.bind_replica(replica)
    runtime.world.scheduler.run_until_idle()
    failure = _failure(bound)

    expected = f"could not retrieve {publisher.interface_server.url_for(path)}: HTTP 404"
    assert str(prepared.value) == expected
    assert isinstance(failure, MiddlewareError) and str(failure) == expected
    assert (connection.port, connection.pending) == (port, 0)
    assert stack.http.channel.late_replies_dropped == 0


@pytest.mark.parametrize(("technology", "document"), DOCUMENTS)
def test_a_wait_that_drains_while_the_get_is_held_resets_the_connection(technology, document):
    """The held GET leaves the queue empty: the wait raises ``DeadlockError``
    and the connection moves to a fresh source port, so the late reply lands
    on the old port's tombstone and a later bind works."""
    runtime, replica, stack = _world(technology)
    publisher = replica.publisher
    interface_server = publisher.interface_server
    path = getattr(publisher, document)
    held: list[Deferred] = []

    def hold_first(_request):
        if held:
            return HttpResponse.ok_text(interface_server.document(path))
        held.append(Deferred("held document"))
        return held[0]

    # An exact route beats the Interface Server's prefix route.
    interface_server.http_server.add_route(path, hold_first, methods=("GET",))
    connection = _document_connection(stack, replica)
    port = connection.port

    with pytest.raises(DeadlockError):
        stack.prepare_replica(replica)
    assert len(held) == 1
    assert connection.port != port
    held[0].complete(HttpResponse.ok_text(interface_server.document(path)))
    runtime.world.scheduler.run_until_idle()
    assert stack.http.channel.late_replies_dropped == 1

    stack.prepare_replica(replica)
    assert stack.binding.bound[replica.index].version == publisher.version
    assert stack.http.channel.late_replies_dropped == 1


def test_corba_fetches_a_replicas_ior_once():
    """The IOR survives republication: a second bind fetches only the IDL."""
    runtime, replica, stack = _world("corba")
    stack.prepare_replica(replica)
    sent = stack.http.requests_sent
    assert sent == 2
    stack.prepare_replica(replica)
    assert stack.http.requests_sent == sent + 1
