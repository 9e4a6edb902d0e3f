"""Shared pytest fixtures for the reproduction's test suite."""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import Scenario, op
from repro.core.sde import SDEConfig
from repro.net import Network, loopback_profile, t1_lan_profile
from repro.net.latency import era_2004_cost_model
from repro.rmitypes import INT, STRING
from repro.sim import Scheduler
from repro.util.ids import reset_global_ids


@pytest.fixture(autouse=True)
def _reset_ids():
    """Keep generated identifiers deterministic within each test."""
    reset_global_ids()
    yield
    reset_global_ids()


def _delivered_digest(runtime) -> tuple[int, str]:
    """SHA-256 over every delivered message's identity, times and payload."""
    digest = hashlib.sha256()
    messages = runtime.world.network.delivered_messages
    for message in messages:
        identity = (
            message.message_id,
            str(message.source),
            str(message.destination),
            message.sent_at.hex(),
            message.delivered_at.hex(),
        )
        digest.update(repr(identity).encode())
        digest.update(message.payload)
    return len(messages), digest.hexdigest()


@pytest.fixture
def delivered_digest():
    """``digest(runtime) -> (count, sha256)`` over the runtime's delivery log
    (set ``runtime.world.network.record_deliveries`` first): pins wire bytes
    that report fingerprints do not cover."""
    return _delivered_digest


@pytest.fixture
def scheduler() -> Scheduler:
    """A fresh discrete-event scheduler."""
    return Scheduler()


@pytest.fixture
def network(scheduler: Scheduler) -> Network:
    """A loopback-latency network with ``server`` and ``client`` hosts."""
    net = Network(scheduler, loopback_profile())
    net.add_host("server")
    net.add_host("client")
    return net


@pytest.fixture
def lan_network(scheduler: Scheduler) -> Network:
    """A T1-LAN-latency network with ``server`` and ``client`` hosts."""
    net = Network(scheduler, t1_lan_profile())
    net.add_host("server")
    net.add_host("client")
    return net


@pytest.fixture
def fast_scenario() -> Scenario:
    """A one-server scenario (the paper's two-host world) with fast
    publication settings; declare services on it, then ``build()``."""
    return Scenario(sde_config=SDEConfig(publication_timeout=1.0, generation_cost=0.05))


@pytest.fixture
def calculator_runtime(fast_scenario: Scenario):
    """A published SOAP Calculator and a connected CDE client:
    ``(runtime, calculator class, binding)``."""
    runtime = fast_scenario.service(
        "Calculator",
        [
            op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b),
            op("greet", (("name", STRING),), STRING, body=lambda self, name: f"hello {name}"),
        ],
    ).build()
    runtime.publish("Calculator")
    return runtime, runtime.dynamic_class("Calculator"), runtime.connect("Calculator")
