"""Microbenchmarks of the simulation-core hot paths.

Every experiment in this repository is bottlenecked on three engines:

* the discrete-event **scheduler** (``repro.sim.scheduler``) — every network
  delivery, processing delay, timer and workload arrival is one dispatched
  event;
* the **simulated network** (``repro.net.simnet``) — one delivery per
  message, plus per-message accounting;
* the **codecs** — SOAP envelope serialisation (``repro.soap.envelope``,
  the dominant per-call cost for the SOAP middleware) and CDR marshalling
  (``repro.corba.cdr``) for GIOP.

This file measures each engine in isolation and attaches throughput numbers
(``events_per_second``, ``messages_per_second``, ``envelopes_per_second``,
``values_per_second``) to ``extra_info`` so ``run_all.py`` records them in
the ``BENCH_results.json`` trajectory.  The scheduler-dispatch number is the
one the fleet-scaling acceptance criterion tracks across PRs.

All workloads are deterministic (no RNG, no wall-clock dependence).

Run with:  pytest benchmarks/bench_simcore.py --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.cluster.presets import (
    FAULT_DRILL_CLIENTS,
    FAULT_DRILL_CLIENTS_QUICK,
    FAULT_DRILL_SERVERS,
    fault_drill_scenario,
)
from repro.corba.cdr import marshal_values, unmarshal_values
from repro.net.latency import loopback_profile
from repro.net.simnet import Address, Network
from repro.sim import Scheduler
from repro.soap.envelope import SoapRequest

_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Events dispatched by the scheduler microbenchmark.
N_EVENTS = 10_000 if _QUICK else 60_000
#: Messages delivered by the simnet microbenchmark.
N_MESSAGES = 2_000 if _QUICK else 12_000
#: Envelopes / value-lists encoded by the codec microbenchmarks.
N_ENVELOPES = 500 if _QUICK else 3_000
N_CDR = 2_000 if _QUICK else 20_000

_ROUNDS = 1 if _QUICK else 3


def _throughput(benchmark, key: str, count: int) -> None:
    mean = benchmark.stats.stats.mean
    benchmark.extra_info[key] = round(count / mean) if mean > 0 else 0


# -- scheduler ---------------------------------------------------------------


def _drive_scheduler(total_events: int) -> int:
    """A workload shaped like the fleet sweeps: a deep standing heap plus
    self-rescheduling chains (think-time timers, delivery cascades)."""
    scheduler = Scheduler()
    # Half the events form a deep standing queue, scheduled out of order so
    # the heap actually works (deterministic pseudo-shuffle).
    standing = total_events // 2
    for index in range(standing):
        scheduler.schedule(((index * 7919) % standing) * 1e-4 + 1e-6, _noop)
    # The other half are 64 concurrent chains, each dispatch scheduling the
    # next link — the pattern the callback-driven workload clients produce.
    chains = 64
    budget = [total_events - standing]

    def tick() -> None:
        budget[0] -= 1
        if budget[0] > 0:
            scheduler.schedule(0.00025, tick)

    for index in range(min(chains, budget[0])):
        scheduler.schedule(index * 1e-5, tick)
    scheduler.run_until_idle(max_events=total_events * 2 + 10)
    return scheduler.dispatched_count


def _noop() -> None:
    return None


def _churn_scheduler(total_events: int) -> int:
    """Heavy cancellation churn: publication-timer resets at fleet scale.

    Two thirds of scheduled events are cancelled before they run; the
    scheduler must still dispatch the survivors in (time, insertion) order
    without scanning the queue.
    """
    scheduler = Scheduler()
    survivors = 0
    pending = []
    for index in range(total_events):
        event = scheduler.schedule((index % 997) * 1e-4 + 1e-6, _noop)
        pending.append(event)
        if index % 3:
            pending.pop().cancel()
        if index % 100 == 0:
            # The O(1)-or-bust introspection the workload driver leans on.
            scheduler.pending_count
    survivors = scheduler.run_until_idle(max_events=total_events + 10)
    return survivors


@pytest.mark.benchmark(group="simcore-scheduler")
def test_scheduler_dispatch_throughput(benchmark):
    """Events dispatched per second on a fleet-shaped event mix."""
    dispatched = benchmark.pedantic(
        _drive_scheduler, args=(N_EVENTS,), rounds=_ROUNDS, iterations=1
    )
    # The last in-flight link of each chain still dispatches after the
    # budget runs out, so the count lands slightly above the target.
    assert N_EVENTS <= dispatched <= N_EVENTS + 64
    _throughput(benchmark, "events_per_second", dispatched)


@pytest.mark.benchmark(group="simcore-scheduler")
def test_scheduler_cancellation_churn(benchmark):
    """Schedule/cancel churn with periodic pending-count introspection."""
    survivors = benchmark.pedantic(
        _churn_scheduler, args=(N_EVENTS,), rounds=_ROUNDS, iterations=1
    )
    assert survivors > 0
    _throughput(benchmark, "events_per_second", N_EVENTS)


# -- headline aggregate ------------------------------------------------------


@pytest.mark.benchmark(group="simcore-headline")
def test_fleet_events_per_second(benchmark):
    """The headline number: scheduler events per wall-clock second while
    simulating the full 4×256 mixed SOAP/CORBA fault drill — every layer
    (scheduler, simnet, transport, HTTP/GIOP, codecs, faults) in the loop,
    not a microbenchmark."""
    clients = FAULT_DRILL_CLIENTS_QUICK if _QUICK else FAULT_DRILL_CLIENTS

    def run_drill():
        return fault_drill_scenario(clients).run()

    report = benchmark.pedantic(run_drill, rounds=_ROUNDS, iterations=1)

    assert report.events_dispatched > 0
    assert report.total_recency_violations == 0

    _throughput(benchmark, "events_per_second", report.events_dispatched)
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["servers"] = FAULT_DRILL_SERVERS
    benchmark.extra_info["events_dispatched"] = report.events_dispatched
    benchmark.extra_info["simulated_duration_s"] = round(report.duration, 5)


# -- simulated network -------------------------------------------------------


def _drive_network(total_messages: int) -> int:
    scheduler = Scheduler()
    network = Network(scheduler, loopback_profile())
    sender = network.add_host("sender")
    receiver = network.add_host("receiver")
    received = [0]

    def on_message(message, host) -> None:
        received[0] += 1

    receiver.bind(80, on_message)
    destination = Address("receiver", 80)
    payload = b"x" * 256
    # Sends trickle in over virtual time (a fleet, not one burst), so the
    # delivery queue stays populated the way a real sweep keeps it.
    batch = 200
    sent = [0]

    def send_batch() -> None:
        for _ in range(batch):
            if sent[0] < total_messages:
                sent[0] += 1
                sender.send(destination, payload)

    for index in range(total_messages // batch + 1):
        scheduler.schedule(index * 1e-3, send_batch)
    scheduler.run_until_idle(max_events=total_messages * 2 + 1000)
    return received[0]


@pytest.mark.benchmark(group="simcore-network")
def test_simnet_delivery_throughput(benchmark):
    """Messages delivered per second through the simulated network."""
    received = benchmark.pedantic(
        _drive_network, args=(N_MESSAGES,), rounds=_ROUNDS, iterations=1
    )
    assert received == N_MESSAGES
    _throughput(benchmark, "messages_per_second", received)


# -- codecs ------------------------------------------------------------------

_SOAP_ARGS = ("hello from the client fleet", 42, 3.5, True)


def _encode_soap(total: int) -> int:
    size = 0
    for index in range(total):
        request = SoapRequest.for_call(
            "echo", _SOAP_ARGS, namespace="urn:sde:EchoService"
        )
        size += len(request.to_xml())
    return size


def _roundtrip_soap(total: int) -> int:
    request = SoapRequest.for_call("echo", _SOAP_ARGS, namespace="urn:sde:EchoService")
    wire = request.to_xml()
    decoded = 0
    for _ in range(total):
        parsed = SoapRequest.from_xml(wire)
        decoded += len(parsed.arguments)
    return decoded


@pytest.mark.benchmark(group="simcore-codec")
def test_soap_encode_throughput(benchmark):
    """SOAP envelopes serialised per second (the SOAP-path hot loop)."""
    size = benchmark.pedantic(
        _encode_soap, args=(N_ENVELOPES,), rounds=_ROUNDS, iterations=1
    )
    assert size > 0
    _throughput(benchmark, "envelopes_per_second", N_ENVELOPES)


@pytest.mark.benchmark(group="simcore-codec")
def test_soap_decode_throughput(benchmark):
    """SOAP envelopes parsed per second (server-side receive path)."""
    decoded = benchmark.pedantic(
        _roundtrip_soap, args=(N_ENVELOPES,), rounds=_ROUNDS, iterations=1
    )
    assert decoded == N_ENVELOPES * len(_SOAP_ARGS)
    _throughput(benchmark, "envelopes_per_second", N_ENVELOPES)


_CDR_VALUES = ("hello from the client fleet", 42, 3.5, True, [1, 2, 3], {"k": "v"})


def _marshal_cdr(total: int) -> int:
    size = 0
    for _ in range(total):
        size += len(marshal_values(_CDR_VALUES))
    return size


@pytest.mark.benchmark(group="simcore-codec")
def test_cdr_marshal_throughput(benchmark):
    """CDR value-lists marshalled per second (the GIOP-path hot loop)."""
    size = benchmark.pedantic(
        _marshal_cdr, args=(N_CDR,), rounds=_ROUNDS, iterations=1
    )
    wire = marshal_values(_CDR_VALUES)
    assert unmarshal_values(wire) == list(_CDR_VALUES)
    assert size == len(wire) * N_CDR
    _throughput(benchmark, "values_per_second", N_CDR)
