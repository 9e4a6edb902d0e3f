"""The four benchmark workloads, each built only through the public Scenario API.

Every workload takes the benchmark seed and feeds it to one seeded
``Poisson`` client arrival process; the seed changes the generated arrival
offsets and nothing else.  The workloads are chosen so that each layer of
the simulator is exercised by one workload and bypassed by another (see
README.md for the layer → workload mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.cohort import CohortModel
from repro.cluster.presets import cohort_scale_cost_model, fault_drill_scenario
from repro.cluster.scenario import Scenario, churn, op
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.faults import RetryPolicy
from repro.rmitypes import STRING
from repro.traffic.arrivals import Poisson
from repro.traffic.trace import echo_body

#: Client arrival rate (clients per simulated second) of the discrete workloads.
ARRIVAL_RATE = 2000.0

COHORT_CLIENTS = 250_000
#: The cohort's Poisson arrivals land within about this many simulated seconds.
COHORT_WINDOW_S = 0.2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded Scenario and what it is for."""

    name: str
    why: str
    #: Calls each client plans; the correctness gate checks conservation against it.
    calls_per_client: int
    scenario: Callable[[int], Scenario]


def _echo(name: str = "echo"):
    return op(name, (("message", STRING),), STRING, body=echo_body)


def _breaking_upgrade():
    """``echo`` → ``echo_v2``: old stubs get a §5.7 stale fault and rebind."""
    return upgrade(add=[_echo("echo_v2")], remove=["echo"], successors={"echo": "echo_v2"})


def _mixed_services(name: str, clients: int, calls: int, argument: str,
                    think_time: float, seed: int) -> Scenario:
    """The drill's machine room (4 servers, SOAP + CORBA echo, 2 replicas each)
    with a 50/50 closed-loop client fleet and no faults."""
    return (
        Scenario(name=name, sde_config=SDEConfig(generation_cost=0.02))
        .servers(4)
        .service("EchoSoap", [_echo()], technology="soap", replicas=2)
        .service("EchoCorba", [_echo()], technology="corba", replicas=2)
        .clients(
            clients,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=calls,
            operation="echo",
            arguments=(argument,),
            think_time=think_time,
            arrival=Poisson(rate=ARRIVAL_RATE, seed=seed),
            retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
        )
    )


def drill_mixed(seed: int) -> Scenario:
    """The 4×256 fault drill: crash, partition, edit and publish mid-run."""
    return fault_drill_scenario(256, arrival=Poisson(rate=ARRIVAL_RATE, seed=seed))


def steady_bulk(seed: int) -> Scenario:
    """64 clients × 16 calls of a 4 KiB string, no faults and no edits."""
    return _mixed_services("steady-bulk", 64, 16, "x" * 4096, 0.005, seed)


def live_edit(seed: int) -> Scenario:
    """Interface churn on both services, then a breaking rolling upgrade of each."""
    scenario = _mixed_services("live-edit", 64, 16, "hello edit", 0.010, seed)
    for service in ("EchoSoap", "EchoCorba"):
        scenario.at(0.010, churn(service, rounds=40, period=0.004))
        scenario.at(0.100, rolling(service, _breaking_upgrade(), batch_size=1, drain=0.005))
    return scenario


def cohort_250k(seed: int) -> Scenario:
    """``million_client_scenario``'s composition at 250k clients, Poisson arrivals."""
    return fault_drill_scenario(
        COHORT_CLIENTS,
        cores=2,
        cohort=CohortModel(representatives=32),
        calls=2,
        arrival=Poisson(rate=COHORT_CLIENTS / COHORT_WINDOW_S, seed=seed),
        cost_model=cohort_scale_cost_model(),
    ).at(0.080, rolling("EchoSoap", _breaking_upgrade(), batch_size=1, drain=0.005))


#: In round-robin order: the timed reps interleave the workloads in this order.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "drill-mixed",
            "4x256 SOAP/CORBA fault drill: small messages through every discrete "
            "layer; 256 clients each fetch and parse WSDL/IDL, so parsing and retries show",
            4,
            drill_mixed,
        ),
        Workload(
            "steady-bulk",
            "64 clients x 16 calls of a 4 KiB string, no faults: per-byte codec cost "
            "dominates and only 64 clients parse descriptions",
            16,
            steady_bulk,
        ),
        Workload(
            "live-edit",
            "interface churn plus breaking rolling upgrades: WSDL/IDL regenerated and "
            "re-parsed on rebind, and the 5.7 stall queue fills",
            16,
            live_edit,
        ),
        Workload(
            "cohort-250k",
            "250k clients, 32 discrete: plan building and arrivals dominate while "
            "codecs, transport and scheduler are bypassed",
            2,
            cohort_250k,
        ),
    )
}
