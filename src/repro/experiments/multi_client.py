"""E8 — Multi-client scale-out: RTT and stall-queue behaviour vs client count.

The paper evaluates one client against one SDE (Table 1).  This experiment
asks the scaling question the reproduction's north-star cares about: what
happens to per-call round-trip time and to the §5.7 stall queue as the
number of concurrent clients grows, for both middlewares?

Each configuration is one declarative :class:`repro.cluster.Scenario` —
one SDE server machine, an echo service, N clients — driven by the
deterministic callback-driven cluster fleet driver.  Two scenarios:

* ``steady`` — every call hits a live method; measures pure transport/dispatch
  scaling (connection reuse, FIFO reply ordering, endpoint dispatch).
* ``stale_storm`` — a scripted mid-run edit leaves the published interface
  behind the live one, and every third call per client targets a method the
  server does not implement; with reactive publication this exercises the
  §5.7 stall protocol under load, and the report captures how deep the stall
  queue grows with the fleet size.

Determinism: the same configuration always yields byte-identical RTT
sequences (``tests/core/test_workload.py`` and
``tests/integration/test_perf_model.py`` assert it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import ClusterReport, Scenario, edit, op
from repro.core.sde import SDEConfig
from repro.net.latency import CostModel
from repro.rmitypes import STRING
from repro.traffic.trace import echo_body

#: The echo payload used for every measured call.
ECHO_PAYLOAD = "hello from the client fleet"

SCENARIO_STEADY = "steady"
SCENARIO_STALE_STORM = "stale_storm"


@dataclass(frozen=True)
class MultiClientResult:
    """Outcome of one (technology, scenario, client-count) configuration."""

    technology: str
    scenario: str
    clients: int
    calls_per_client: int
    mean_rtt: float
    max_rtt: float
    throughput: float
    stalled_calls: int
    max_stall_queue_depth: int
    server_connections: int
    report: ClusterReport
    #: Bounded server-CPU configuration (None = unlimited parallel cores).
    server_cores: int | None = None
    #: Seconds requests spent queued for a server core across the run.
    server_waited_seconds: float = 0.0


def build_scenario(
    technology: str,
    clients: int,
    calls_per_client: int = 10,
    scenario: str = SCENARIO_STEADY,
    cost_model: CostModel | None = None,
    server_cores: int | None = None,
) -> Scenario:
    """The declarative world description for one scale-out configuration."""
    if scenario not in (SCENARIO_STEADY, SCENARIO_STALE_STORM):
        raise ValueError(f"unknown scenario {scenario!r}")
    stale = scenario == SCENARIO_STALE_STORM
    world = (
        Scenario(
            name=f"multi-client-{technology}-{scenario}",
            sde_config=SDEConfig(
                cost_model=cost_model,
                publication_timeout=5.0 if stale else 2.0,
                server_cores=server_cores,
            ),
        )
        .servers(1)
        .service(
            "EchoService",
            [op("echo", (("message", STRING),), STRING, body=echo_body)],
            technology=technology,
        )
    )
    if stale:
        world.clients(
            clients,
            service="EchoService",
            calls=calls_per_client,
            operation="echo",
            arguments=(ECHO_PAYLOAD,),
            stale_every=3,
            think_time=0.05,
        )
        # The edit lands as the fleet starts: the publication timer is
        # running when the stale calls arrive, so they stall (§5.7).
        world.at(0.0, edit("EchoService", op("added_later")))
    else:
        world.clients(
            clients,
            service="EchoService",
            calls=calls_per_client,
            operation="echo",
            arguments=(ECHO_PAYLOAD,),
        )
    return world


def run_multi_client(
    technology: str,
    clients: int,
    calls_per_client: int = 10,
    scenario: str = SCENARIO_STEADY,
    cost_model: CostModel | None = None,
    server_cores: int | None = None,
) -> MultiClientResult:
    """Run one scale-out configuration and summarise it.

    ``server_cores`` bounds the server machine's CPU concurrency; it only
    changes behaviour when a ``cost_model`` charges per-request processing
    (with no cost model requests consume zero CPU and nothing contends).
    """
    world = build_scenario(
        technology, clients, calls_per_client, scenario, cost_model, server_cores
    )
    report = world.run()
    node = report.nodes[0]
    return MultiClientResult(
        technology=technology,
        scenario=scenario,
        clients=clients,
        calls_per_client=calls_per_client,
        mean_rtt=report.mean_rtt,
        max_rtt=report.max_rtt,
        throughput=report.throughput,
        stalled_calls=report.stalled_calls,
        max_stall_queue_depth=report.max_stall_queue_depth,
        server_connections=report.server_connections,
        report=report,
        server_cores=node.cores,
        server_waited_seconds=node.waited_seconds,
    )

