"""Canonical fleet-shaped scenario presets.

The 4-server × 256-client mixed SOAP/CORBA **fault drill** is the
reproduction's acceptance workload: two replicated echo services, failover
retry on every client, a mid-run edit + publish, one crash, one partition
that later heals, and a restart.  The repo benchmark's ``drill-mixed``
and ``cohort-250k`` workloads and the tests all drive this one scenario
definition.

The drill is parameterised (``servers=``, ``clients=``, ``cohort=``, ...)
so the same definition scales from a handful of test clients up to the
million-client cohort drill (:func:`million_client_scenario`) — the
defaults reproduce the historical drill byte-for-byte.
"""

from __future__ import annotations

from repro.cluster.cohort import CohortModel
from repro.cluster.scenario import Scenario, edit, op, publish
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.faults import RetryPolicy, crash, heal, partition, restart
from repro.net.latency import CostModel
from repro.rmitypes import STRING
from repro.traffic.trace import echo_body

#: Client count of the drill (the acceptance floor).
FAULT_DRILL_CLIENTS = 256

#: Server count of the drill (fixed by the historical scenario definition).
FAULT_DRILL_SERVERS = 4

#: Client count of the million-client cohort drill.
MILLION_CLIENTS = 1_000_000


def fault_drill_scenario(
    clients: int = FAULT_DRILL_CLIENTS,
    servers: int = FAULT_DRILL_SERVERS,
    *,
    replicas: int = 2,
    cores: int | None = None,
    cohort: CohortModel | None = None,
    calls: int = 4,
    think_time: float = 0.02,
    arrival: float = 0.0005,
    cost_model: CostModel | None = None,
) -> Scenario:
    """N servers × mixed fleet, one crash + one partition mid-run.

    The defaults are the historical 4-server × 256-client drill,
    byte-identical to every earlier recording.  ``cohort`` lifts the fleet
    to cohort scale (see :mod:`repro.cluster.cohort`); ``servers`` /
    ``replicas`` / ``cores`` reshape the machine room.  The crash always
    hits the first server and the partition the last one (capped at the
    historical ``server-3`` when four or more servers exist), so the two
    fault classes never collapse onto one machine.
    """
    if servers < 2:
        raise ValueError("the fault drill needs at least 2 servers to fail over")
    # The registered echo body keeps the drill traceable (record/replay);
    # it computes exactly what the historical lambda did.
    echo = op("echo", (("message", STRING),), STRING, body=echo_body)
    retry = RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005)
    partitioned = f"server-{min(servers, 3)}"
    return (
        Scenario(
            name="fault-drill",
            sde_config=SDEConfig(
                generation_cost=0.02, cost_model=cost_model, server_cores=cores
            ),
        )
        .servers(servers)
        .service("EchoSoap", [echo], technology="soap", replicas=replicas)
        .service("EchoCorba", [echo], technology="corba", replicas=replicas)
        .clients(
            clients,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=calls,
            operation="echo",
            arguments=("hello fleet",),
            think_time=think_time,
            arrival=arrival,
            retry=retry,
            cohort=cohort,
        )
        .at(0.020, edit("EchoSoap", op("added_mid_run")))
        .at(0.030, publish("EchoSoap"))      # generation completes ~0.05 ...
        .at(0.040, crash("server-1"))        # ... crash lands mid-generation
        .at(0.050, partition(partitioned))   # second fault class: isolation
        .at(0.110, heal(partitioned))
        .at(0.150, restart("server-1"))
    )


def cohort_scale_cost_model() -> CostModel:
    """Per-call CPU costs sized for million-client cohort runs.

    The 2004-era constants put one echo call around 0.1 CPU-seconds —
    sensible for a 512-client testbed sweep, absurd when a modeled million
    clients offer two million calls inside a 0.2 s window.  These constants
    land one call under a microsecond, so the 8-core fleet runs at
    realistic utilisation: queueing waits appear (the server-core model is
    genuinely exercised) without drowning the window.
    """
    return CostModel(
        fixed_dispatch=3e-7,
        text_parse_per_byte=3e-10,
        binary_parse_per_byte=1e-10,
        reflection_overhead=1e-7,
        interface_check=5e-8,
        dsi_overhead=1e-7,
    )


def million_client_scenario(
    clients: int = MILLION_CLIENTS,
    *,
    representatives: int = 32,
) -> Scenario:
    """The million-client acceptance workload: drill faults + breaking upgrade.

    The fault drill's crash and partition, at cohort scale, plus a rolling
    *breaking* interface upgrade (``echo`` → ``echo_v2``) landing mid-run —
    the §5.7/§6 machinery exercised while a modeled million-client mass
    keeps arriving.  Every client issues 2 calls; arrivals are spread so
    the whole mass lands within the drill's fault window.
    """
    echo_v2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
    return fault_drill_scenario(
        clients,
        cores=2,
        cohort=CohortModel(representatives=representatives),
        calls=2,
        arrival=0.2 / clients,
        cost_model=cohort_scale_cost_model(),
    ).at(
        0.080,
        rolling(
            "EchoSoap",
            upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"}),
            batch_size=1,
            drain=0.005,
        ),
    )
