"""E1 — Table 1: round-trip times for client-server communication.

The paper measures the average RTT of one hundred RMI calls in four
configurations (§7):

==========================  ==========
Server/Client               RTT (s)
==========================  ==========
SDE SOAP / Axis             0.58
Axis-Tomcat / Axis          0.53
SDE CORBA / OpenORB         0.51
OpenORB / OpenORB           0.42
==========================  ==========

This driver rebuilds the same four configurations in the simulated world:
a 3.2 GHz-class server host, a slower client host (the 1 GHz PowerBook is
modelled by a client speed factor), a T1-LAN latency profile and the
calibrated 2004-era CPU cost model.  Every configuration runs on a
:class:`~repro.cluster.Scenario` world and calls through the same client:
the CDE's typed stub class over the technology's fleet client stack,
charged the client machine's processing cost.  The static servers run on
the world's server machine and are bound like replicas.  The absolute
numbers depend on the cost calibration; the claims the tests assert are
the paper's qualitative ones — both SOAP configurations are slower than
their CORBA counterparts, and each SDE server stays within ~25% of its
static counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cluster import Scenario, ScenarioRuntime, op
from repro.cluster.protocols import BUILTIN_STACKS
from repro.cluster.registry import Replica
from repro.core.sde import ManagedServer, SDEConfig
from repro.corba import StaticCorbaServer
from repro.interface import OperationSignature, Parameter, ServiceDefinition
from repro.net.latency import CostModel, era_2004_cost_model
from repro.rmitypes import STRING
from repro.soap import StaticSoapServer
from repro.traffic.trace import echo_body

#: Relative speed of the paper's client machine (1 GHz PowerBook G4) compared
#: with its server machine (3.2 GHz Pentium 4).
CLIENT_SPEED_FACTOR = 2.5

#: The RTTs reported in Table 1 of the paper, in seconds.
PAPER_TABLE1_RTT: dict[str, float] = {
    "SDE SOAP/Axis": 0.58,
    "Axis-Tomcat/Axis": 0.53,
    "SDE CORBA/OpenORB": 0.51,
    "OpenORB/OpenORB": 0.42,
}

#: The echo payload used for every measured call.
ECHO_PAYLOAD = "hello from the client development environment"

#: The static servers' HTTP port on the server machine, beside the idle
#: SDE's Interface Server (8080); four digits, like the SDE's own ports, so
#: every URL on the wire keeps its length.
STATIC_HTTP_PORT = 8180


@dataclass(frozen=True)
class RttResult:
    """Measured RTT for one Table 1 configuration."""

    configuration: str
    technology: str
    dynamic_server: bool
    calls: int
    mean_rtt: float
    paper_rtt: float


def _echo_signature() -> OperationSignature:
    return OperationSignature("echo", (Parameter("message", STRING),), STRING)


def _echo_definition() -> ServiceDefinition:
    """The static echo service both static servers deploy."""
    definition = ServiceDefinition("EchoService", "urn:bench:echo")
    definition.add_operation(_echo_signature(), lambda message: message)
    return definition


def _sde_echo_target(technology: str, cost_model: CostModel) -> tuple[ScenarioRuntime, Replica]:
    """The paper's SDE server desktop with a published live echo service."""
    runtime = (
        Scenario(sde_config=SDEConfig(cost_model=cost_model, publication_timeout=2.0))
        .service(
            "EchoService",
            [op("echo", (("message", STRING),), STRING, body=echo_body)],
            technology=technology,
        )
        .build()
    )
    runtime.publish("EchoService")
    return runtime, runtime.replicas("EchoService")[0]


def _static_target(make_server) -> tuple[ScenarioRuntime, Replica]:
    """A world whose server machine runs the static echo server
    ``make_server(host)`` (the §7 export target), as a client stack's target."""
    runtime = Scenario().build()
    node = runtime.nodes[0]
    server = make_server(node.host)
    server.start()
    return runtime, Replica("EchoService", 0, node, server)


def _measure(
    configuration: str,
    technology: str,
    runtime: ScenarioRuntime,
    target: Replica,
    calls: int,
    cost_model: CostModel,
) -> RttResult:
    """Mean RTT of ``calls`` echo calls from the CDE's typed stub class,
    over the technology's client stack on the slower client machine."""
    binding = runtime.cde.connect(
        partial(
            BUILTIN_STACKS[technology], cost_model=cost_model, speed_factor=CLIENT_SPEED_FACTOR
        ),
        target,
    )
    stub = runtime.cde.create_stub_class(binding).new_stub_instance()
    scheduler = runtime.world.scheduler
    total = 0.0
    for _ in range(calls):
        start = scheduler.now
        result = stub.echo(ECHO_PAYLOAD)
        if result != ECHO_PAYLOAD:
            raise AssertionError(f"echo returned {result!r}")
        total += scheduler.now - start
    dynamic_server = isinstance(target.managed, ManagedServer)
    paper_rtt = PAPER_TABLE1_RTT[configuration]
    return RttResult(configuration, technology, dynamic_server, calls, total / calls, paper_rtt)


# ---------------------------------------------------------------------------
# The four configurations
# ---------------------------------------------------------------------------


def run_static_soap(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """Axis-Tomcat/Axis: a static SOAP server."""
    cost_model = cost_model or era_2004_cost_model()
    runtime, target = _static_target(
        lambda host: StaticSoapServer(host, STATIC_HTTP_PORT, _echo_definition(), cost_model)
    )
    return _measure("Axis-Tomcat/Axis", "soap", runtime, target, calls, cost_model)


def run_sde_soap(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """SDE SOAP/Axis: the live SDE SOAP server, running within JPie."""
    cost_model = cost_model or era_2004_cost_model()
    runtime, target = _sde_echo_target("soap", cost_model)
    return _measure("SDE SOAP/Axis", "soap", runtime, target, calls, cost_model)


def run_static_corba(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """OpenORB/OpenORB: a static CORBA server."""
    cost_model = cost_model or era_2004_cost_model()
    runtime, target = _static_target(
        lambda host: StaticCorbaServer(
            host,
            9000,
            _echo_definition(),
            cost_model,
            http_port=STATIC_HTTP_PORT,
        )
    )
    return _measure("OpenORB/OpenORB", "corba", runtime, target, calls, cost_model)


def run_sde_corba(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """SDE CORBA/OpenORB: the live SDE CORBA server, running within JPie."""
    cost_model = cost_model or era_2004_cost_model()
    runtime, target = _sde_echo_target("corba", cost_model)
    return _measure("SDE CORBA/OpenORB", "corba", runtime, target, calls, cost_model)


def run_table1(calls: int = 100, cost_model: CostModel | None = None) -> list[RttResult]:
    """Run all four Table 1 configurations and return their results in the
    same order as the paper's table."""
    return [
        run_sde_soap(calls, cost_model),
        run_static_soap(calls, cost_model),
        run_sde_corba(calls, cost_model),
        run_static_corba(calls, cost_model),
    ]
