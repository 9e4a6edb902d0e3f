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
calibrated 2004-era CPU cost model.  The absolute numbers depend on the cost
calibration; the claims the benchmark asserts are the paper's qualitative
ones — both SOAP configurations are slower than their CORBA counterparts,
and each SDE server stays within ~25% of its static counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import Scenario, ScenarioRuntime, op
from repro.core.sde import SDEConfig
from repro.corba import CorbaServiceDefinition, StaticCorbaClient, StaticCorbaServer
from repro.interface import OperationSignature, Parameter
from repro.net import Network, t1_lan_profile
from repro.net.latency import CostModel, era_2004_cost_model
from repro.rmitypes import STRING
from repro.sim import Scheduler
from repro.soap import SoapClient, SoapServiceDefinition, StaticSoapServer

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


@dataclass(frozen=True)
class RttResult:
    """Measured RTT for one Table 1 configuration."""

    configuration: str
    technology: str
    dynamic_server: bool
    calls: int
    mean_rtt: float
    paper_rtt: float

    @property
    def overhead_vs_paper(self) -> float:
        """Ratio of measured to paper-reported RTT (for the record only)."""
        return self.mean_rtt / self.paper_rtt if self.paper_rtt else float("nan")


def _echo_signature() -> OperationSignature:
    return OperationSignature("echo", (Parameter("message", STRING),), STRING)


def _echo_body(_instance, message: str) -> str:
    return message


def _sde_echo_world(technology: str, cost_model: CostModel) -> ScenarioRuntime:
    """The paper's SDE server desktop with a published live echo service."""
    runtime = (
        Scenario(sde_config=SDEConfig(cost_model=cost_model, publication_timeout=2.0))
        .service(
            "EchoService",
            [op("echo", (("message", STRING),), STRING, body=_echo_body)],
            technology=technology,
        )
        .build()
    )
    runtime.publish("EchoService")
    return runtime


def _measure(scheduler: Scheduler, call_once, calls: int) -> float:
    total = 0.0
    for _ in range(calls):
        start = scheduler.now
        result = call_once()
        if result != ECHO_PAYLOAD:
            raise AssertionError(f"echo returned {result!r}")
        total += scheduler.now - start
    return total / calls


# ---------------------------------------------------------------------------
# The four configurations
# ---------------------------------------------------------------------------


def run_static_soap(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """Axis-Tomcat server / Axis client (both static)."""
    cost_model = cost_model or era_2004_cost_model()
    scheduler = Scheduler()
    network = Network(scheduler, t1_lan_profile())
    server_host = network.add_host("server")
    client_host = network.add_host("client")

    definition = SoapServiceDefinition("EchoService", "urn:bench:echo")
    definition.add_operation(_echo_signature(), lambda message: message)
    server = StaticSoapServer(server_host, 8080, definition, cost_model=cost_model)
    server.start()

    client = SoapClient(client_host, cost_model=cost_model, speed_factor=CLIENT_SPEED_FACTOR)
    stub = client.connect(server.wsdl_url)
    mean = _measure(scheduler, lambda: stub.echo(ECHO_PAYLOAD), calls)
    return RttResult(
        configuration="Axis-Tomcat/Axis",
        technology="soap",
        dynamic_server=False,
        calls=calls,
        mean_rtt=mean,
        paper_rtt=PAPER_TABLE1_RTT["Axis-Tomcat/Axis"],
    )


def run_sde_soap(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """SDE SOAP server (live, running within JPie) / static Axis client."""
    cost_model = cost_model or era_2004_cost_model()
    runtime = _sde_echo_world("soap", cost_model)
    publisher = runtime.replicas("EchoService")[0].publisher
    client = SoapClient(
        runtime.world.add_client("client"), cost_model=cost_model, speed_factor=CLIENT_SPEED_FACTOR
    )
    stub = client.connect(publisher.document_url)
    mean = _measure(runtime.world.scheduler, lambda: stub.echo(ECHO_PAYLOAD), calls)
    return RttResult(
        configuration="SDE SOAP/Axis",
        technology="soap",
        dynamic_server=True,
        calls=calls,
        mean_rtt=mean,
        paper_rtt=PAPER_TABLE1_RTT["SDE SOAP/Axis"],
    )


def run_static_corba(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """OpenORB server / OpenORB client (both static)."""
    cost_model = cost_model or era_2004_cost_model()
    scheduler = Scheduler()
    network = Network(scheduler, t1_lan_profile())
    server_host = network.add_host("server")
    client_host = network.add_host("client")

    definition = CorbaServiceDefinition("EchoService", "urn:bench:echo")
    definition.add_operation(_echo_signature(), lambda message: message)
    server = StaticCorbaServer(server_host, 9000, definition, cost_model=cost_model)
    server.start()

    client = StaticCorbaClient(
        client_host, cost_model=cost_model, speed_factor=CLIENT_SPEED_FACTOR
    )
    stub = client.connect(server.idl_document, server.ior)
    mean = _measure(scheduler, lambda: stub.echo(ECHO_PAYLOAD), calls)
    return RttResult(
        configuration="OpenORB/OpenORB",
        technology="corba",
        dynamic_server=False,
        calls=calls,
        mean_rtt=mean,
        paper_rtt=PAPER_TABLE1_RTT["OpenORB/OpenORB"],
    )


def run_sde_corba(calls: int = 100, cost_model: CostModel | None = None) -> RttResult:
    """SDE CORBA server (live, running within JPie) / static OpenORB client."""
    cost_model = cost_model or era_2004_cost_model()
    runtime = _sde_echo_world("corba", cost_model)
    replica = runtime.replicas("EchoService")[0]
    client = StaticCorbaClient(
        runtime.world.add_client("client"), cost_model=cost_model, speed_factor=CLIENT_SPEED_FACTOR
    )
    idl_document = replica.node.sde.interface_server.document(replica.publisher.document_path)
    stub = client.connect(idl_document, replica.call_handler.ior)  # type: ignore[attr-defined]
    mean = _measure(runtime.world.scheduler, lambda: stub.echo(ECHO_PAYLOAD), calls)
    return RttResult(
        configuration="SDE CORBA/OpenORB",
        technology="corba",
        dynamic_server=True,
        calls=calls,
        mean_rtt=mean,
        paper_rtt=PAPER_TABLE1_RTT["SDE CORBA/OpenORB"],
    )


def run_table1(calls: int = 100, cost_model: CostModel | None = None) -> list[RttResult]:
    """Run all four Table 1 configurations and return their results in the
    same order as the paper's table."""
    return [
        run_sde_soap(calls, cost_model),
        run_static_soap(calls, cost_model),
        run_sde_corba(calls, cost_model),
        run_static_corba(calls, cost_model),
    ]


def format_table1(results: list[RttResult]) -> str:
    """Render the results as a table matching the paper's layout."""
    lines = [
        f"{'Server/Client':26s} {'RTT (s)':>9s} {'paper':>8s}",
        "-" * 45,
    ]
    for result in results:
        lines.append(
            f"{result.configuration:26s} {result.mean_rtt:9.3f} {result.paper_rtt:8.2f}"
        )
    return "\n".join(lines)
