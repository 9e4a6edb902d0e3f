"""A whole N-server × M-client world in one declarative expression.

The ROADMAP's scaling question — what happens when a replicated, mixed
SOAP/CORBA service fleet serves hundreds of concurrent clients while a
developer edits the running servers — would take a page of hand-wired
hosts, SDE managers and client stacks.  With the Scenario API it is one
≤ 20-line expression:

* 4 server machines, each its own SDE;
* two echo services (one per middleware), 2 replicas each, round-robin
  replica routing through the service registry;
* 256 clients, half SOAP half CORBA, assigned by deterministic weighted
  interleave;
* a mid-run developer action: edit the SOAP service on every replica,
  then force publication — while the fleet keeps calling.

The run is fully deterministic: executing the same scenario twice yields
identical per-call RTT sequences (asserted at the end).

Run with:  python examples/cluster_scenario.py
"""

from repro import STRING, Scenario, edit, op, publish
from repro.core.sde import SDEConfig

CLIENTS = 256


def build_world() -> Scenario:
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    return (
        Scenario(name="mixed-cluster", sde_config=SDEConfig(generation_cost=0.02))
        .servers(4)
        .service("EchoSoap", [echo], technology="soap", replicas=2)
        .service("EchoCorba", [echo], technology="corba", replicas=2)
        .clients(
            CLIENTS,
            protocol_mix={"soap": 0.5, "corba": 0.5},
            calls=3,
            operation="echo",
            arguments=("hello fleet",),
            think_time=0.02,
        )
        .at(0.02, edit("EchoSoap", op("added_mid_run")))
        .at(0.04, publish("EchoSoap"))
    )


def main() -> None:
    report = build_world().run()

    print(f"fleet: {len(report.clients)} clients over {len(report.nodes)} servers")
    outcomes = report.outcomes("all")
    print(
        f"calls: {outcomes.calls} ({outcomes.successes} ok), "
        f"simulated duration {report.duration:.3f}s, "
        f"throughput {report.throughput:.0f} calls/s"
    )
    for service in report.services:
        rtts = report.rtts_for(service.name)
        print(
            f"  {service.name:10s} [{service.technology:5s}] "
            f"replicas={service.replica_count} policy={service.policy} "
            f"routed={service.calls_routed} "
            f"mean RTT={sum(rtts) / len(rtts):.5f}s "
            f"publications(mid-run)={service.publications} "
            f"version={service.interface_version}"
        )
    per_replica = {
        service.name: [replica.calls_routed for replica in service.replicas]
        for service in report.services
    }
    print("round-robin balance per service:", per_replica)

    rerun = build_world().run()
    assert rerun.all_rtts == report.all_rtts, "scenario runs must be deterministic"
    print("determinism: two runs produced identical RTT sequences ✓")


if __name__ == "__main__":
    main()
