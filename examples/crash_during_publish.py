"""Crash during publish: the §6 recency guarantee survives failover.

The paper's stall protocol (§5.7) keeps every *published* interface at
least as recent as the live one; §6 derives the client-side guarantee that
nobody ever observes an interface older than one they already saw.  Those
claims are only interesting when things go wrong — so this example makes
things go wrong, deterministically, with :mod:`repro.faults`:

* a 2-server world runs an Echo service with 2 replicas;
* a fleet of 32 clients calls continuously with a failover
  :class:`~repro.faults.RetryPolicy` (aborted or timed-out calls are
  reissued and the registry routes them around dead replicas);
* mid-run, the developer edits the service and forces publication on every
  replica — and **while that publication's generation is still running**,
  one replica's machine crashes;
* in-flight calls to the dead machine fail fast, the fleet fails over to
  the surviving replica, the machine later restarts and traffic returns.

The report proves the point: every call completes, the retries and the
crashed node's downtime/recovery latency are accounted, and the per-client
recency-violation counter — which increments whenever a successful reply
is served from a published interface older than one that client already
observed — stays exactly 0 across the failover.

Run with:  python examples/crash_during_publish.py
"""

from repro import RetryPolicy, STRING, Scenario, crash, edit, op, publish, restart
from repro.core.sde import SDEConfig

CLIENTS = 32


def build_world() -> Scenario:
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    return (
        Scenario(name="crash-during-publish", sde_config=SDEConfig(generation_cost=0.05))
        .servers(2)
        .service("Echo", [echo], replicas=2)
        .clients(
            CLIENTS,
            service="Echo",
            calls=10,
            arguments=("hello",),
            think_time=0.0,    # continuous calling: always in flight at crash time
            arrival=0.002,     # staggered starts desynchronise the fleet
            retry=RetryPolicy(max_attempts=4, timeout=0.5, backoff=0.005),
        )
        .at(0.050, edit("Echo", op("added_mid_run")))
        .at(0.060, publish("Echo"))      # generation completes around t=0.11 ...
        .at(0.080, crash("server-1"))    # ... and the crash lands mid-generation
        .at(0.150, restart("server-1"))
    )


def main() -> None:
    report = build_world().run()

    print(f"fleet: {len(report.clients)} clients over {len(report.nodes)} servers")
    outcomes = report.outcomes("all")
    print(
        f"calls: {outcomes.calls} ({outcomes.successes} ok), "
        f"simulated duration {report.duration:.3f}s"
    )
    print(
        f"failover: {outcomes.failed_attempts} failed attempts, "
        f"{outcomes.retried_calls} retried, "
        f"{outcomes.abandoned_calls} abandoned"
    )
    for node in report.nodes:
        if node.outages:
            recovery = (
                f"{node.recovery_latency_s:.4f}s"
                if node.recovery_latency_s is not None
                else "n/a"
            )
            print(
                f"  {node.name}: {node.outages} outage(s), "
                f"downtime {node.downtime_s:.3f}s, recovery latency {recovery}"
            )
    echo = report.service("Echo")
    print(
        "replica versions after the drill:",
        [replica.interface_version for replica in echo.replicas],
    )
    percentiles = report.rtt_percentiles
    print(
        f"RTT p50={percentiles['p50']:.5f}s "
        f"p95={percentiles['p95']:.5f}s p99={percentiles['p99']:.5f}s"
    )

    assert outcomes.successes == outcomes.calls
    assert outcomes.retried_calls > 0, "the crash must have forced failover"
    assert outcomes.recency_violations == 0, "§6 must hold across failover"
    print("recency: zero violations across replica failover ✓")

    rerun = build_world().run()
    assert rerun.all_rtts == report.all_rtts, "fault drills must be deterministic"
    print("determinism: two crash drills produced identical RTT sequences ✓")


if __name__ == "__main__":
    main()
