"""Rolling upgrade: a breaking interface change crosses a live fleet.

The paper's whole point is that interfaces evolve *while clients keep
calling* — but not every publication is equal.  This example pushes a
**breaking** change (``echo`` renamed to ``echo_v2``) through a replicated
service, replica by replica, with :mod:`repro.evolve`:

* a 2-server world runs an Echo service with 2 replicas; 16 clients call
  continuously;
* at t=0.05 a ``rolling`` upgrade starts: each replica in turn gets the
  new operation, loses the old one, and republishes its WSDL — the typed
  diff engine classifies each wave from the published documents;
* **version-aware routing** keeps every client on replicas still
  compatible with the stubs it bound, for as long as any remains — so the
  fleet rides out most of the rollout fault-free;
* once the last compatible replica upgrades, each client's next call gets
  the §5.7 "Non existent Method" stale fault — never a silently wrong
  answer — whereupon it re-fetches the WSDL (a *rebind*), discovers the
  upgrade's declared successor operation, and resumes successfully;
* routing also enforces the §6 recency guarantee across the deliberately
  divergent replica versions: once a client has seen v3 it is never
  routed back to a replica still publishing v2 — the report's
  recency-violation counter stays exactly 0.

Run with:  python examples/rolling_upgrade.py
"""

from repro import STRING, Scenario, op, rolling, upgrade
from repro.core.sde import SDEConfig

CLIENTS = 16

ECHO = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
ECHO_V2 = op(
    "echo_v2", (("message", STRING),), STRING, body=lambda _self, m: m + "!"
)
BREAKING = upgrade(add=[ECHO_V2], remove=["echo"], successors={"echo": "echo_v2"})


def build_world() -> Scenario:
    return (
        Scenario(name="rolling-upgrade", sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [ECHO], replicas=2)
        .clients(
            CLIENTS,
            service="Echo",
            calls=10,
            arguments=("hello",),
            think_time=0.02,   # keep calling straight through the rollout
            arrival=0.002,
        )
        .at(0.05, rolling("Echo", BREAKING, batch_size=1, drain=0.04))
    )


def main() -> None:
    report = build_world().run()

    (rollout,) = report.rollouts
    print(f"fleet: {len(report.clients)} clients over {len(report.nodes)} servers")
    print(
        f"rollout: {rollout.strategy} upgrade of {rollout.service!r}, "
        f"classified {rollout.classification} from the published WSDL"
    )
    for wave in rollout.waves:
        (delta,) = wave.deltas
        print(
            f"  wave {wave.index}: replica {wave.replicas[0]} in "
            f"{wave.duration:.3f}s — removed {delta.removed}, added {delta.added}"
        )
    print(
        f"rollout window: {rollout.calls_during} calls, "
        f"{rollout.stale_faults_during} stale faults "
        f"(rate {rollout.stale_fault_rate:.1%}), {rollout.rebinds_during} rebinds"
    )

    echo = report.service("Echo")
    print(f"calls by published version: {echo.calls_by_version}")
    outcomes = report.outcomes("all")
    print(
        f"fleet outcome: {outcomes.successes} ok, "
        f"{outcomes.stale_faults} stale faults, "
        f"{outcomes.rebinds} rebinds, "
        f"{outcomes.other_faults} other faults"
    )
    print(f"recency violations (must be 0): {outcomes.recency_violations}")

    assert outcomes.other_faults == 0, "a breaking upgrade must never be silent"
    assert outcomes.rebinds == outcomes.stale_faults
    assert outcomes.recency_violations == 0
    assert rollout.classification == "breaking"
    print("OK: stale-fault + rebind observed; nothing silently wrong; §6 held.")


if __name__ == "__main__":
    main()
