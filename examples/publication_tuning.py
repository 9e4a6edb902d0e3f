"""Tuning the interface-publication mechanism (§5.6) and inspecting §5.7.

The SDE Manager Interface lets the developer control how eagerly the server
interface is republished.  This example replays the same editing burst under
three publication timeouts and under the two alternative strategies the paper
rejects, printing how many (and which) interface versions each configuration
published — the data behind the E4 ablation.  Each configuration is one
declarative ``Scenario``: the editing burst is a timeline of ``edit(...)``
actions and ``run(until=...)`` drives the world with no clients attached,
so publication happens organically (stability timers, polling).  It
finishes with the rogue client scenario of §5.7.

Run with:  python examples/publication_tuning.py
"""

from repro import INT, Scenario, op
from repro.cluster import edit
from repro.core.sde import SDEConfig
from repro.core.sde.publisher import (
    STRATEGY_CHANGE_DRIVEN,
    STRATEGY_POLLING,
    STRATEGY_STABLE_TIMEOUT,
)
from repro.errors import NonExistentMethodError
from repro.experiments.stale_flood import run_stale_flood

EDITS = 6
EDIT_GAP = 0.6


def run_configuration(label, strategy, timeout):
    scenario = Scenario(
        name="publication-tuning",
        sde_config=SDEConfig(
            publication_timeout=timeout,
            generation_cost=0.25,
            publication_strategy=strategy,
            poll_interval=8.0,
        ),
    ).service("EditedService", [])
    # A developer adding methods in quick succession, as timeline actions.
    for index in range(EDITS):
        scenario.at(
            index * EDIT_GAP,
            edit("EditedService", op(f"operation_{index}", (), INT, body=lambda self: 0)),
        )
    runtime = scenario.build()
    runtime.run(until=EDITS * EDIT_GAP + 20.0)
    publisher = runtime.replicas("EditedService")[0].publisher
    print(
        f"{label:36s} publications={len(publisher.publication_history):2d} "
        f"generations={publisher.stats.generations:2d} "
        f"timer_resets={publisher.stats.timer_resets:2d} "
        f"current={publisher.is_published_current()}"
    )


def main() -> None:
    print("== publication strategies over one editing burst (6 edits) ==")
    run_configuration("stable timeout 2s (paper default)", STRATEGY_STABLE_TIMEOUT, 2.0)
    run_configuration("stable timeout 5s", STRATEGY_STABLE_TIMEOUT, 5.0)
    run_configuration("stable timeout 10s", STRATEGY_STABLE_TIMEOUT, 10.0)
    run_configuration("change driven (rejected in §5.6)", STRATEGY_CHANGE_DRIVEN, 5.0)
    run_configuration("polling every 8s (rejected in §5.6)", STRATEGY_POLLING, 5.0)

    print("\n== §5.7: a rogue client cannot force needless IDL generation ==")
    flood = run_stale_flood(stale_calls=40)
    print(
        f"stale calls sent: {flood.stale_calls_sent}, faults returned: "
        f"{flood.non_existent_method_faults}, interface generations: {flood.generations}"
    )

    print("\n== manual force-publication via the SDE Manager Interface ==")
    world = (
        Scenario(name="slow-publisher", sde_config=SDEConfig(publication_timeout=30.0))
        .service("SlowService", [op("ping", (), INT, body=lambda self: 1)])
        .build()
    )
    try:
        world.publish("SlowService")
        world.world.run_for(1.0)
        binding = world.connect("SlowService")
        print("ping() =", binding.invoke("ping"))
    except NonExistentMethodError:
        print("unexpected stale call")
    status = world.nodes[0].manager_interface.publication_status("SlowService")
    print("published version:", status.version, "timer running:", status.timer_running)


if __name__ == "__main__":
    main()
