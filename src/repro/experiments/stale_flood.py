"""E5 — §5.7 ablation: a rogue client flooding the server with stale calls.

"Since publication is triggered only when the published interface is out of
date, this algorithm prevents a rogue client from overwhelming the server by
sending multiple calls to non-existent methods that trigger IDL generation
needlessly."

The experiment deploys a server whose interface changed once (so exactly one
reactive publication is justified), then fires a configurable number of calls
to a non-existent method and reports how many interface generations the
publisher actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import Scenario, op
from repro.core.sde import SDEConfig
from repro.errors import NonExistentMethodError
from repro.rmitypes import INT


@dataclass(frozen=True)
class StaleFloodResult:
    """Outcome of one rogue-client flood."""

    stale_calls_sent: int
    non_existent_method_faults: int
    generations: int
    publications: int
    stale_call_publications: int

    @property
    def generations_per_stale_call(self) -> float:
        """Interface generations per stale call (should be ≪ 1)."""
        if self.stale_calls_sent == 0:
            return 0.0
        return self.generations / self.stale_calls_sent


def run_stale_flood(
    stale_calls: int = 50,
    interval: float = 0.05,
    publication_timeout: float = 5.0,
    generation_cost: float = 0.25,
    change_interface_first: bool = True,
) -> StaleFloodResult:
    """Fire ``stale_calls`` calls to a method that does not exist.

    With ``change_interface_first`` the interface genuinely changed before
    the flood (one reactive publication is warranted); without it the
    published interface is already current and no generation should happen at
    all.
    """
    runtime = (
        Scenario(
            sde_config=SDEConfig(
                publication_timeout=publication_timeout,
                generation_cost=generation_cost,
            )
        )
        .service(
            "Calculator",
            [op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b)],
        )
        .build()
    )
    runtime.publish("Calculator")
    publisher = runtime.replicas("Calculator")[0].publisher
    binding = runtime.connect("Calculator")
    world = runtime.world

    generations_before = publisher.stats.generations
    publications_before = publisher.stats.publications

    if change_interface_first:
        runtime.dynamic_class("Calculator").method("add").rename("sum")

    faults = 0
    for _ in range(stale_calls):
        try:
            binding.invoke("definitely_not_a_method", 1, 2)
        except NonExistentMethodError:
            faults += 1
        world.run_for(interval)
    world.run_for(publication_timeout + generation_cost * 2)

    return StaleFloodResult(
        stale_calls_sent=stale_calls,
        non_existent_method_faults=faults,
        generations=publisher.stats.generations - generations_before,
        publications=publisher.stats.publications - publications_before,
        stale_call_publications=publisher.stats.stale_call_publications,
    )
