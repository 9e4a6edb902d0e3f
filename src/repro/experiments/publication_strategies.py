"""E4 — §5.6 ablation: stable-timeout vs change-driven vs polling publication.

The paper argues for a change-driven mechanism that waits for a stable
interval: pure change-driven publication "would often lead to publishing
transient server interface descriptions", and pure polling "could still
publish a transient interface [which] could persist at the client side until
the next polling interval".

This experiment replays a scripted editing session — bursts of interface
edits separated by think time, as a developer iterates on a server class —
against the three strategies and reports:

* how many interface generations and publications each strategy performed;
* how many of those publications were *transient* (they describe an
  interface that never survives a full burst of editing);
* the staleness window: how long after the final edit the published
  interface still disagreed with the live one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import ClusterWorld, Scenario
from repro.core.sde import SDEConfig
from repro.core.sde.publisher import (
    STRATEGY_CHANGE_DRIVEN,
    STRATEGY_POLLING,
    STRATEGY_STABLE_TIMEOUT,
)
from repro.interface import Parameter
from repro.rmitypes import INT, STRING

ALL_STRATEGIES = (STRATEGY_STABLE_TIMEOUT, STRATEGY_CHANGE_DRIVEN, STRATEGY_POLLING)


@dataclass(frozen=True)
class EditBurst:
    """One burst of editing activity: ``edits`` edits ``gap`` seconds apart,
    followed by ``pause`` seconds of think time."""

    edits: int
    gap: float
    pause: float


#: The default editing session: three bursts of rapid edits with think time
#: in between, ending with a stable interface.
DEFAULT_SESSION: tuple[EditBurst, ...] = (
    EditBurst(edits=6, gap=0.5, pause=12.0),
    EditBurst(edits=4, gap=0.8, pause=15.0),
    EditBurst(edits=5, gap=0.4, pause=20.0),
)


@dataclass(frozen=True)
class StrategyResult:
    """Outcome of replaying the editing session under one strategy."""

    strategy: str
    edits: int
    generations: int
    publications: int
    transient_publications: int
    final_interface_published: bool
    staleness_after_last_edit: float


def _apply_session(world: ClusterWorld, dynamic_class, session) -> list[int]:
    """Replay the editing session; return the scheduler times (as indices in
    the publication history comparison) of burst boundaries."""
    counter = 0
    stable_interfaces: list[tuple[str, ...]] = []
    for burst in session:
        for _ in range(burst.edits):
            name = f"operation_{counter}"
            dynamic_class.add_method(
                name,
                (Parameter("value", INT),),
                STRING,
                body=lambda self, value: str(value),
                distributed=True,
            )
            counter += 1
            world.run_for(burst.gap)
        stable_interfaces.append(dynamic_class.distributed_signatures())
        world.run_for(burst.pause)
    return stable_interfaces


def run_single_strategy(
    strategy: str,
    session: tuple[EditBurst, ...] = DEFAULT_SESSION,
    timeout: float = 5.0,
    generation_cost: float = 0.25,
    poll_interval: float = 10.0,
) -> StrategyResult:
    """Replay the editing session under ``strategy`` and measure the outcome."""
    runtime = (
        Scenario(
            sde_config=SDEConfig(
                publication_timeout=timeout,
                generation_cost=generation_cost,
                publication_strategy=strategy,
                poll_interval=poll_interval,
            )
        )
        .service("EditedService")
        .build()
    )
    dynamic_class = runtime.dynamic_class("EditedService")
    publisher = runtime.replicas("EditedService")[0].publisher

    stable_interfaces = _apply_session(runtime.world, dynamic_class, session)
    final_interface = dynamic_class.distributed_signatures()

    # Measure how long after the last edit the published interface still
    # disagrees with the live one.
    last_edit_time = runtime.world.now - session[-1].pause
    staleness = None
    for record in publisher.publication_history:
        if record.time >= last_edit_time and record.description.operations == final_interface:
            staleness = record.time - last_edit_time
            break
    if staleness is None:
        already = (
            publisher.published_description is not None
            and publisher.published_description.operations == final_interface
        )
        staleness = 0.0 if already else float("inf")

    # A publication is transient if the interface it describes is not one of
    # the burst-boundary (stable) interfaces and not the final interface.
    stable_set = {tuple(ops) for ops in stable_interfaces}
    stable_set.add(tuple(final_interface))
    transient = sum(
        1
        for record in publisher.publication_history
        if record.description.operations and tuple(record.description.operations) not in stable_set
    )

    final_published = (
        publisher.published_description is not None
        and publisher.published_description.operations == final_interface
    )
    return StrategyResult(
        strategy=strategy,
        edits=sum(burst.edits for burst in session),
        generations=publisher.stats.generations,
        publications=len(publisher.publication_history),
        transient_publications=transient,
        final_interface_published=final_published,
        staleness_after_last_edit=staleness,
    )


def run_publication_strategy_comparison(
    session: tuple[EditBurst, ...] = DEFAULT_SESSION,
    timeout: float = 5.0,
    generation_cost: float = 0.25,
    poll_interval: float = 10.0,
) -> list[StrategyResult]:
    """Run the editing session under all three strategies."""
    return [
        run_single_strategy(strategy, session, timeout, generation_cost, poll_interval)
        for strategy in ALL_STRATEGIES
    ]
