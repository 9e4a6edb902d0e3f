"""Rollout timeline actions for the declarative Scenario API.

These compose with :meth:`repro.cluster.Scenario.at` exactly like the
developer actions (``edit`` / ``publish`` / ``churn``) and the fault
actions (``crash`` / ``partition`` / ...)::

    change = upgrade(add=[op("echo_v2", (("m", STRING),), STRING, body=...)],
                     remove=["echo"], successors={"echo": "echo_v2"})
    Scenario()
    .servers(4)
    .service("Echo", [echo], replicas=4)
    .clients(256, service="Echo", calls=8)
    .at(0.05, rolling("Echo", change, batch_size=1, drain=0.03))
    .run()

Each action is a frozen dataclass whose fields are its arguments; called
with the runtime, ``rolling`` / ``canary`` start a
:class:`~repro.evolve.rollout.RolloutController`, which arms
version-aware routing on the service the moment the rollout starts.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.evolve.rollout import (
    STRATEGY_CANARY,
    STRATEGY_ROLLING,
    InterfaceUpgrade,
    RolloutController,
    check_rollout_arguments,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.scenario import ScenarioRuntime


@dataclass(frozen=True)
class rolling:
    """Timeline action: roll ``change`` across the replicas in batches.

    Replicas upgrade in immutable-index order, ``batch_size`` at a time,
    with ``drain`` virtual seconds between a wave's publication completing
    and the next wave's edits.  Crashed replicas are deferred and upgraded
    when they restart (polled every ``retry_interval`` seconds).
    """

    kind: ClassVar[str] = "rolling"
    service: str
    change: InterfaceUpgrade
    _: KW_ONLY
    retry_interval: float = 0.05
    batch_size: int = 1
    drain: float = 0.0

    def __post_init__(self) -> None:
        check_rollout_arguments(self.change, self.retry_interval, self.batch_size)

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        # The fields are the controller's keyword arguments, by name.
        RolloutController(runtime, strategy=STRATEGY_ROLLING, **vars(self)).start()


@dataclass(frozen=True)
class canary:
    """Timeline action: upgrade a canary fraction first, promote later.

    The first ``max(1, round(fraction * replicas))`` replicas (index order)
    take the upgrade immediately; after ``promote_after`` virtual seconds
    without an :class:`abort_rollout`, the remaining replicas follow.
    """

    kind: ClassVar[str] = "canary"
    service: str
    change: InterfaceUpgrade
    _: KW_ONLY
    retry_interval: float = 0.05
    fraction: float = 0.25
    promote_after: float = 0.5

    def __post_init__(self) -> None:
        check_rollout_arguments(self.change, self.retry_interval)

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        RolloutController(runtime, strategy=STRATEGY_CANARY, **vars(self)).start()


@dataclass(frozen=True)
class abort_rollout:
    """Timeline action: abort the service's active rollout (and roll back).

    Pending waves are cancelled and every already-upgraded replica
    republishes its pre-upgrade interface.  A no-op when no rollout is
    active (e.g. it already completed).
    """

    kind: ClassVar[str] = "abort_rollout"
    service: str

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        controller = runtime.registry.lookup(self.service).active_rollout
        if controller is not None:
            controller.abort()
