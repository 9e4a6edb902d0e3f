"""Fault timeline actions for the declarative Scenario API.

These compose with :meth:`repro.cluster.Scenario.at` exactly like the
developer actions (``edit`` / ``publish`` / ``churn``)::

    Scenario()
    .servers(4)
    .service("Echo", [op("echo")], replicas=4)
    .clients(64, service="Echo", retry=RetryPolicy(max_attempts=4, timeout=0.5))
    .at(0.10, crash("server-2"))
    .at(0.15, partition("server-3"))       # isolate from everyone
    .at(0.30, heal("server-3"))
    .at(0.40, restart("server-2"))
    .run()

Each action is a frozen dataclass whose fields are its arguments; called
with the runtime, it acts through the runtime's
:class:`~repro.faults.FaultInjector`.  Server references are names
(``"server-2"``), zero-based indexes, or
:class:`~repro.cluster.topology.ServerNode` objects; ``partition`` /
``heal`` / ``drop_link`` also accept plain client host names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.scenario import ScenarioRuntime
    from repro.faults.injector import NodeRef


@dataclass(frozen=True)
class crash:
    """Timeline action: crash a server node (endpoints down, calls aborted)."""

    kind: ClassVar[str] = "crash"
    server: "NodeRef"

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.crash(self.server)


@dataclass(frozen=True)
class restart:
    """Timeline action: restart a crashed server node (endpoints re-bound)."""

    kind: ClassVar[str] = "restart"
    server: "NodeRef"

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.restart(self.server)


@dataclass(frozen=True)
class partition:
    """Timeline action: partition two hosts (or isolate ``a`` entirely)."""

    kind: ClassVar[str] = "partition"
    a: "NodeRef"
    b: "NodeRef | None" = None

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.partition(self.a, self.b)


@dataclass(frozen=True)
class heal:
    """Timeline action: heal one partition, all of ``a``'s, or every one."""

    kind: ClassVar[str] = "heal"
    a: "NodeRef | None" = None
    b: "NodeRef | None" = None

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.heal(self.a, self.b)


@dataclass(frozen=True)
class drop_link:
    """Timeline action: degrade a link with seeded loss and/or jitter."""

    kind: ClassVar[str] = "drop_link"
    a: "NodeRef"
    b: "NodeRef"
    loss: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.drop_link(
            self.a, self.b, loss=self.loss, jitter=self.jitter, seed=self.seed
        )


@dataclass(frozen=True)
class restore_link:
    """Timeline action: remove the fault profiles from a degraded link."""

    kind: ClassVar[str] = "restore_link"
    a: "NodeRef"
    b: "NodeRef"

    def __call__(self, runtime: "ScenarioRuntime") -> None:
        runtime.fault_injector.restore_link(self.a, self.b)
