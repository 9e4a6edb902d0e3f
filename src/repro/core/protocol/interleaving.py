"""Interleaving analyses for Figures 7 and 8.

Figure 7 (*active publishing*) is an argument about event orderings: the
server-interface update path and the RMI call path are completely
independent, so the points at which the server publishes (1, 2, 3) and the
client updates its stub (i, ii, iii) interleave freely with the call.  The
:class:`ActivePublishingExperiment` reproduces that argument with an explicit
event-order model over real :class:`~repro.interface.InterfaceDescription`
values and classifies each of the nine combinations; only (1, i), (1, ii) and
(2, ii) make the interface change visible to the developer at error-display
time.

Figure 8 (*reactive publishing*) is a claim about the deployed algorithm, so
:class:`ReactivePublishingExperiment` runs the real middleware end to end on
the simulated network: an SDE-managed server whose method is renamed mid-
session, a CDE client that calls the stale method, and a sweep over the
timing of the *regular* publication and the *regular* client update relative
to that call.  For every combination the §6 recency guarantee must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import Scenario, op
from repro.core.sde import SDEConfig
from repro.errors import NonExistentMethodError
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.rmitypes import INT

# ---------------------------------------------------------------------------
# Figure 7 — active publishing
# ---------------------------------------------------------------------------

#: Global event order used by the active-publishing analysis.  It mirrors the
#: vertical layout of Figure 7: the client sends a call for a method whose
#: signature has just changed on the server; publication may occur at three
#: points of the server timeline and the client stub update at three points
#: of the client timeline.
FIGURE7_EVENT_ORDER: tuple[str, ...] = (
    "client:send_call",
    "server:interface_changes",
    "server:publish_1",
    "client:update_i",
    "server:process_call",
    "server:publish_2",
    "server:send_exception",
    "client:receive_exception",
    "client:update_ii",
    "client:display_error",
    "server:publish_3",
    "client:update_iii",
)

PUBLISH_POINTS = ("1", "2", "3")
UPDATE_POINTS = ("i", "ii", "iii")


@dataclass(frozen=True)
class InterleavingResult:
    """Outcome of one publish-point / update-point combination."""

    publish_point: str
    update_point: str
    consistent: bool
    detail: str = ""

    @property
    def label(self) -> str:
        """The combination label, e.g. ``"(1, ii)"``."""
        return f"({self.publish_point}, {self.update_point})"


class ActivePublishingExperiment:
    """The Figure 7 analysis: naive, unsynchronised publication."""

    def __init__(
        self,
        old_interface: InterfaceDescription | None = None,
        new_interface: InterfaceDescription | None = None,
    ) -> None:
        if old_interface is None or new_interface is None:
            old_interface, new_interface = _default_interface_pair()
        self.old_interface = old_interface
        self.new_interface = new_interface

    # -- the ordering model ----------------------------------------------------

    @staticmethod
    def _position(event: str) -> int:
        return FIGURE7_EVENT_ORDER.index(event)

    def run_single(self, publish_point: str, update_point: str) -> InterleavingResult:
        """Classify one combination of publish point and update point."""
        if publish_point not in PUBLISH_POINTS or update_point not in UPDATE_POINTS:
            raise ValueError(f"unknown combination ({publish_point}, {update_point})")

        publish_event = f"server:publish_{publish_point}"
        update_event = f"client:update_{update_point}"
        display_event = "client:display_error"

        publish_position = self._position(publish_event)
        update_position = self._position(update_event)
        display_position = self._position(display_event)

        # The stub update retrieves whatever interface description has been
        # published at the moment it runs.
        view_after_update = (
            self.new_interface if publish_position < update_position else self.old_interface
        )
        # The developer inspects the error at display time; an update that
        # has not happened yet cannot help.
        update_effective = update_position < display_position
        view_at_display = view_after_update if update_effective else self.old_interface

        consistent = view_at_display.same_signature(self.new_interface)
        if consistent:
            detail = "interface change visible when the error is displayed"
        elif not update_effective:
            detail = "client stub update happens only after the error is displayed"
        else:
            detail = "stub update retrieved the stale interface (publication came later)"
        return InterleavingResult(publish_point, update_point, consistent, detail)

    def run_matrix(self) -> list[InterleavingResult]:
        """Classify all nine combinations."""
        return [
            self.run_single(publish_point, update_point)
            for publish_point in PUBLISH_POINTS
            for update_point in UPDATE_POINTS
        ]

    @staticmethod
    def expected_consistent_labels() -> set[str]:
        """The combinations the paper reports as consistent."""
        return {"(1, i)", "(1, ii)", "(2, ii)"}


def _default_interface_pair() -> tuple[InterfaceDescription, InterfaceDescription]:
    """The before/after interfaces used by the default Figure 7 analysis:
    the distributed method ``add(int, int)`` is renamed to ``sum(int, int)``."""
    add = OperationSignature("add", (Parameter("a", INT), Parameter("b", INT)), INT)
    total = OperationSignature("sum", (Parameter("a", INT), Parameter("b", INT)), INT)
    base = InterfaceDescription(
        service_name="Calculator",
        namespace="urn:sde:Calculator",
        endpoint_url="http://server:8070/sde/Calculator",
    )
    return base.with_operations((add,)).with_version(1), base.with_operations((total,)).with_version(2)


# ---------------------------------------------------------------------------
# Figure 8 — reactive publishing (the deployed algorithm, end to end)
# ---------------------------------------------------------------------------

#: Server-side timings of the *regular* (timer-driven) publication relative
#: to the stale call, corresponding to positions 1-4 of Figure 8.
FIGURE8_PUBLICATION_TIMINGS: dict[str, float | None] = {
    "1": 0.0,     # regular publication completes before the call is issued
    "2": 0.4,     # regular publication racing with the call
    "3": 2.0,     # regular publication long after the call
    "4": None,    # no regular publication at all (only the reactive one)
}

#: Client-side timings of the *regular* (developer-triggered) view update
#: relative to the stale call, corresponding to positions i-iv of Figure 8.
FIGURE8_UPDATE_TIMINGS: dict[str, float | None] = {
    "i": 0.0,     # client refreshes just before making the call
    "ii": 0.4,    # client refresh racing with the call
    "iii": 2.0,   # client refreshes well after the call
    "iv": None,   # no regular refresh at all (only the reactive one)
}


@dataclass
class ReactiveRunRecord:
    """Everything observed in one Figure 8 run."""

    publish_point: str
    update_point: str
    guarantee_satisfied: bool
    server_version_in_fault: int
    client_version_after_call: int
    change_visible_to_developer: bool
    publications: int

    def to_result(self) -> InterleavingResult:
        """Summarise as an :class:`InterleavingResult`."""
        consistent = self.guarantee_satisfied and self.change_visible_to_developer
        detail = (
            f"server fault referenced version {self.server_version_in_fault}, "
            f"client refreshed to version {self.client_version_after_call}"
        )
        return InterleavingResult(self.publish_point, self.update_point, consistent, detail)


class ReactivePublishingExperiment:
    """The Figure 8 experiment: the real middleware, every interleaving."""

    def __init__(
        self,
        technology: str = "soap",
        publication_timeout: float = 1.0,
        generation_cost: float = 0.1,
    ) -> None:
        self.technology = technology
        self.publication_timeout = publication_timeout
        self.generation_cost = generation_cost

    def run_single(self, publish_point: str, update_point: str) -> ReactiveRunRecord:
        """Run one interleaving end to end and report what the client saw."""
        publish_delay = FIGURE8_PUBLICATION_TIMINGS[publish_point]
        update_delay = FIGURE8_UPDATE_TIMINGS[update_point]

        runtime = (
            Scenario(
                sde_config=SDEConfig(
                    publication_timeout=self.publication_timeout,
                    generation_cost=self.generation_cost,
                )
            )
            .service(
                "Calculator",
                [op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b)],
                technology=self.technology,
            )
            .build()
        )
        runtime.publish("Calculator")
        binding = runtime.connect("Calculator")

        # The live change: the developer renames add -> sum while the client
        # still believes the interface contains add.
        calculator = runtime.dynamic_class("Calculator")
        calculator.method("add").rename("sum")

        scheduler = runtime.world.scheduler
        manager_interface = runtime.node_of("Calculator").manager_interface

        if publish_delay is not None:
            scheduler.schedule(
                publish_delay + 0.001,
                lambda: manager_interface.force_publication("Calculator"),
                label=f"regular publication ({publish_point})",
            )
        if update_delay is not None:
            scheduler.schedule(
                update_delay + 0.002,
                binding.refresh,
                label=f"regular client update ({update_point})",
            )

        outcome: dict[str, object] = {}

        def make_stale_call() -> None:
            try:
                binding.invoke("add", 2, 3)
                outcome["exception"] = None
            except NonExistentMethodError as exc:
                outcome["exception"] = exc

        scheduler.schedule(0.2, make_stale_call, label="client stale call")
        scheduler.run_until_idle()

        record = binding.guarantee_records[-1] if binding.guarantee_records else None
        server_version = record.server_version if record else -1
        satisfied = record.satisfied if record else False
        change_visible = binding.description.has_operation("sum") and not binding.description.has_operation("add")

        return ReactiveRunRecord(
            publish_point=publish_point,
            update_point=update_point,
            guarantee_satisfied=satisfied,
            server_version_in_fault=server_version,
            client_version_after_call=binding.interface_version,
            change_visible_to_developer=change_visible,
            publications=runtime.replicas("Calculator")[0].publisher.stats.publications,
        )

    def run_matrix(self) -> list[ReactiveRunRecord]:
        """Run all 16 interleavings."""
        return [
            self.run_single(publish_point, update_point)
            for publish_point in FIGURE8_PUBLICATION_TIMINGS
            for update_point in FIGURE8_UPDATE_TIMINGS
        ]


# ---------------------------------------------------------------------------
# Convenience entry points (re-exported by repro.experiments)
# ---------------------------------------------------------------------------


def run_figure7_matrix() -> list[InterleavingResult]:
    """Reproduce the Figure 7 classification (3 of 9 combinations consistent)."""
    return ActivePublishingExperiment().run_matrix()


def run_figure8_matrix(technology: str = "soap") -> list[InterleavingResult]:
    """Reproduce the Figure 8 claim (all combinations satisfy the guarantee)."""
    experiment = ReactivePublishingExperiment(technology=technology)
    return [record.to_result() for record in experiment.run_matrix()]
