"""The DL Publisher: automated, stable-change-driven interface publication.

This module implements §5.6 ("Detection of Server Interface Changes") and the
publisher half of §5.7 ("Client Requests for Non-existent Methods"):

* every interface-affecting change to the managed dynamic class resets a
  countdown timer; only when the interface has been *stable* for the whole
  timeout does the publisher generate and publish a new description;
* generation itself takes time ("a relatively expensive operation"); if the
  timer expires again while a generation is running, another generation is
  queued to run as soon as the current one finishes;
* the developer can force publication at any time (SDE Manager Interface);
* :meth:`DLPublisher.ensure_current` implements the §5.7 recency guarantee
  used by the call handlers when a stale method is invoked.

Every publication is appended to :attr:`DLPublisher.publication_history`
(version, time, description).  That list is the one record of what was
published: publication counts are its length, and what changed between two
versions is :func:`~repro.evolve.diff.diff_descriptions` over its entries.

For the E4 ablation the publisher also supports the two strategies the paper
rejects — pure change-driven publication and periodic polling — selected by
the ``strategy`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import PublicationError
from repro.interface import InterfaceDescription
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.undo_redo import ChangeRecord
from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer, ResettableTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sde.interface_server import InterfaceServer

#: Publication strategies.  The paper's mechanism is ``stable-timeout``;
#: ``change-driven`` and ``polling`` exist for the §5.6 ablation (E4).
STRATEGY_STABLE_TIMEOUT = "stable-timeout"
STRATEGY_CHANGE_DRIVEN = "change-driven"
STRATEGY_POLLING = "polling"

_STRATEGIES = (STRATEGY_STABLE_TIMEOUT, STRATEGY_CHANGE_DRIVEN, STRATEGY_POLLING)


@dataclass
class PublicationRecord:
    """One published interface description."""

    version: int
    time: float
    description: InterfaceDescription


@dataclass
class PublisherStats:
    """Counters describing the publisher's activity."""

    timer_resets: int = 0
    generations: int = 0
    forced_publications: int = 0
    stale_call_publications: int = 0


class DLPublisher:
    """Base class for the WSDL and CORBA-IDL publishers.

    Subclasses provide the document rendering (:meth:`render`), the
    publication path and the content type; everything about *when* to publish
    lives here.
    """

    def __init__(
        self,
        dynamic_class: DynamicClass,
        interface_server: "InterfaceServer",
        scheduler: Scheduler,
        namespace: str,
        endpoint_url: str,
        timeout: float = 5.0,
        generation_cost: float = 0.25,
        strategy: str = STRATEGY_STABLE_TIMEOUT,
        poll_interval: float = 10.0,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise PublicationError(f"unknown publication strategy {strategy!r}")
        self.dynamic_class = dynamic_class
        self.interface_server = interface_server
        self.scheduler = scheduler
        self.namespace = namespace
        self.endpoint_url = endpoint_url
        self.generation_cost = float(generation_cost)
        self.strategy = strategy

        self.timer = ResettableTimer(scheduler, timeout, self._on_timer_expired)
        self._poll_timer: PeriodicTimer | None = None
        if strategy == STRATEGY_POLLING:
            self._poll_timer = PeriodicTimer(scheduler, poll_interval, self._on_poll_tick)

        self.version = 0
        self.published_description: InterfaceDescription | None = None
        #: Every published version, in order: its number, time and
        #: description.  The one record of what this publisher published.
        self.publication_history: list[PublicationRecord] = []
        self.stats = PublisherStats()

        self._generation_in_progress = False
        self._pending_generation = False
        self._waiters: list[Callable[[], None]] = []

    # -- abstract rendering -------------------------------------------------

    def render(self, description: InterfaceDescription) -> str:
        """Render ``description`` into the technology's document format.

        Must be a pure function of ``description``: a version is published when
        its generation completes, and its text rendered on its first read, if any."""
        raise NotImplementedError

    @property
    def document_path(self) -> str:
        """Path under which the document is published on the Interface Server."""
        raise NotImplementedError

    @property
    def content_type(self) -> str:
        """MIME type of the published document."""
        return "text/xml; charset=utf-8"

    # -- configuration ----------------------------------------------------------

    @property
    def timeout(self) -> float:
        """The §5.6 stability timeout in (virtual) seconds."""
        return self.timer.timeout

    @timeout.setter
    def timeout(self, value: float) -> None:
        self.timer.timeout = value

    @property
    def document_url(self) -> str:
        """Full URL of the published document."""
        return self.interface_server.url_for(self.document_path)

    @property
    def generation_in_progress(self) -> bool:
        """True while a document generation is running (§5.6/§5.7)."""
        return self._generation_in_progress

    # -- the current interface -----------------------------------------------------

    def current_description(self) -> InterfaceDescription:
        """Snapshot the dynamic class's current distributed interface."""
        base = InterfaceDescription(
            service_name=self.dynamic_class.name,
            namespace=self.namespace,
            endpoint_url=self.endpoint_url,
            version=self.version,
        )
        return base.with_operations(
            self.dynamic_class.distributed_signatures(),
            self.dynamic_class.struct_types,
        )

    def is_published_current(self) -> bool:
        """True if the published description matches the live interface."""
        if self.published_description is None:
            return False
        return self.published_description.same_signature(self.current_description())

    # -- deployment-time publication (§5.1.1) ----------------------------------------

    def publish_minimal(self) -> None:
        """Publish the minimal interface description immediately.

        "creates a minimal WSDL document [containing] the SOAP Endpoint
        address but ... no server operation definitions" — this happens at
        deployment time, before any editing, so it bypasses the stability
        timer and the generation delay.
        """
        description = InterfaceDescription.minimal(
            self.dynamic_class.name, self.namespace, self.endpoint_url
        )
        self._publish(description)

    def start(self) -> None:
        """Begin monitoring (start the polling timer when that strategy is used)."""
        if self._poll_timer is not None and not self._poll_timer.running:
            self._poll_timer.start()

    def stop(self) -> None:
        """Stop all timers (used when a managed server is torn down)."""
        self.timer.cancel()
        if self._poll_timer is not None:
            self._poll_timer.stop()

    # -- change monitoring (§5.6) --------------------------------------------------------

    def on_change_record(self, record: ChangeRecord) -> None:
        """Undo/redo-stack listener: note a change to the managed class."""
        if record.class_name != self.dynamic_class.name:
            return
        if not record.event.affects_interface:
            return
        if self.strategy == STRATEGY_CHANGE_DRIVEN:
            self._begin_generation()
        elif self.strategy == STRATEGY_STABLE_TIMEOUT:
            if self.timer.running:
                self.stats.timer_resets += 1
            self.timer.reset()
        # polling: nothing to do, the periodic timer will notice.

    def _on_timer_expired(self) -> None:
        self._begin_generation()

    def _on_poll_tick(self) -> None:
        if not self.is_published_current():
            self._begin_generation()

    # -- manual control (§4 / §5.6) --------------------------------------------------------

    def force_publish(self) -> None:
        """Force timer expiration: generate and publish now."""
        self.stats.forced_publications += 1
        self.timer.cancel()
        self._begin_generation()

    # -- the §5.7 recency machinery ------------------------------------------------------------

    def ensure_current(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once the published interface is guaranteed to
        be at least as recent as the live interface observed *now*.

        The case analysis follows §5.7 of the paper:

        * timer idle, no generation running → already current, call back now;
        * generation running, timer idle → the running generation's result is
          current, call back when it completes;
        * generation running *and* timer running → wait for the running
          generation and one more, call back after the second;
        * timer running, no generation running → the published interface is
          stale; cancel the countdown, generate immediately, call back when
          that generation completes.
        """
        if not self.timer.running and not self._generation_in_progress:
            callback()
            return
        self.stats.stale_call_publications += 1
        self._waiters.append(callback)
        if self._generation_in_progress and self.timer.running:
            self.timer.cancel()
            self._pending_generation = True
            return
        if self._generation_in_progress:
            return
        # Timer running, no generation in progress: force one now.
        self.timer.cancel()
        self._begin_generation()

    # -- generation pipeline ------------------------------------------------------------------------

    def _begin_generation(self) -> None:
        if self._generation_in_progress:
            self._pending_generation = True
            return
        self._generation_in_progress = True
        snapshot = self.current_description()
        self.stats.generations += 1
        self.scheduler.schedule(self.generation_cost, self._complete_generation, snapshot)

    def _complete_generation(self, snapshot: InterfaceDescription) -> None:
        self._generation_in_progress = False
        already_published = (
            self.published_description is not None
            and self.published_description.same_signature(snapshot)
        )
        # "publication is triggered only when the published interface is
        # out of date" — a redundant generation does not bump the version.
        if not already_published:
            self._publish(snapshot)

        if self._pending_generation:
            self._pending_generation = False
            self._begin_generation()
            return
        self._flush_waiters()

    def _publish(self, description: InterfaceDescription) -> None:
        self.version += 1
        versioned = description.with_version(self.version)
        self.interface_server.publish(
            self.document_path, partial(self.render, versioned), self.content_type
        )
        self.published_description = versioned
        self.publication_history.append(
            PublicationRecord(
                version=self.version,
                time=self.scheduler.now,
                description=versioned,
            )
        )

    def _flush_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.dynamic_class.name!r}, version={self.version}, "
            f"strategy={self.strategy})"
        )
