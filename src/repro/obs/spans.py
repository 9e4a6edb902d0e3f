"""Causal spans over simulated time.

A :class:`Span` is one timed unit of work in a causal tree: a client call,
one attempt against a selected replica, the server-side dispatch covering
§5.7 stall queueing plus execution, a rebind.  Zero-duration *instant*
spans mark point events (faults injected, rollout waves, transport
deliveries).  All timestamps come from the simulation scheduler's clock
and all ids from one sequence counter, so the full span set — and its
:meth:`Tracer.fingerprint` — is byte-deterministic for a given scenario.

The :class:`Tracer` keeps finished spans in a bounded ring
(``collections.deque(maxlen=...)``), the same memory discipline as the
flight recorder: a million-call run retains the most recent window, never
an unbounded log.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from typing import Any, Iterable

from repro.obs.context import TraceContext

#: Span kinds (the ``cat`` field in Chrome trace exports).
KIND_CALL = "call"
KIND_ATTEMPT = "attempt"
KIND_SERVER = "server"
KIND_REBIND = "rebind"
KIND_INSTANT = "instant"


class Span:
    """One node of a causal trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "end",
        "attrs",
        "events",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        kind: str,
        start: float,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        #: Simulated end time (None while the span is open).
        self.end: float | None = None
        self.attrs: dict[str, Any] = {}
        #: Point events inside the span: ``(time, name, attrs)`` triples.
        self.events: list[tuple[float, str, dict[str, Any]]] = []

    @property
    def context(self) -> TraceContext:
        """The propagation context naming this span as the parent."""
        return TraceContext(self.trace_id, self.span_id)

    def add_event(self, time: float, name: str, attrs: dict[str, Any] | None = None) -> None:
        """Attach a point event to this span."""
        self.events.append((time, name, dict(attrs) if attrs else {}))

    def snapshot(self) -> tuple:
        """A hashable, order-stable snapshot of the full span state."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.kind,
            self.start,
            self.end,
            tuple(sorted((key, repr(value)) for key, value in self.attrs.items())),
            tuple(
                (time, name, tuple(sorted((k, repr(v)) for k, v in attrs.items())))
                for time, name, attrs in self.events
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able rendering (exporters and flight-recorder dumps)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"time": time, "name": name, "attrs": attrs}
                for time, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{(self.end - self.start) * 1e3:.3f}ms"
        return f"Span({self.kind}:{self.name!r} #{self.span_id}, {state})"


class Tracer:
    """Mints spans, keeps the bounded ring of finished ones."""

    def __init__(self, scheduler, capacity: int = 4096) -> None:
        self.scheduler = scheduler
        self._ids = itertools.count(1)
        #: Finished spans, oldest evicted first once ``capacity`` is hit.
        self.finished: deque[Span] = deque(maxlen=capacity)
        #: Open spans by id (a handful at any instant: in-flight calls).
        self._open: dict[int, Span] = {}
        #: Spans ever finished (the ring may have evicted some).
        self.finished_count = 0

    # -- span lifecycle ---------------------------------------------------

    def begin(
        self,
        name: str,
        kind: str,
        parent: "Span | TraceContext | None" = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span; without a parent it roots a new trace."""
        span_id = next(self._ids)
        if parent is None:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(trace_id, span_id, parent_id, name, kind, self.scheduler.now)
        if attrs:
            span.attrs.update(attrs)
        self._open[span_id] = span
        return span

    def end(self, span: Span, attrs: dict[str, Any] | None = None) -> Span:
        """Close a span at the current simulated time."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is None:
            span.end = self.scheduler.now
            self._open.pop(span.span_id, None)
            self.finished.append(span)
            self.finished_count += 1
        return span

    def instant(
        self,
        name: str,
        parent: "Span | TraceContext | None" = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record a zero-duration span marking a point event."""
        span = self.begin(name, KIND_INSTANT, parent, attrs)
        return self.end(span)

    # -- inspection -------------------------------------------------------

    @property
    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended, in id order."""
        return [self._open[key] for key in sorted(self._open)]

    @property
    def spans(self) -> list[Span]:
        """The finished-span ring as a list (oldest first)."""
        return list(self.finished)

    def trees(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace id, in finish order."""
        grouped: dict[int, list[Span]] = {}
        for span in self.finished:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def fingerprint(self) -> str:
        """SHA-256 over every finished span's snapshot, in finish order."""
        digest = hashlib.sha256()
        for span in self.finished:
            digest.update(repr(span.snapshot()).encode())
        return digest.hexdigest()


def spans_to_dicts(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Render an iterable of spans as JSON-able dicts."""
    return [span.to_dict() for span in spans]
