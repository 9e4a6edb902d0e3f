"""Versioned JSONL traces: record a scenario run, replay it byte-for-byte.

A trace is a JSON-Lines file.  The first record is a ``header`` carrying
the format tag (:data:`TRACE_FORMAT`); the second is the full *scenario
spec* — world shape, services, client groups with their arrival offsets
**already resolved** to plain floats, the declared timeline and the
declared SLOs; the records that follow are observations streamed out of the run (per-call
issue/complete times and outcomes, cohort-flow batches, timeline actions
firing); the last record is a ``summary`` with a SHA-256 digest of the
run's :meth:`~repro.cluster.report.ClusterReport.fingerprint`.

Two invariants make replay exact (ARCHITECTURE.md "Traffic model &
replay"):

* **Replay never re-samples.**  Seeded arrival processes are resolved to
  concrete per-position offsets at record time and those floats — which
  round-trip exactly through JSON — are what a replayed Scenario uses.
* **Everything else in a scenario is declarative.**  Services, client
  groups, retry/cohort models, timeline actions and SLOs are dataclasses,
  written and read by one checked record codec
  (:class:`~repro.util.records.RecordCodec`); operation *bodies* (the one
  executable piece) are serialised by name through a registry
  (:func:`register_trace_body`), never by value.

``replay(trace).run(until=reader.until)`` therefore produces a
:class:`~repro.cluster.report.ClusterReport` whose ``fingerprint()`` is
byte-identical to the recorded run's.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.cohort import CohortModel
from repro.cluster.scenario import (
    OperationSpec,
    Scenario,
    _ClientGroupSpec,
    _ServiceSpec,
    churn,
    edit,
    publish,
)
from repro.core.sde import SDEConfig
from repro.errors import TraceError
from repro.evolve.actions import abort_rollout, canary, rolling
from repro.evolve.rollout import InterfaceUpgrade
from repro.faults.actions import crash, drop_link, heal, partition, restart, restore_link
from repro.faults.policy import RetryPolicy
from repro.net.latency import CostModel
from repro.obs.slo import SLO, SLO_RECORDS
from repro.rmitypes import PRIMITIVES
from repro.traffic.arrivals import resolve_offsets
from repro.util.records import RecordCodec, check_keys, naming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.report import ClusterReport

#: Format tag written into (and required of) every trace header.
TRACE_FORMAT = "repro-trace/1"


# -- operation-body registry ---------------------------------------------------
#
# Bodies are the only executable part of a scenario spec.  They serialise
# by *name*: a body either carries a ``__trace_body__`` attribute naming a
# registered callable, or the scenario cannot be traced.

_TRACE_BODIES: dict[str, Callable[..., Any]] = {}


def register_trace_body(name: str, body: Callable[..., Any]) -> Callable[..., Any]:
    """Register ``body`` under ``name`` so traced scenarios can carry it.

    The function gains a ``__trace_body__`` attribute; any
    :class:`~repro.cluster.scenario.OperationSpec` using it (or another
    callable carrying the same attribute) serialises as the name and
    replays as the registered callable.
    """
    if not name:
        raise TraceError("trace body name must be non-empty")
    body.__trace_body__ = name  # type: ignore[attr-defined]
    _TRACE_BODIES[name] = body
    return body


def echo_body(_self: Any, message: Any) -> Any:
    """Builtin traceable body: return the single argument unchanged."""
    return message


def noop_body(_self: Any, *args: Any) -> None:
    """Builtin traceable body: accept anything, return nothing."""
    return None


register_trace_body("echo", echo_body)
register_trace_body("noop", noop_body)


def _body_to_json(body: Callable[..., Any] | None, _spec: Any) -> str | None:
    if body is None:
        return None
    name = getattr(body, "__trace_body__", None)
    if name is None or name not in _TRACE_BODIES:
        raise TraceError(
            "operation body is not traceable: register it with "
            "repro.traffic.trace.register_trace_body(name, body) "
            f"(got {body!r})"
        )
    return name


def _body_from_json(name: str | None, _record: Any) -> Callable[..., Any] | None:
    if name is None:
        return None
    if name not in _TRACE_BODIES:
        raise ValueError(
            f"trace names unregistered operation body {name!r}; register it "
            "with repro.traffic.trace.register_trace_body before replay"
        )
    return _TRACE_BODIES[name]


# -- the spec codec ------------------------------------------------------------
#
# Every declarative part of a scenario is a dataclass, written and read by
# one RecordCodec (repro.util.records).  These tables hold what JSON cannot
# hold as written: primitive types, bodies, hosts, argument scalars and the
# resolved arrival offsets, and the two fields whose key is not their name.


def _type_name(rmi_type: Any, spec: OperationSpec) -> str:
    name = getattr(rmi_type, "name", None)
    if name not in PRIMITIVES:
        raise TraceError(
            f"operation {spec.name!r}: only primitive types are traceable, "
            f"got {rmi_type!r}"
        )
    return name


def _primitive(name: Any, _spec: Any = None) -> Any:
    if name not in PRIMITIVES:
        raise ValueError(f"{name!r} is not a primitive type")
    return PRIMITIVES[name]


def _host(ref: Any, _action: Any) -> Any:
    if ref is None or isinstance(ref, (str, int)):
        return ref
    name = getattr(ref, "name", None)
    if isinstance(name, str):
        return name
    raise TraceError(f"a host must be a name, index or node, got {ref!r}")


def _arguments_to_json(arguments: tuple[Any, ...], _group: Any) -> list[Any]:
    for argument in arguments:
        if argument is not None and not isinstance(argument, (bool, int, float, str)):
            raise TraceError(
                "call arguments must be JSON scalars (None/bool/int/float/str) "
                f"to be traceable, got {argument!r}"
            )
    return list(arguments)


def _offsets_from_json(offsets: list[float], group: Mapping[str, Any]) -> Callable[[int], float]:
    if len(offsets) != group["count"]:
        raise ValueError(f"records {len(offsets)} offsets for {group['count']} clients")
    # Position -> the recorded offset: replay never re-samples.
    return tuple(offsets).__getitem__


_SPEC_RECORDS = RecordCodec(
    to_json={
        "parameters": lambda parameters, spec: [
            [name, _type_name(rmi_type, spec)] for name, rmi_type in parameters
        ],
        "return_type": _type_name,
        "body": _body_to_json,
        "server": _host,
        "a": _host,
        "b": _host,
        "arguments": _arguments_to_json,
        # The resolved offsets ARE the arrival spec from here on.
        "arrival": lambda arrival, group: list(resolve_offsets(arrival, group.count)),
    },
    from_json={
        "parameters": lambda items, _spec: tuple(
            (name, _primitive(type_name)) for name, type_name in items
        ),
        "return_type": _primitive,
        "body": _body_from_json,
        "arrival": _offsets_from_json,
        "cost_model": CostModel,
        "operations": [OperationSpec],
        "add": [OperationSpec],
        "change": InterfaceUpgrade,
        "retry": RetryPolicy,
        "cohort": CohortModel,
    },
    keys={"return_type": "returns", "arrival": "offsets"},
)

#: Every traceable timeline action class, by its ``kind``.
TIMELINE_ACTIONS: dict[str, type] = {
    action.kind: action
    for action in (
        crash, restart, partition, heal, drop_link, restore_link,
        edit, publish, churn, rolling, canary, abort_rollout,
    )
}


def _traceable(action: Any) -> bool:
    return TIMELINE_ACTIONS.get(getattr(action, "kind", None)) is type(action)


def _event_to_json(action: Any) -> dict[str, Any]:
    """A timeline action's event: ``{"kind": kind}`` and its record."""
    if not _traceable(action):
        raise TraceError(
            f"timeline action {action!r} is opaque; use the edit/publish/churn, "
            "fault or rollout actions to keep the scenario traceable"
        )
    return {"kind": action.kind} | _SPEC_RECORDS.write(action)


def _event_from_json(event: Any, where: str = "timeline event") -> Any:
    kind = event.get("kind") if isinstance(event, Mapping) else None
    action_class = TIMELINE_ACTIONS.get(kind)
    if action_class is None:
        raise TraceError(f"{where} is not an event of a timeline action kind: {event!r}")
    record = {key: value for key, value in event.items() if key != "kind"}
    return _SPEC_RECORDS.read(action_class, record, f"{where} ({kind})")


# -- scenario spec <-> JSON ----------------------------------------------------

#: The spec's keys, in the order the writer writes them.
_SPEC_KEYS = (
    "name", "server_count", "sde_config", "services", "client_groups", "timeline", "slos"
)


def scenario_to_spec(scenario: Scenario) -> dict[str, Any]:
    """Serialise a :class:`Scenario` to a JSON-able spec dict.

    Arrival processes are resolved to concrete per-position offsets *here*
    — the replay side reads those floats back verbatim and never touches an
    RNG.  Raises :class:`~repro.errors.TraceError` for the scenario
    features that cannot round-trip (third-party technologies, unregistered
    operation bodies, opaque timeline actions).
    """
    if scenario._technologies:
        raise TraceError("scenarios with third-party technologies are not traceable")
    return dict(
        zip(
            _SPEC_KEYS,
            (
                scenario.name,
                scenario._server_count,
                _SPEC_RECORDS.write(scenario._base_config),
                _SPEC_RECORDS.write(scenario._services),
                _SPEC_RECORDS.write(scenario._client_groups),
                [
                    {"time": time, "event": _event_to_json(action)}
                    for time, action in scenario._timeline
                ],
                SLO_RECORDS.write(scenario._slos),
            ),
        )
    )


def scenario_from_spec(spec: Mapping[str, Any]) -> Scenario:
    """Rebuild a runnable :class:`Scenario` from a recorded spec dict.

    Every record is read by the codec that wrote it, which takes exactly
    the keys the writer writes and runs the checks the builder runs, so any
    key, value or record the world could not be built from raises
    :class:`~repro.errors.TraceError` naming it, before any world is built.
    """
    check_keys(spec, _SPEC_KEYS, "the scenario spec")
    with naming("the scenario spec"):
        config = _SPEC_RECORDS.read(SDEConfig, spec["sde_config"], "sde_config")
        scenario = Scenario(spec["name"], sde_config=config).servers(spec["server_count"])
        scenario._services.extend(
            _SPEC_RECORDS.read([_ServiceSpec], spec["services"], "service")
        )
        scenario._client_groups.extend(
            _SPEC_RECORDS.read([_ClientGroupSpec], spec["client_groups"], "client group")
        )
        for number, entry in enumerate(spec["timeline"], 1):
            where = f"timeline entry {number}"
            check_keys(entry, ("time", "event"), where)
            scenario.at(entry["time"], _event_from_json(entry["event"], where))
        scenario.slo(*SLO_RECORDS.read([SLO], spec["slos"], "slo"))
    return scenario


# -- report digest -------------------------------------------------------------


def fingerprint_digest(report: "ClusterReport") -> str:
    """SHA-256 over the repr of the report's full fingerprint tuple."""
    return hashlib.sha256(repr(report.fingerprint()).encode("utf-8")).hexdigest()


# -- writer / reader -----------------------------------------------------------


class TraceWriter:
    """Streams one scenario run into a JSONL trace file.

    The fleet driver calls the ``note_*`` hooks while the run is in
    flight; :func:`record` wraps the whole protocol (header, spec, run,
    summary).  Records are also kept in memory (``records``) so tests can
    assert on them without re-reading the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict[str, Any]] = []
        self._handle = self.path.open("w", encoding="utf-8")
        self._closed = False

    def _write(self, record: dict[str, Any]) -> None:
        if self._closed:
            raise TraceError(f"trace writer for {self.path} is closed")
        self.records.append(record)
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def write_header(self, name: str, until: float | None) -> None:
        self._write({"kind": "header", "format": TRACE_FORMAT, "scenario": name, "until": until})

    def write_spec(self, spec: dict[str, Any]) -> None:
        self._write({"kind": "scenario", "spec": spec})

    # -- driver-facing observation hooks (streamed during the run) --------

    def note_call(
        self,
        *,
        issued_at: float,
        completed_at: float,
        client: str,
        protocol: str,
        service: str,
        operation: str,
        outcome: str,
        replica: int | None,
    ) -> None:
        """One discrete fleet call reaching its final outcome (or abandon)."""
        self._write(
            {
                "kind": "call",
                "t_issued": issued_at,
                "t_completed": completed_at,
                "client": client,
                "protocol": protocol,
                "service": service,
                "operation": operation,
                "outcome": outcome,
                "replica": replica,
            }
        )

    def note_flow(self, *, time: float, flow: str, count: int, attempt: int) -> None:
        """One cohort-flow batch being offered to the registry."""
        self._write(
            {"kind": "flow", "t": time, "flow": flow, "count": count, "attempt": attempt}
        )

    def note_timeline(self, time: float, action: Any) -> None:
        """A scripted timeline action firing inside the measured window."""
        if _traceable(action):
            self._write({"kind": "timeline", "t": time, "event": _event_to_json(action)})

    def note_span(self, span: Mapping[str, Any]) -> None:
        """One finished observability span (``repro.obs``), already a dict.

        Only written when the run was traced *and* observed
        (``record(..., obs=...)`` / ``Scenario.run(trace=..., obs=...)``).
        Replay does not read the channel, but observing shapes the run
        (in-band trace context lengthens messages, sampler ticks are
        events), so such a trace replays to its fingerprint only when the
        replay is observed the same way (``run(obs=True)``).
        """
        self._write({"kind": "span", "span": dict(span)})

    def write_summary(self, report: "ClusterReport") -> None:
        self._write(
            {
                "kind": "summary",
                "fingerprint_sha256": fingerprint_digest(report),
                "started_at": report.started_at,
                "finished_at": report.finished_at,
                "total_calls": report.outcomes("discrete").calls,
                "recency_violations": report.outcomes("all").recency_violations,
            }
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()


class TraceReader:
    """Parses a JSONL trace file and exposes its records by kind."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict[str, Any]] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise TraceError(
                        f"{self.path}:{line_number}: malformed trace record ({error})"
                    ) from None
                self.records.append(record)
        if not self.records or self.records[0].get("kind") != "header":
            raise TraceError(f"{self.path}: not a trace file (missing header record)")
        self.header = self.records[0]
        if self.header.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"{self.path}: unsupported trace format "
                f"{self.header.get('format')!r} (expected {TRACE_FORMAT!r})"
            )
        specs = [r for r in self.records if r.get("kind") == "scenario"]
        if len(specs) != 1:
            raise TraceError(f"{self.path}: expected exactly one scenario record")
        self.spec: dict[str, Any] = specs[0]["spec"]

    @property
    def until(self) -> float | None:
        """The recorded run's horizon (``run(until=...)``)."""
        return self.header.get("until")

    @property
    def calls(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "call"]

    @property
    def flows(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "flow"]

    @property
    def spans(self) -> list[dict[str, Any]]:
        """Observability spans recorded alongside the run (may be empty)."""
        return [r["span"] for r in self.records if r.get("kind") == "span"]

    @property
    def summary(self) -> dict[str, Any] | None:
        for record in reversed(self.records):
            if record.get("kind") == "summary":
                return record
        return None

    @property
    def fingerprint_digest(self) -> str | None:
        summary = self.summary
        return summary["fingerprint_sha256"] if summary is not None else None


# -- top-level protocol --------------------------------------------------------


def record(
    scenario: Scenario,
    path: str | Path,
    until: float | None = None,
    obs: Any | None = None,
) -> "tuple[ClusterReport, TraceReader]":
    """Run ``scenario`` while writing a trace of it to ``path``.

    The spec is serialised (and validated) *before* the run starts, so an
    untraceable scenario fails fast instead of after a long simulation.
    ``obs`` (see :meth:`Scenario.run`) additionally streams every finished
    observability span into the trace as ``span`` records; the spec does
    not record it, so replay the trace with the same ``obs`` to reproduce
    the fingerprint.  Returns the run's report and a reader over the
    finished trace.
    """
    spec = scenario_to_spec(scenario)
    writer = TraceWriter(path)
    try:
        writer.write_header(scenario.name, until)
        writer.write_spec(spec)
        report = scenario.run(until=until, trace=writer, obs=obs)
        writer.write_summary(report)
    finally:
        writer.close()
    return report, TraceReader(writer.path)


def replay(trace: str | Path | TraceReader) -> Scenario:
    """Rebuild the recorded Scenario; running it reproduces the fingerprint.

    ``replay(trace).run(until=reader.until)`` yields a report whose
    ``fingerprint()`` matches the recorded run byte for byte — arrivals
    come back as the recorded floats (never re-sampled) and every other
    scenario ingredient is reconstructed from the declarative spec.  A
    run recorded with ``obs=...`` matches only when run with the same
    ``obs`` (observing lengthens messages and adds sampler events).
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    return scenario_from_spec(reader.spec)
