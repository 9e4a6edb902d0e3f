"""Versioned JSONL traces: record a scenario run, replay it byte-for-byte.

A trace is a JSON-Lines file.  The first record is a ``header`` carrying
the format tag (:data:`TRACE_FORMAT`); the second is the full *scenario
spec* — world shape, services, client groups with their arrival offsets
**already resolved** to plain floats, and the declared timeline; the
records that follow are observations streamed out of the run (per-call
issue/complete times and outcomes, cohort-flow batches, timeline actions
firing); the last record is a ``summary`` with a SHA-256 digest of the
run's :meth:`~repro.cluster.report.ClusterReport.fingerprint`.

Two invariants make replay exact (ARCHITECTURE.md "Traffic model &
replay"):

* **Replay never re-samples.**  Seeded arrival processes are resolved to
  concrete per-position offsets at record time and those floats — which
  round-trip exactly through JSON — are what a replayed Scenario uses.
* **Everything else in a scenario is declarative.**  Services, client
  groups, retry/cohort models and timeline actions are data; operation
  *bodies* (the one executable piece) are serialised by name through a
  registry (:func:`register_trace_body`), never by value.

``replay(trace).run(until=reader.until)`` therefore produces a
:class:`~repro.cluster.report.ClusterReport` whose ``fingerprint()`` is
byte-identical to the recorded run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.cohort import CohortModel
from repro.cluster.scenario import OperationSpec, Scenario, churn, edit, op, publish
from repro.core.sde import SDEConfig
from repro.errors import TraceError
from repro.evolve.actions import abort_rollout, canary, rolling
from repro.evolve.rollout import InterfaceUpgrade
from repro.faults.actions import crash, drop_link, heal, partition, restart, restore_link
from repro.faults.policy import RetryPolicy
from repro.net.latency import CostModel
from repro.rmitypes import PRIMITIVES
from repro.traffic.arrivals import resolve_offsets

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


def _body_to_json(body: Callable[..., Any] | None) -> str | None:
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


def _body_from_json(name: str | None) -> Callable[..., Any] | None:
    if name is None:
        return None
    try:
        return _TRACE_BODIES[name]
    except KeyError:
        raise TraceError(
            f"trace names unregistered operation body {name!r}; register it "
            "with repro.traffic.trace.register_trace_body before replay"
        ) from None


# -- leaf serialisers ----------------------------------------------------------


def _op_to_json(spec: OperationSpec) -> dict[str, Any]:
    if not isinstance(spec, OperationSpec):
        raise TraceError(f"expected an OperationSpec, got {type(spec).__name__}")
    parameters = []
    for name, rmi_type in spec.parameters:
        type_name = getattr(rmi_type, "name", None)
        if type_name not in PRIMITIVES:
            raise TraceError(
                f"operation {spec.name!r}: only primitive parameter types are "
                f"traceable, got {rmi_type!r}"
            )
        parameters.append([name, type_name])
    return_name = getattr(spec.return_type, "name", None)
    if return_name not in PRIMITIVES:
        raise TraceError(
            f"operation {spec.name!r}: only primitive return types are "
            f"traceable, got {spec.return_type!r}"
        )
    return {
        "name": spec.name,
        "parameters": parameters,
        "returns": return_name,
        "body": _body_to_json(spec.body),
    }


def _op_from_json(data: Mapping[str, Any]) -> OperationSpec:
    return op(
        data["name"],
        [(name, PRIMITIVES[type_name]) for name, type_name in data["parameters"]],
        PRIMITIVES[data["returns"]],
        body=_body_from_json(data.get("body")),
    )


def _arguments_to_json(arguments: tuple[Any, ...]) -> list[Any]:
    for argument in arguments:
        if argument is not None and not isinstance(argument, (bool, int, float, str)):
            raise TraceError(
                "call arguments must be JSON scalars (None/bool/int/float/str) "
                f"to be traceable, got {argument!r}"
            )
    return list(arguments)


def _config_to_json(config: SDEConfig | None) -> dict[str, Any] | None:
    if config is None:
        return None
    data = {f.name: getattr(config, f.name) for f in fields(SDEConfig)}
    cost_model = data["cost_model"]
    if cost_model is not None:
        data["cost_model"] = {f.name: getattr(cost_model, f.name) for f in fields(CostModel)}
    return data


def _config_from_json(data: Mapping[str, Any] | None) -> SDEConfig | None:
    if data is None:
        return None
    values = dict(data)
    if values.get("cost_model") is not None:
        values["cost_model"] = CostModel(**values["cost_model"])
    return SDEConfig(**values)


def _node_ref_to_json(ref: Any) -> Any:
    if ref is None or isinstance(ref, (str, int)):
        return ref
    name = getattr(ref, "name", None)
    if isinstance(name, str):
        return name
    raise TraceError(f"a host must be a name, index or node, got {ref!r}")


def _upgrade_to_json(change: InterfaceUpgrade) -> dict[str, Any]:
    return {
        "add": [_op_to_json(spec) for spec in change.add],
        "remove": list(change.remove),
        "successors": dict(change.successors),
    }


def _upgrade_from_json(data: Mapping[str, Any]) -> InterfaceUpgrade:
    return InterfaceUpgrade(
        add=tuple(_op_from_json(item) for item in data["add"]),
        remove=tuple(data["remove"]),
        successors=dict(data["successors"]),
    )


# -- timeline events -----------------------------------------------------------
#
# Every timeline action is a frozen dataclass whose fields are its
# arguments.  Its event is ``{"kind": kind, **fields}``; the fields holding
# hosts, operations or an interface upgrade pass through a converter.

#: Every traceable timeline action class, by its ``kind``.
TIMELINE_ACTIONS: dict[str, type] = {
    action.kind: action
    for action in (
        crash, restart, partition, heal, drop_link, restore_link,
        edit, publish, churn, rolling, canary, abort_rollout,
    )
}

_FIELDS_TO_JSON: dict[str, Callable[[Any], Any]] = {
    "server": _node_ref_to_json,
    "a": _node_ref_to_json,
    "b": _node_ref_to_json,
    "operations": lambda specs: [_op_to_json(spec) for spec in specs],
    "change": _upgrade_to_json,
}
_FIELDS_FROM_JSON: dict[str, Callable[[Any], Any]] = {
    "operations": lambda items: tuple(_op_from_json(item) for item in items),
    "change": _upgrade_from_json,
}


def _as_is(value: Any) -> Any:
    return value


def _traceable(action: Any) -> bool:
    return TIMELINE_ACTIONS.get(getattr(action, "kind", None)) is type(action)


def _event_to_json(action: Any) -> dict[str, Any]:
    if not _traceable(action):
        raise TraceError(
            f"timeline action {action!r} is opaque; use the edit/publish/churn, "
            "fault or rollout actions to keep the scenario traceable"
        )
    return {"kind": action.kind} | {
        field.name: _FIELDS_TO_JSON.get(field.name, _as_is)(getattr(action, field.name))
        for field in fields(action)
    }


def _event_from_json(data: Mapping[str, Any]) -> Any:
    action_class = TIMELINE_ACTIONS.get(data["kind"])
    if action_class is None:
        raise TraceError(f"trace names unknown timeline event kind {data['kind']!r}")
    # The fields are restored as recorded, without calling __init__, so a
    # kind with its own signature (edit's varargs) decodes like the rest.
    action = object.__new__(action_class)
    for field in fields(action_class):
        decode = _FIELDS_FROM_JSON.get(field.name, _as_is)
        object.__setattr__(action, field.name, decode(data[field.name]))
    return action


# -- scenario spec <-> JSON ----------------------------------------------------


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
    services = [
        {
            "name": service.name,
            "operations": [_op_to_json(spec) for spec in service.operations],
            "technology": service.technology,
            "replicas": service.replicas,
        }
        for service in scenario._services
    ]
    groups = []
    for group in scenario._client_groups:
        retry = group.retry
        cohort = group.cohort
        groups.append(
            {
                "count": group.count,
                "protocol_mix": (
                    [list(item) for item in group.protocol_mix]
                    if group.protocol_mix is not None
                    else None
                ),
                "service": group.service,
                "calls": group.calls,
                "operation": group.operation,
                "arguments": _arguments_to_json(group.arguments),
                "think_time": group.think_time,
                # The resolved offsets ARE the arrival spec from here on.
                "offsets": list(resolve_offsets(group.arrival, group.count)),
                "stale_every": group.stale_every,
                "retry": (
                    {
                        "max_attempts": retry.max_attempts,
                        "timeout": retry.timeout,
                        "backoff": retry.backoff,
                    }
                    if retry is not None
                    else None
                ),
                "cohort": (
                    {
                        "representatives": cohort.representatives,
                        "tick": cohort.tick,
                        "max_attempts": cohort.max_attempts,
                    }
                    if cohort is not None
                    else None
                ),
            }
        )
    timeline = [
        {"time": time, "event": _event_to_json(action)} for time, action in scenario._timeline
    ]
    return {
        "name": scenario.name,
        "server_count": scenario._server_count,
        "sde_config": _config_to_json(scenario._base_config),
        "services": services,
        "client_groups": groups,
        "timeline": timeline,
    }


class _ReplayOffsets:
    """A recorded group's arrival law: position -> resolved offset.

    Plugs into ``Scenario.clients(..., arrival=...)`` through the callable
    branch of :func:`~repro.traffic.arrivals.resolve_offsets`, handing back
    exactly the floats the recording resolved — replay never re-samples.
    """

    def __init__(self, offsets: list[float]) -> None:
        self.offsets = [float(offset) for offset in offsets]

    def __call__(self, position: int) -> float:
        return self.offsets[position]

    def __repr__(self) -> str:
        return f"_ReplayOffsets(n={len(self.offsets)})"


#: The keys :func:`scenario_from_spec` reads (``*_KEYS``) and the ones it
#: cannot do without (``*_REQUIRED``): at the spec's top level, in a
#: service, in a client group and in a timeline entry.  A key outside them
#: records a setting replay cannot rebuild, and a missing required one a
#: world it cannot build, so the reader refuses both.
_SPEC_REQUIRED = frozenset({"name", "server_count", "services", "client_groups", "timeline"})
_SPEC_KEYS = _SPEC_REQUIRED | {"sde_config"}
_SERVICE_KEYS = _SERVICE_REQUIRED = frozenset({"name", "operations", "technology", "replicas"})
_GROUP_REQUIRED = frozenset({"count", "calls", "arguments", "think_time", "offsets"})
_GROUP_KEYS = _GROUP_REQUIRED | {
    "protocol_mix", "service", "operation", "stale_every", "retry", "cohort"
}
_TIMELINE_KEYS = frozenset({"time", "event"})


def _check_keys(
    record: Mapping[str, Any], known: frozenset[str], required: frozenset[str], where: str
) -> None:
    unknown = sorted(set(record) - known)
    if unknown:
        raise TraceError(f"{where} records {unknown}, which replay cannot rebuild")
    missing = sorted(required - set(record))
    if missing:
        raise TraceError(f"{where} lacks {missing}, which replay needs")


def scenario_from_spec(spec: Mapping[str, Any]) -> Scenario:
    """Rebuild a runnable :class:`Scenario` from a recorded spec dict.

    Raises :class:`~repro.errors.TraceError` for a key the reader does not
    read, so a trace never replays as a different world, and for a key it
    needs but the spec lacks.
    """
    _check_keys(spec, _SPEC_KEYS, _SPEC_REQUIRED, "the scenario spec")
    scenario = Scenario(
        spec["name"], sde_config=_config_from_json(spec.get("sde_config"))
    )
    scenario.servers(spec["server_count"])
    for service in spec["services"]:
        _check_keys(
            service, _SERVICE_KEYS, _SERVICE_REQUIRED, f"service {service.get('name')!r}"
        )
        scenario.service(
            service["name"],
            [_op_from_json(item) for item in service["operations"]],
            technology=service["technology"],
            replicas=service["replicas"],
        )
    for number, group in enumerate(spec["client_groups"], 1):
        _check_keys(group, _GROUP_KEYS, _GROUP_REQUIRED, f"client group {number}")
        offsets = group["offsets"]
        if len(offsets) != group["count"]:
            raise TraceError(
                f"client group records {len(offsets)} offsets for "
                f"{group['count']} clients"
            )
        retry = group.get("retry")
        cohort = group.get("cohort")
        scenario.clients(
            group["count"],
            protocol_mix=(
                {name: weight for name, weight in group["protocol_mix"]}
                if group.get("protocol_mix") is not None
                else None
            ),
            service=group.get("service"),
            calls=group["calls"],
            operation=group.get("operation"),
            arguments=tuple(group["arguments"]),
            think_time=group["think_time"],
            arrival=_ReplayOffsets(offsets),
            stale_every=group.get("stale_every"),
            retry=RetryPolicy(**retry) if retry is not None else None,
            cohort=CohortModel(**cohort) if cohort is not None else None,
        )
    for number, entry in enumerate(spec["timeline"], 1):
        _check_keys(entry, _TIMELINE_KEYS, _TIMELINE_KEYS, f"timeline entry {number}")
        scenario.at(entry["time"], _event_from_json(entry["event"]))
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
        (``record(..., obs=...)`` / ``Scenario.run(trace=..., obs=...)``);
        replay ignores the channel, so a trace with spans still replays to
        the same fingerprint as one without.
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
    observability span into the trace as ``span`` records.  Returns the
    run's report and a reader over the finished trace.
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
    scenario ingredient is reconstructed from the declarative spec.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    return scenario_from_spec(reader.spec)
