"""Trace analytics: exact critical-path latency attribution and run-diff.

The span trees of :mod:`repro.obs` record *where time was spent*; this
module turns them into *answers*:

* :func:`attribute_calls` walks each client call's span tree and
  decomposes its simulated-time RTT **exactly** into named components —
  ``network`` (transit both ways), ``stall`` (§5.7 stall-queue wait on the
  server), ``core_wait`` (queueing for a bounded
  :class:`~repro.sim.servercore.ServerCore`), ``cpu`` (modeled service
  cost) and ``backoff`` (retry backoff plus failed-attempt gaps between
  attempts).  The per-call invariant is *zero residual*: the five
  components sum to the measured RTT to the nanosecond, by construction
  (see "The attribution algebra" below).  §5.7 rebind/refetch time is
  attributed per call too (``rebind_ns``) but reported separately — the
  fleet driver closes the call span *before* refetching stubs, so rebinds
  are client overhead between calls, not part of any call's RTT.
* :func:`build_profile` aggregates attributions into a
  :class:`LatencyProfile`: per-component p50/p95/p99 overall and grouped
  by service / version tier / protocol, plus a **tail attribution** view —
  the top-decile calls against the median cohort, ranked by which
  component grew.
* :func:`diff_profiles` compares two profiles (two runs, two commits, two
  configs) and attributes the RTT delta to components, naming the one that
  grew most (:func:`dominant_component`).
* :func:`load_spans` accepts every span source the repo produces: a live
  :class:`~repro.obs.api.Observability`, span JSONL exports,
  ``repro-trace/1`` recordings and flight-recorder dumps.

The attribution algebra
-----------------------

Float subtraction does not telescope: naively computing components as
differences of seconds and then asserting they re-sum to the RTT fails
under IEEE rounding.  Instead every absolute boundary timestamp is first
quantised to integer nanoseconds (``round(t * 1e9)``) and the components
are *telescoping differences of a clamped, monotone boundary chain* over
each attempt interval::

    b0 = attempt start          -> network (transit out)  = b1 - b0
    b1 = server span start      -> stall                  = b2 - b1
    b2 = server span end        -> core_wait              = b3 - b2
    b3 = cpu charge start       -> cpu                    = b4 - b3
    b4 = cpu charge end         -> network (transit back) = b5 - b4
    b5 = attempt end

Each boundary is clamped into ``[previous boundary, attempt end]``, so the
chain is monotone, every component is non-negative, and the attempt's
components sum to its duration *exactly*.  Per call, ``backoff`` is the
call duration minus the attempt durations (the gaps between attempts:
retry backoff timers and failed replica selections), again an exact
integer difference.  The CPU boundaries come from the transport layer's
``note_server_charge`` annotation (``cpu_from`` / ``cpu_until`` attrs on
the server span); spans from runs without the annotation degrade
gracefully — the time folds into ``network`` — and the invariant still
holds.

Everything here is pure post-processing: no scheduler, no simulation
state, deterministic output for deterministic input.  A CLI front-end
(``python -m repro.obs.analyze`` or ``python -m repro.obs``) exposes
``profile`` / ``diff`` / ``slo`` subcommands over the exported artifacts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.cluster.report import percentile

#: The components that sum exactly to each call's measured RTT.
RTT_COMPONENTS = ("network", "stall", "core_wait", "cpu", "backoff")
#: All reported components (``rebind`` is per-call but outside the RTT sum).
ALL_COMPONENTS = RTT_COMPONENTS + ("rebind",)

NANOS_PER_SECOND = 1_000_000_000


def _ns(seconds: float) -> int:
    """Quantise an absolute simulated timestamp to integer nanoseconds."""
    return round(seconds * 1e9)


# -- span loading --------------------------------------------------------------


def _span_like(obj: Any) -> "dict | None":
    """Return the span dict inside ``obj``, else None.

    Accepts the three on-disk shapes: a bare exported span object, a
    ``repro-trace/1`` record (``{"kind": "span", "span": {...}}``) and
    anything else (workload records, headers) which is skipped.
    """
    if not isinstance(obj, dict):
        return None
    if obj.get("kind") == "span" and isinstance(obj.get("span"), dict):
        return obj["span"]
    if "span_id" in obj and "trace_id" in obj:
        return obj
    return None


def load_spans(source: Any) -> list[dict]:
    """Normalise any span source into a list of span dicts.

    ``source`` may be a live :class:`~repro.obs.api.Observability` (or
    anything with a ``.spans`` list of :class:`~repro.obs.spans.Span`), an
    iterable of spans / span dicts, or a path to a span JSONL export, a
    ``repro-trace/1`` recording, or a flight-recorder dump.
    """
    if isinstance(source, (str, Path)):
        return _load_spans_file(Path(source))
    spans = getattr(source, "spans", None)
    if spans is not None and not isinstance(source, (list, tuple)):
        source = spans
    out: list[dict] = []
    for item in source:
        if hasattr(item, "to_dict"):
            out.append(item.to_dict())
        else:
            span = _span_like(item)
            if span is not None:
                out.append(span)
    return out


def _load_spans_file(path: Path) -> list[dict]:
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and "\n{" not in text.strip():
        # A single JSON object: a flight-recorder dump (closed spans plus
        # the still-open window) or a Chrome trace (not a span source).
        payload = json.loads(text)
        if "spans" in payload:
            return [
                span
                for span in payload.get("spans", [])
                if _span_like(span) is not None
            ]
        raise ValueError(f"{path} is not a span source (no 'spans' key)")
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        span = _span_like(json.loads(line))
        if span is not None:
            out.append(span)
    return out


# -- per-call attribution ------------------------------------------------------


class CallAttribution:
    """One client call's RTT decomposed into exact ns components."""

    __slots__ = (
        "trace_id",
        "client",
        "service",
        "protocol",
        "operation",
        "outcome",
        "tier",
        "attempts",
        "start",
        "end",
        "rtt_ns",
        "components",
        "rebind_ns",
    )

    def __init__(
        self,
        trace_id: int,
        client: str,
        service: str,
        protocol: str,
        operation: str,
        outcome: str,
        tier: "str | None",
        attempts: int,
        start: float,
        end: float,
        rtt_ns: int,
        components: dict[str, int],
        rebind_ns: int = 0,
    ) -> None:
        self.trace_id = trace_id
        self.client = client
        self.service = service
        self.protocol = protocol
        self.operation = operation
        self.outcome = outcome
        self.tier = tier
        self.attempts = attempts
        self.start = start
        self.end = end
        self.rtt_ns = rtt_ns
        self.components = components
        self.rebind_ns = rebind_ns

    @property
    def residual_ns(self) -> int:
        """RTT minus the component sum — zero by construction."""
        return self.rtt_ns - sum(self.components[name] for name in RTT_COMPONENTS)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "client": self.client,
            "service": self.service,
            "protocol": self.protocol,
            "operation": self.operation,
            "outcome": self.outcome,
            "tier": self.tier,
            "attempts": self.attempts,
            "start": self.start,
            "end": self.end,
            "rtt_ns": self.rtt_ns,
            "components_ns": dict(self.components),
            "rebind_ns": self.rebind_ns,
            "residual_ns": self.residual_ns,
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={self.components[name] / 1e6:.3f}ms" for name in RTT_COMPONENTS
        )
        return f"CallAttribution({self.client} {self.operation!r}: {parts})"


def _attempt_components(attempt: dict, servers: list[dict]) -> dict[str, int]:
    """Decompose one attempt interval via the clamped boundary chain."""
    a0 = _ns(attempt["start"])
    a1 = _ns(attempt["end"])
    server = None
    for candidate in servers:
        if candidate.get("end") is not None:
            server = candidate
            break
    if server is None:
        # The request never produced an observed server dispatch (the
        # replica crashed, the reply raced a timeout, the server span was
        # evicted): the whole interval is transit/loss time.
        return {
            "network": a1 - a0,
            "stall": 0,
            "core_wait": 0,
            "cpu": 0,
            "backoff": 0,
        }
    attrs = server.get("attrs", {})
    s_start = _ns(server["start"])
    s_end = _ns(server["end"])
    cpu_from = attrs.get("cpu_from")
    cpu_until = attrs.get("cpu_until")
    c_from = _ns(cpu_from) if isinstance(cpu_from, (int, float)) else s_end
    c_until = _ns(cpu_until) if isinstance(cpu_until, (int, float)) else s_end
    # The monotone, clamped boundary chain: every boundary is forced into
    # [previous boundary, attempt end], so the differences telescope to the
    # attempt duration exactly and never go negative.
    chain = [a0]
    for boundary in (s_start, s_end, c_from, c_until):
        chain.append(min(max(boundary, chain[-1]), a1))
    chain.append(a1)
    return {
        "network": (chain[1] - chain[0]) + (chain[5] - chain[4]),
        "stall": chain[2] - chain[1],
        "core_wait": chain[3] - chain[2],
        "cpu": chain[4] - chain[3],
        "backoff": 0,
    }


def attribute_calls(spans: Any) -> tuple[list[CallAttribution], int]:
    """Decompose every complete call tree; returns (attributions, dropped).

    ``dropped`` counts call trees that could not be attributed — a call
    span evicted from the bounded ring while its attempts survived, or a
    call still open when the run ended.  Rebind spans are paired with the
    stale-faulted call that triggered them (same client, started at the
    exact instant the call span closed).
    """
    spans = load_spans(spans)
    calls: list[dict] = []
    children: dict[int, list[dict]] = {}
    rebinds: list[dict] = []
    orphan_traces: set[int] = set()
    call_traces: set[int] = set()
    for span in spans:
        kind = span.get("kind")
        if kind == "call":
            if span.get("end") is not None:
                calls.append(span)
                call_traces.add(span["trace_id"])
            else:
                orphan_traces.add(span["trace_id"])
        elif kind in ("attempt", "server"):
            parent = span.get("parent_id")
            if parent is not None:
                children.setdefault(parent, []).append(span)
            orphan_traces.add(span["trace_id"])
        elif kind == "rebind" and span.get("end") is not None:
            rebinds.append(span)

    attributions: list[CallAttribution] = []
    by_client_end: dict[tuple[str, int], CallAttribution] = {}
    for call in sorted(calls, key=lambda s: s["span_id"]):
        c0 = _ns(call["start"])
        c1 = _ns(call["end"])
        attrs = call.get("attrs", {})
        components = {name: 0 for name in RTT_COMPONENTS}
        attempts = sorted(
            (
                span
                for span in children.get(call["span_id"], [])
                if span.get("kind") == "attempt" and span.get("end") is not None
            ),
            key=lambda s: s["span_id"],
        )
        tier = None
        attempt_total = 0
        cursor = c0
        for attempt in attempts:
            servers = sorted(
                (
                    span
                    for span in children.get(attempt["span_id"], [])
                    if span.get("kind") == "server"
                ),
                key=lambda s: s["span_id"],
            )
            parts = _attempt_components(attempt, servers)
            # Clamp the attempt into the call window and behind its
            # predecessor so attempt durations telescope within the call.
            a0 = min(max(_ns(attempt["start"]), cursor), c1)
            a1 = min(max(_ns(attempt["end"]), a0), c1)
            cursor = a1
            duration = a1 - a0
            attempt_total += duration
            # The attempt's own chain summed to its unclamped duration; a
            # clamped attempt (a timeout racing the call close) keeps the
            # proportions but must re-telescope, so scale the excess off
            # the network share (the residual-absorbing component).
            excess = sum(parts.values()) - duration
            parts["network"] -= excess
            for name in RTT_COMPONENTS:
                components[name] += parts[name]
            attempt_tier = attempt.get("attrs", {}).get("tier")
            if attempt_tier is not None:
                tier = attempt_tier
        rtt_ns = c1 - c0
        components["backoff"] = rtt_ns - attempt_total
        attribution = CallAttribution(
            trace_id=call["trace_id"],
            client=attrs.get("client", ""),
            service=attrs.get("service", ""),
            protocol=attrs.get("protocol", ""),
            operation=call.get("name", ""),
            outcome=attrs.get("outcome", ""),
            tier=tier,
            attempts=len(attempts),
            start=call["start"],
            end=call["end"],
            rtt_ns=rtt_ns,
            components=components,
        )
        attributions.append(attribution)
        by_client_end[(attribution.client, c1)] = attribution

    for rebind in rebinds:
        key = (rebind.get("attrs", {}).get("client", ""), _ns(rebind["start"]))
        owner = by_client_end.get(key)
        if owner is not None:
            owner.rebind_ns += _ns(rebind["end"]) - _ns(rebind["start"])

    dropped = len(orphan_traces - call_traces)
    return attributions, dropped


# -- profiles ------------------------------------------------------------------


def _stats(values_ns: list[int], rtt_total_ns: int = 0) -> dict[str, Any]:
    """Count/mean/percentiles of one component sample, in seconds."""
    ordered = sorted(values_ns)
    total = sum(ordered)
    count = len(ordered)
    stats = {
        "count": count,
        "total_s": total / 1e9,
        "mean_s": (total / count) / 1e9 if count else 0.0,
        "p50_s": percentile(ordered, 50.0) / 1e9,
        "p95_s": percentile(ordered, 95.0) / 1e9,
        "p99_s": percentile(ordered, 99.0) / 1e9,
        "max_s": (ordered[-1] / 1e9) if ordered else 0.0,
    }
    if rtt_total_ns:
        stats["share"] = round(total / rtt_total_ns, 6)
    return stats


def _component_table(attributions: list[CallAttribution]) -> dict[str, dict]:
    rtt_total = sum(a.rtt_ns for a in attributions)
    table = {
        name: _stats([a.components[name] for a in attributions], rtt_total)
        for name in RTT_COMPONENTS
    }
    table["rebind"] = _stats([a.rebind_ns for a in attributions])
    table["rtt"] = _stats([a.rtt_ns for a in attributions])
    return table


def _tail_view(attributions: list[CallAttribution]) -> dict[str, Any]:
    """Top-decile calls vs the median cohort, ranked by component growth."""
    if not attributions:
        return {"tail_calls": 0, "median_calls": 0, "ranked": []}
    ordered = sorted(attributions, key=lambda a: (a.rtt_ns, a.trace_id))
    n = len(ordered)
    tail = ordered[max(0, n - max(1, n // 10)):]
    mid_lo = (n * 2) // 5
    mid_hi = max(mid_lo + 1, (n * 3) // 5)
    median = ordered[mid_lo:mid_hi]

    def mean(group: list[CallAttribution], name: str) -> float:
        return sum(a.components[name] for a in group) / len(group) / 1e9

    ranked = sorted(
        (
            {
                "component": name,
                "tail_mean_s": mean(tail, name),
                "median_mean_s": mean(median, name),
                "growth_s": mean(tail, name) - mean(median, name),
            }
            for name in RTT_COMPONENTS
        ),
        key=lambda row: (-row["growth_s"], row["component"]),
    )
    return {"tail_calls": len(tail), "median_calls": len(median), "ranked": ranked}


class LatencyProfile:
    """Aggregated attribution: where a run's latency went, and for whom."""

    def __init__(self, attributions: list[CallAttribution], dropped: int = 0) -> None:
        self.attributions = attributions
        self.dropped = dropped
        self.overall = _component_table(attributions)
        self.by_service = self._grouped(lambda a: a.service)
        self.by_tier = self._grouped(lambda a: a.tier or "direct")
        self.by_protocol = self._grouped(lambda a: a.protocol)
        self.tail = _tail_view(attributions)

    def _grouped(self, key) -> dict[str, dict]:
        groups: dict[str, list[CallAttribution]] = {}
        for attribution in self.attributions:
            groups.setdefault(key(attribution), []).append(attribution)
        return {name: _component_table(groups[name]) for name in sorted(groups)}

    @property
    def call_count(self) -> int:
        """Calls attributed into this profile."""
        return len(self.attributions)

    @property
    def max_residual_ns(self) -> int:
        """Worst |RTT − Σ components| over every call — zero by construction."""
        return max((abs(a.residual_ns) for a in self.attributions), default=0)

    def component_means(self) -> dict[str, float]:
        """Compact per-component mean seconds — the bench ``obs_profile`` blob."""
        means = {
            name: round(self.overall[name]["mean_s"], 9) for name in ALL_COMPONENTS
        }
        means["rtt"] = round(self.overall["rtt"]["mean_s"], 9)
        return means

    def to_dict(self) -> dict[str, Any]:
        return {
            "calls": self.call_count,
            "dropped": self.dropped,
            "max_residual_ns": self.max_residual_ns,
            "overall": self.overall,
            "by_service": self.by_service,
            "by_tier": self.by_tier,
            "by_protocol": self.by_protocol,
            "tail": self.tail,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical profile rendering (determinism asserts)."""
        digest = hashlib.sha256()
        digest.update(json.dumps(self.to_dict(), sort_keys=True).encode())
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (
            f"LatencyProfile(calls={self.call_count}, dropped={self.dropped}, "
            f"services={sorted(self.by_service)})"
        )


def build_profile(source: Any) -> LatencyProfile:
    """Attribute every complete call in ``source`` and aggregate."""
    attributions, dropped = attribute_calls(source)
    return LatencyProfile(attributions, dropped)


def format_profile(profile: LatencyProfile) -> str:
    """Human-readable profile rendering (the CLI's default output)."""
    lines = [
        f"calls attributed: {profile.call_count} "
        f"(dropped {profile.dropped} incomplete trees, "
        f"max residual {profile.max_residual_ns} ns)"
    ]
    lines.append("component      mean        p50        p95        p99      share")
    for name in ALL_COMPONENTS + ("rtt",):
        stats = profile.overall[name]
        share = stats.get("share")
        lines.append(
            f"  {name:<11} {stats['mean_s'] * 1e3:8.3f}ms "
            f"{stats['p50_s'] * 1e3:8.3f}ms {stats['p95_s'] * 1e3:8.3f}ms "
            f"{stats['p99_s'] * 1e3:8.3f}ms"
            + (f"   {share * 100:5.1f}%" if share is not None else "")
        )
    tail = profile.tail
    if tail["ranked"]:
        top = tail["ranked"][0]
        lines.append(
            f"tail attribution (top {tail['tail_calls']} calls vs median "
            f"{tail['median_calls']}): "
            + ", ".join(
                f"{row['component']} {row['growth_s'] * 1e3:+.3f}ms"
                for row in tail["ranked"]
                if row["growth_s"] != 0.0
            )
        )
        lines.append(
            f"dominant tail component: {top['component']} "
            f"(+{top['growth_s'] * 1e3:.3f}ms over the median cohort)"
        )
    return "\n".join(lines)


# -- run-diff ------------------------------------------------------------------


def dominant_component(
    before: "Mapping[str, Any] | None", now: "Mapping[str, Any] | None"
) -> "tuple[str, float, float] | None":
    """The component whose mean grew most between two ``component_means``.

    Returns ``(name, before_mean_s, now_mean_s)``, or None when either blob
    is missing or nothing regressed.  :class:`ProfileDiff` uses it to name
    its dominant component.
    """
    if not isinstance(before, Mapping) or not isinstance(now, Mapping):
        return None
    deltas = {}
    for name in RTT_COMPONENTS + ("rebind",):
        a, b = before.get(name), now.get(name)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            deltas[name] = b - a
    if not deltas:
        return None
    worst = max(sorted(deltas), key=lambda name: deltas[name])
    if deltas[worst] <= 0:
        return None
    return worst, float(before[worst]), float(now[worst])


class ProfileDiff:
    """Component-attributed delta between two profiles."""

    def __init__(self, before: LatencyProfile, after: LatencyProfile) -> None:
        self.before = before
        self.after = after
        self.components: dict[str, dict[str, float]] = {}
        for name in ALL_COMPONENTS + ("rtt",):
            b, a = before.overall[name], after.overall[name]
            self.components[name] = {
                "before_mean_s": b["mean_s"],
                "after_mean_s": a["mean_s"],
                "delta_mean_s": a["mean_s"] - b["mean_s"],
                "before_p99_s": b["p99_s"],
                "after_p99_s": a["p99_s"],
                "delta_p99_s": a["p99_s"] - b["p99_s"],
            }
        dominant = dominant_component(
            before.component_means(), after.component_means()
        )
        self.dominant: "str | None" = dominant[0] if dominant else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "before_calls": self.before.call_count,
            "after_calls": self.after.call_count,
            "dominant_component": self.dominant,
            "components": self.components,
        }

    def __repr__(self) -> str:
        return f"ProfileDiff(dominant={self.dominant!r})"


def diff_profiles(before: Any, after: Any) -> ProfileDiff:
    """Diff two profiles (or anything :func:`load_spans` accepts)."""
    if not isinstance(before, LatencyProfile):
        before = build_profile(before)
    if not isinstance(after, LatencyProfile):
        after = build_profile(after)
    return ProfileDiff(before, after)


def format_diff(diff: ProfileDiff) -> str:
    lines = [
        f"calls: {diff.before.call_count} -> {diff.after.call_count}",
        "component      mean before   mean after        delta   p99 delta",
    ]
    for name in ALL_COMPONENTS + ("rtt",):
        row = diff.components[name]
        lines.append(
            f"  {name:<11} {row['before_mean_s'] * 1e3:10.3f}ms "
            f"{row['after_mean_s'] * 1e3:10.3f}ms "
            f"{row['delta_mean_s'] * 1e3:+10.3f}ms "
            f"{row['delta_p99_s'] * 1e3:+9.3f}ms"
        )
    if diff.dominant is not None:
        lines.append(f"dominant regressed component: {diff.dominant}")
    else:
        lines.append("no component regressed")
    return "\n".join(lines)


# -- CLI -----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro.obs.analyze`` — profile / diff / slo subcommands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Trace analytics over repro.obs artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser(
        "profile", help="attribute latency components from a span source"
    )
    p_profile.add_argument("source", help="span JSONL / trace JSONL / flight dump")
    p_profile.add_argument("--json", dest="json_out", help="also write the profile JSON")

    p_diff = sub.add_parser("diff", help="attribute the delta between two runs")
    p_diff.add_argument("sources", nargs=2, help="two span sources (before, after)")
    p_diff.add_argument("--json", dest="json_out", help="also write the diff JSON")

    p_slo = sub.add_parser(
        "slo", help="re-evaluate embedded SLOs from an exported metrics JSON"
    )
    p_slo.add_argument("metrics", help="metrics JSON written by export_metrics")
    p_slo.add_argument("--json", dest="json_out", help="also write the results JSON")
    p_slo.add_argument(
        "--check", action="store_true", help="exit nonzero when any SLO is breached"
    )

    args = parser.parse_args(argv)

    if args.command == "profile":
        profile = build_profile(args.source)
        print(format_profile(profile))
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps(profile.to_dict(), indent=2) + "\n"
            )
            print(f"wrote {args.json_out}")
        return 0

    if args.command == "diff":
        diff = diff_profiles(args.sources[0], args.sources[1])
        print(format_diff(diff))
        if args.json_out:
            Path(args.json_out).write_text(json.dumps(diff.to_dict(), indent=2) + "\n")
            print(f"wrote {args.json_out}")
        return 0

    if args.command == "slo":
        from repro.obs.metrics import MetricsReport
        from repro.obs.slo import SLO, evaluate_slos, format_results

        payload = json.loads(Path(args.metrics).read_text())
        slos = [SLO.from_dict(spec) for spec in payload.get("slos", [])]
        if not slos:
            print(
                f"{args.metrics} embeds no SLO declarations "
                "(run with ObsConfig(slos=...) before exporting)"
            )
            return 0 if not args.check else 2
        report = MetricsReport(
            interval=payload["interval"],
            times=tuple(payload["times"]),
            series={
                name: tuple(values) for name, values in payload["series"].items()
            },
        )
        results = evaluate_slos(report, slos)
        print(format_results(results))
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps([result.to_dict() for result in results], indent=2) + "\n"
            )
            print(f"wrote {args.json_out}")
        if args.check and any(result.breached for result in results):
            return 1
        return 0

    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    import sys

    sys.exit(main(sys.argv[1:]))
