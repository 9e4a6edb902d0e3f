"""Span and metrics exporters: JSONL and Chrome ``trace_event`` JSON.

Two span formats:

* :func:`export_spans_jsonl` — one JSON object per line, mirroring the
  ``repro-trace/1`` channel that :mod:`repro.traffic.trace` embeds, easy
  to grep and to post-process;
* :func:`export_chrome_trace` — the Chrome ``trace_event`` array format
  (``ph: "X"`` complete events for timed spans, ``ph: "i"`` instants for
  zero-duration marks), loadable directly in Perfetto / ``chrome://tracing``.
  Simulated seconds become microseconds; each span's track (``tid``) is
  its node attribute when present, else its kind, so server work groups by
  node and client work by phase.

:func:`export_metrics_json` writes a :class:`~repro.obs.metrics
.MetricsReport` with its fingerprint, the artifact CI uploads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import MetricsReport
from repro.obs.slo import SLO_RECORDS
from repro.obs.spans import KIND_INSTANT, Span


def export_spans_jsonl(spans: Iterable[Span], path: "str | Path") -> Path:
    """Write one JSON object per span; returns the path written."""
    path = Path(path)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), default=repr) + "\n")
    return path


def chrome_trace_events(spans: Iterable[Span]) -> list[dict]:
    """Render spans as Chrome ``trace_event`` dicts (no file I/O)."""
    events = []
    for span in spans:
        tid = span.attrs.get("node") or span.kind
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update({key: repr(value) for key, value in sorted(span.attrs.items())})
        end = span.end if span.end is not None else span.start
        if span.kind == KIND_INSTANT or end == span.start:
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "i",
                    "s": "g",
                    "ts": span.start * 1e6,
                    "pid": 1,
                    "tid": str(tid),
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": 1,
                    "tid": str(tid),
                    "args": args,
                }
            )
        for time, name, attrs in span.events:
            events.append(
                {
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": time * 1e6,
                    "pid": 1,
                    "tid": str(tid),
                    "args": {
                        "span_id": span.span_id,
                        **{key: repr(value) for key, value in sorted(attrs.items())},
                    },
                }
            )
    return events


def export_chrome_trace(spans: Iterable[Span], path: "str | Path") -> Path:
    """Write a Perfetto-loadable ``trace_event`` JSON file."""
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def export_metrics_json(
    report: MetricsReport, path: "str | Path", slos: Iterable = ()
) -> Path:
    """Write a metrics report (series + fingerprint) as JSON.

    Declared :class:`~repro.obs.slo.SLO` objectives are embedded under a
    ``"slos"`` key so ``python -m repro.obs.analyze slo`` can re-evaluate
    compliance and burn rates offline from this one artifact.
    """
    path = Path(path)
    payload = report.to_dict()
    slo_specs = SLO_RECORDS.write(list(slos))
    if slo_specs:
        payload["slos"] = slo_specs
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
