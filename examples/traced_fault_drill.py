"""A traced fault drill: causal spans and metrics out of a faulted run.

The same crash + partition drill as :mod:`examples/crash_during_publish`,
but run with the observability layer on (``scenario.run(obs=...)``).  One
flag buys three artifacts:

* **a causal span tree per client call** — the call span, each retry
  attempt with the registry's routing decision (replica, node, version
  tier), the server-side dispatch joined across the wire via the
  in-band trace context (a SOAP header block / GIOP service-context slot),
  and instants for every injected fault and rollout wave;
* **time-series metrics** sampled on the simulated clock — per-node core
  occupancy and stall queues, per-service in-flight calls and recency
  watermark age — attached to ``report.metrics``;
* **exports**: a JSONL span log, a metrics JSON, and a Chrome
  ``trace_event`` file — open ``traced_fault_drill.perfetto.json`` at
  https://ui.perfetto.dev to scrub through the drill on the simulated
  timeline.

On top, the analytics layer answers "explain my p99": the latency profile
decomposes every call's RTT exactly into network / §5.7 stall / core
queue / CPU / retry-backoff components (they sum to the measured RTT with
zero residual — asserted below), shows which component grew in the
top-decile calls, and the declared SLOs (latency, availability, §6
recency) are evaluated with burn-rate alerts onto ``report.slo_results``.

Everything is deterministic: span ids come from sequence counters and
timestamps from virtual time, so two runs of this script produce
byte-identical fingerprints (asserted at the end).

Run with:  python examples/traced_fault_drill.py [output-dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import RetryPolicy, STRING, Scenario, crash, heal, op, partition, restart
from repro.core.sde import SDEConfig
from repro.evolve import rolling, upgrade
from repro.obs import ObsConfig, Observability
from repro.obs.analyze import format_profile
from repro.obs.slo import availability_slo, latency_slo, recency_slo
from repro.obs.slo import format_results

CLIENTS = 24


def build_world() -> Scenario:
    echo = op("echo", (("message", STRING),), STRING, body=lambda _self, m: m)
    echo_loud = op("echo_loud", (("m", STRING),), STRING, body=lambda _s, m: m.upper())
    return (
        Scenario(name="traced-fault-drill", sde_config=SDEConfig(generation_cost=0.02))
        .servers(2)
        .service("Echo", [echo], replicas=2)
        .clients(
            CLIENTS,
            service="Echo",
            calls=6,
            arguments=("hello",),
            think_time=0.01,
            arrival=0.001,
            retry=RetryPolicy(max_attempts=4, timeout=0.08, backoff=0.005),
        )
        .at(0.020, crash("server-1"))
        .at(0.030, partition("server-2"))
        .at(0.040, rolling("Echo", upgrade(add=[echo_loud]), batch_size=1, drain=0.01))
        .at(0.070, heal("server-2"))
        .at(0.080, restart("server-1"))
        .slo(
            latency_slo("echo-latency", threshold_s=0.05, objective=0.9),
            availability_slo("echo-availability", objective=0.999),
            recency_slo("echo-recency"),
        )
    )


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    obs = Observability(ObsConfig(dump_dir=out_dir))
    report = build_world().run(obs=obs)

    print(f"fleet: {len(report.clients)} clients over {len(report.nodes)} servers")
    outcomes = report.outcomes("all")
    print(
        f"calls: {outcomes.calls} ({outcomes.successes} ok), "
        f"{outcomes.retried_calls} retried across the crash + partition"
    )

    spans = obs.spans
    by_kind: dict[str, int] = {}
    for span in spans:
        by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
    print(
        f"spans: {obs.tracer.finished_count} finished "
        f"({', '.join(f'{k}={v}' for k, v in sorted(by_kind.items()))})"
    )
    servers = [span for span in spans if span.kind == "server"]
    print(
        f"causality: {len(servers)} server spans joined to client traces "
        "via the in-band wire context"
    )
    metrics = report.metrics
    print(
        f"metrics: {len(metrics.series)} series × {len(metrics.times)} samples "
        f"every {metrics.interval * 1e3:.0f} simulated ms"
    )

    # "Explain my p99": decompose every call's RTT into exact components.
    profile = obs.profile()
    print()
    print("latency attribution (where the simulated time went):")
    print(format_profile(profile))
    print()
    print("SLO verdicts:")
    print(format_results(report.slo_results))
    print()

    jsonl = obs.export_jsonl(out_dir / "traced_fault_drill.spans.jsonl")
    chrome = obs.export_chrome(out_dir / "traced_fault_drill.perfetto.json")
    metrics_path = obs.export_metrics(out_dir / "traced_fault_drill.metrics.json")
    profile_path = obs.export_profile(out_dir / "traced_fault_drill.profile.json")
    print(f"exported: {jsonl}")
    print(f"exported: {chrome}   <- load this at https://ui.perfetto.dev")
    print(f"exported: {metrics_path}")
    print(f"exported: {profile_path}")

    assert outcomes.successes == outcomes.calls
    assert outcomes.recency_violations == 0, "§6 must hold across the drill"
    assert servers and all(span.parent_id is not None for span in servers)
    assert profile.max_residual_ns == 0, "components must sum exactly to each RTT"
    assert all(result.ok for result in report.slo_results if result.name != "echo-latency")

    rerun_obs = Observability()
    build_world().run(obs=rerun_obs)
    assert rerun_obs.span_fingerprint() == obs.span_fingerprint()
    print("determinism: two traced drills produced identical span fingerprints ✓")


if __name__ == "__main__":
    main()
