"""Seeded scenario fuzzing: random worlds × traffic × faults × rollouts.

The generator draws a *case* — a small JSON-able dict describing a world
(servers, cores, replica counts), a traffic shape (one of the seeded
:mod:`repro.traffic.arrivals` processes or plain spacing), a fault
schedule (crash/restart, partition/heal) and an optional breaking rollout
plan — builds the Scenario, runs it **while recording a trace**, and
asserts the reproduction's load-bearing invariants:

* **§6 recency** — ``report.outcomes("all").recency_violations == 0``: no client
  ever observes an interface version older than one it already saw,
  across stale faults, failover and mid-run rollouts.
* **No silent wrong answers** — the only faults clients see are the §5.7
  stale faults (the *visible* signal) and transport-level abandons after
  the retry budget; ``other_faults`` / ``not_initialized_faults`` stay 0.
* **Call conservation** — every planned call ends as exactly one of
  completed-with-outcome or abandoned; none vanish.
* **Deterministic replay** — ``replay(trace)`` rebuilt from the recorded
  spec reruns to a byte-identical ``ClusterReport.fingerprint()``.

Failures are minimised by Hypothesis's shrinker and the shrunken case's
trace is left at ``$REPRO_FUZZ_ARTIFACTS/minimized-failure.jsonl`` (the
CI fuzz job uploads it), so any red run ships a replayable reproduction.
The failing case is then re-run with :mod:`repro.obs` armed, leaving its
span log (``minimized-failure.spans.jsonl``) and any flight-recorder
``flight-*.json`` dumps beside the trace — the causal post-mortem, not
just the reproduction::

    python -m pytest tests/traffic/test_fuzz.py --hypothesis-seed=0

Everything is derandomised by default: the same seed explores the same
~25 worlds in the same order on every machine.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.cluster.cohort import CohortModel
from repro.cluster.scenario import Scenario, op
from repro.core.sde import SDEConfig
from repro.evolve import canary, rolling, upgrade
from repro.faults import RetryPolicy, crash, heal, partition, restart
from repro.rmitypes import STRING
from repro.traffic.arrivals import (
    ClientChurn,
    Diurnal,
    FlashCrowd,
    ParetoHeavyTail,
    Poisson,
)
from repro.traffic.trace import TraceReader, echo_body, record, replay

#: Where a failing (shrunken) case's trace is copied for post-mortem replay.
ARTIFACTS_ENV = "REPRO_FUZZ_ARTIFACTS"
MINIMIZED_TRACE_NAME = "minimized-failure.jsonl"
#: Span log of the failing case's diagnostic re-run (observability on).
MINIMIZED_SPANS_NAME = "minimized-failure.spans.jsonl"
#: Latency-attribution profile of the diagnostic re-run (where the failing
#: case's simulated time went, per component/service/tier).
MINIMIZED_PROFILE_NAME = "minimized-failure.profile.json"


# -- the case space ------------------------------------------------------------

#: Traffic shapes by name; every shape keeps the whole fleet inside a
#: ~0.5-virtual-second arrival window so fuzz runs stay bounded.
_ARRIVALS = {
    "spacing": lambda seed: 0.0005,
    "poisson": lambda seed: Poisson(rate=250.0, seed=seed),
    "pareto": lambda seed: ParetoHeavyTail(alpha=1.8, scale=0.002, seed=seed),
    "diurnal": lambda seed: Diurnal(curve=(1.0, 3.0, 1.0, 2.0), period=0.2, seed=seed),
    "flash_crowd": lambda seed: FlashCrowd(
        at=0.03, magnitude=3.0, decay=0.01, rate=200.0, seed=seed
    ),
    "churn": lambda seed: ClientChurn(join_rate=300.0, leave_rate=150.0, seed=seed),
}


def case_strategy():
    """A Hypothesis strategy over fuzz cases (plain JSON-able dicts)."""
    from hypothesis import strategies as st

    grid_time = st.sampled_from([0.01, 0.02, 0.03, 0.04, 0.05])
    return st.fixed_dictionaries(
        {
            "servers": st.integers(min_value=2, max_value=3),
            "cores": st.sampled_from([None, 1, 2]),
            "soap_replicas": st.integers(min_value=1, max_value=3),
            "corba_replicas": st.integers(min_value=1, max_value=3),
            "clients": st.integers(min_value=6, max_value=20),
            "calls": st.integers(min_value=1, max_value=3),
            "soap_weight": st.sampled_from([0.25, 0.5, 0.75]),
            "think_time": st.sampled_from([0.0, 0.01]),
            "arrival": st.sampled_from(sorted(_ARRIVALS)),
            "arrival_seed": st.integers(min_value=0, max_value=3),
            "stale_every": st.sampled_from([None, 3]),
            "max_attempts": st.integers(min_value=2, max_value=4),
            "cohort": st.booleans(),
            "fault_crash": st.booleans(),
            "fault_partition": st.booleans(),
            "crash_at": grid_time,
            "partition_at": grid_time,
            "rollout": st.sampled_from([None, "rolling", "canary"]),
            "rollout_at": st.sampled_from([0.03, 0.05, 0.08]),
        }
    )


def build_scenario(case: Mapping[str, Any]) -> Scenario:
    """Materialise one drawn case as a runnable (and traceable) Scenario."""
    echo = op("echo", (("message", STRING),), STRING, body=echo_body)
    arrival = _ARRIVALS[case["arrival"]](case["arrival_seed"])
    retry = RetryPolicy(max_attempts=case["max_attempts"], timeout=0.08, backoff=0.005)
    count = case["clients"]
    cohort = None
    if case["cohort"]:
        # Lift the drawn fleet to cohort scale: the drawn clients stay
        # discrete representatives, four times their number rides as flows.
        cohort = CohortModel(representatives=count)
        count = count * 5
    scenario = (
        Scenario(
            name=f"fuzz-{case['arrival']}",
            sde_config=SDEConfig(generation_cost=0.02),
        )
        .servers(case["servers"], cores=case["cores"])
        .service("EchoSoap", [echo], technology="soap", replicas=case["soap_replicas"])
        .service(
            "EchoCorba", [echo], technology="corba", replicas=case["corba_replicas"]
        )
        .clients(
            count,
            protocol_mix={
                "soap": case["soap_weight"],
                "corba": round(1.0 - case["soap_weight"], 2),
            },
            calls=case["calls"],
            operation="echo",
            arguments=("hello fuzz",),
            think_time=case["think_time"],
            arrival=arrival,
            stale_every=case["stale_every"],
            retry=retry,
            cohort=cohort,
        )
    )
    if case["fault_crash"]:
        scenario.at(case["crash_at"], crash("server-1"))
        scenario.at(case["crash_at"] + 0.06, restart("server-1"))
    if case["fault_partition"]:
        victim = f"server-{case['servers']}"
        scenario.at(case["partition_at"], partition(victim))
        scenario.at(case["partition_at"] + 0.05, heal(victim))
    if case["rollout"] is not None:
        echo_v2 = op("echo_v2", (("message", STRING),), STRING, body=echo_body)
        change = upgrade(add=[echo_v2], remove=["echo"], successors={"echo": "echo_v2"})
        plan = (
            rolling("EchoSoap", change, batch_size=1, drain=0.005)
            if case["rollout"] == "rolling"
            else canary("EchoSoap", change, fraction=0.5, promote_after=0.02)
        )
        scenario.at(case["rollout_at"], plan)
    return scenario


# -- the invariants ------------------------------------------------------------


def check_report(case: Mapping[str, Any], report) -> list[str]:
    """The §6 / no-silent-wrong-answer / conservation invariants."""
    violations: list[str] = []
    recency_violations = report.outcomes("all").recency_violations
    if recency_violations != 0:
        violations.append(
            f"§6 recency violated: {recency_violations} observations "
            "of an interface version older than one already seen"
        )
    for client in report.clients:
        if client.other_faults:
            violations.append(
                f"{client.name}: {client.other_faults} unclassified faults "
                "(silent wrong answers / protocol errors)"
            )
        if client.not_initialized_faults:
            violations.append(
                f"{client.name}: {client.not_initialized_faults} "
                "server-not-initialized faults"
            )
        if client.calls != len(client.rtts):
            violations.append(
                f"{client.name}: {client.calls} classified outcomes for "
                f"{len(client.rtts)} recorded RTTs"
            )
        if client.issued != case["calls"]:
            violations.append(
                f"{client.name}: {client.calls} completed + "
                f"{client.abandoned_calls} abandoned != {case['calls']} planned calls"
            )
    return violations


def run_case(case: Mapping[str, Any], artifacts: str | Path | None = None) -> None:
    """Record one case, check every invariant, verify byte-exact replay.

    On violation the trace is copied to the artifacts directory (argument,
    ``$REPRO_FUZZ_ARTIFACTS``, or ``./fuzz-artifacts``) and an
    ``AssertionError`` is raised — under Hypothesis the shrinker then
    minimises the case, so the trace left behind reproduces the *smallest*
    failing world.
    """
    workdir = Path(tempfile.mkdtemp(prefix="repro-fuzz-"))
    trace_path = workdir / "trace.jsonl"
    try:
        report, reader = record(build_scenario(case), trace_path)
        violations = check_report(case, report)
        replayed = replay(reader).run(until=reader.until)
        if replayed.fingerprint() != report.fingerprint():
            violations.append(
                "deterministic replay violated: replayed fingerprint diverges "
                "from the recorded run"
            )
        if violations:
            kept = _keep_artifact(trace_path, artifacts)
            _keep_flight_recording(case, kept.parent)
            raise AssertionError(
                "fuzz case violated invariants:\n- "
                + "\n- ".join(violations)
                + f"\ncase: {dict(case)}\nreplayable trace: {kept}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _keep_artifact(trace_path: Path, artifacts: str | Path | None) -> Path:
    directory = Path(
        artifacts
        if artifacts is not None
        else os.environ.get(ARTIFACTS_ENV, "fuzz-artifacts")
    )
    directory.mkdir(parents=True, exist_ok=True)
    destination = directory / MINIMIZED_TRACE_NAME
    shutil.copyfile(trace_path, destination)
    return destination


def _keep_flight_recording(case: Mapping[str, Any], directory: Path) -> None:
    """Re-run the failing case with the flight recorder armed.

    The minimized trace alone replays the failure; this diagnostic re-run
    adds the *causal* picture to the same artifacts directory — the full
    span log (``minimized-failure.spans.jsonl``), a latency-attribution
    profile of the failing run (``minimized-failure.profile.json``, where
    each call's simulated time went by component), plus any
    ``flight-*.json`` dumps the invariant trips produced (a §6 recency
    violation or a silent wrong answer trips the recorder at the exact
    violating call, naming its client, replica and version tier).  Purely
    best-effort: a diagnostics crash must never mask the primary failure.
    """
    from repro.obs import ObsConfig, Observability

    obs = Observability(ObsConfig(dump_dir=directory))
    try:
        build_scenario(case).run(obs=obs)
        obs.export_jsonl(directory / MINIMIZED_SPANS_NAME)
        obs.export_profile(directory / MINIMIZED_PROFILE_NAME)
    except Exception:  # pragma: no cover - diagnostics are best-effort
        return


# -- the driver ----------------------------------------------------------------


def fuzz(
    max_examples: int = 25,
    artifacts: str | Path | None = None,
    derandomize: bool = True,
) -> None:
    """Explore ``max_examples`` random worlds; raise on the first violation.

    Derandomised by default, so every machine walks the same case
    sequence.  This is what the CI fuzz job runs (via the pytest wrapper
    in ``tests/traffic/test_fuzz.py``); it is also directly callable::

        python -c "from repro.traffic.fuzz import fuzz; fuzz()"
    """
    from hypothesis import HealthCheck, given, settings

    @settings(
        max_examples=max_examples,
        derandomize=derandomize,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=case_strategy())
    def explore(case: Mapping[str, Any]) -> None:
        run_case(case, artifacts=artifacts)

    explore()


def replay_artifact(path: str | Path):
    """Re-run a failure trace left by the fuzzer; returns its ClusterReport."""
    reader = TraceReader(path)
    return replay(reader).run(until=reader.until)
