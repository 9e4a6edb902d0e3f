"""``repro.cluster`` — the declarative, protocol-agnostic Scenario API.

One composable front door for N-server × M-client simulated worlds: a
:class:`Scenario` describes machines, replicated services routed
round-robin, client fleets with protocol mixes, and a timeline of developer
actions; ``run()`` drives it deterministically and returns a
:class:`ClusterReport` with unified per-service / per-client RTT,
stall-queue and publication metrics.

Layering (see ARCHITECTURE.md "Scenario API"):

* :mod:`repro.cluster.topology` — :class:`ClusterWorld` /
  :class:`ServerNode`: generalised host creation (any number of SDE server
  machines and client machines on one scheduler/network);
* :mod:`repro.cluster.registry` — :class:`ServiceRegistry` and
  round-robin replica selection;
* :mod:`repro.cluster.protocols` — pluggable client-side protocol stacks
  (SOAP, CORBA, and each scenario's third technologies);
* :mod:`repro.cluster.driver` — the deterministic callback-driven fleet
  driver;
* :mod:`repro.cluster.cohort` — million-client scale: cohort/flow-level
  aggregation of the modeled client mass (:class:`CohortModel` /
  :class:`CohortFlow`) over the same replica rotation and server cores;
* :mod:`repro.cluster.histogram` — the streaming fixed-bin
  :class:`LatencyHistogram` behind cohort RTT accounting;
* :mod:`repro.cluster.report` — the unified result objects;
* :mod:`repro.cluster.scenario` — the :class:`Scenario` builder plus the
  ``op`` helper and the ``edit`` / ``publish`` / ``churn`` timeline actions.

The fault-injection subsystem (:mod:`repro.faults`) plugs in underneath:
its timeline actions (``crash`` / ``restart`` / ``partition`` / ``heal`` /
``drop_link`` / ``restore_link``) and the client-side
:class:`~repro.faults.RetryPolicy` are re-exported here so resilience
scenarios read as one vocabulary (see ARCHITECTURE.md "Fault model").

Likewise the interface-evolution subsystem (:mod:`repro.evolve`): its
rollout timeline actions (``rolling`` / ``canary`` / ``abort_rollout``)
and the ``upgrade`` helper are re-exported, and every
:class:`~repro.cluster.registry.ServiceEntry` carries the subsystem's
version-aware routing switches (see
ARCHITECTURE.md "Interface evolution").
"""

from repro.cluster.cohort import CohortFlow, CohortModel
from repro.cluster.driver import ClientPlan, FleetDriver
from repro.cluster.histogram import LatencyHistogram
from repro.cluster.protocols import (
    CorbaProtocolClient,
    ProtocolClient,
    SoapProtocolClient,
)
from repro.cluster.registry import Replica, ServiceEntry, ServiceRegistry
from repro.cluster.presets import fault_drill_scenario
from repro.cluster.report import (
    ClientReport,
    ClusterReport,
    CohortReport,
    NodeReport,
    ReplicaReport,
    ServiceReport,
)
from repro.cluster.scenario import (
    OperationSpec,
    Scenario,
    ScenarioRuntime,
    churn,
    edit,
    op,
    publish,
)
from repro.cluster.topology import ClusterWorld, ServerNode
from repro.evolve import (
    InterfaceUpgrade,
    RolloutReport,
    WaveReport,
    abort_rollout,
    canary,
    rolling,
    upgrade,
)
from repro.faults import (
    FaultInjector,
    LinkFaultProfile,
    RetryPolicy,
    crash,
    drop_link,
    heal,
    partition,
    restart,
    restore_link,
)

__all__ = [
    "Scenario",
    "ScenarioRuntime",
    "fault_drill_scenario",
    "OperationSpec",
    "op",
    "edit",
    "publish",
    "churn",
    "rolling",
    "canary",
    "abort_rollout",
    "upgrade",
    "InterfaceUpgrade",
    "RolloutReport",
    "WaveReport",
    "crash",
    "restart",
    "partition",
    "heal",
    "drop_link",
    "restore_link",
    "FaultInjector",
    "LinkFaultProfile",
    "RetryPolicy",
    "ClusterReport",
    "ClientReport",
    "ServiceReport",
    "ReplicaReport",
    "NodeReport",
    "CohortReport",
    "CohortModel",
    "CohortFlow",
    "LatencyHistogram",
    "ClusterWorld",
    "ServerNode",
    "ServiceRegistry",
    "ServiceEntry",
    "Replica",
    "FleetDriver",
    "ClientPlan",
    "ProtocolClient",
    "SoapProtocolClient",
    "CorbaProtocolClient",
]
