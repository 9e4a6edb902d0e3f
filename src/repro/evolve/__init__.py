"""``repro.evolve`` — interface evolution as a first-class scenario dimension.

The source paper's core loop is *live* interface evolution: the SDE
republishes WSDL/IDL as the developer edits, while clients keep calling.
This subsystem models what the rest of the repo treated as an opaque
version bump:

* a **typed diff engine** (:mod:`repro.evolve.diff`) — compares published
  interface descriptions and classifies every publication as
  *compatible* (operations added) or *breaking* (operations removed or
  signature-changed);
* the per-client :class:`ClientBinding` (:mod:`repro.evolve.graph`)
  that version-aware routing consults (clients stay on replicas that are
  fresh w.r.t. their §6 recency watermark and compatible with the stubs
  they bound; breaking versions surface as an explicit stale-fault +
  rebind, never a silently wrong answer); a replica's own history is its
  publisher's ``publication_history``, diffed by :func:`diff_descriptions`;
* **rollout strategies** (:mod:`repro.evolve.rollout` /
  :mod:`repro.evolve.actions`) — ``rolling`` / ``canary`` /
  ``abort_rollout`` timeline actions that upgrade an N-replica fleet
  wave-by-wave under load, compose with :mod:`repro.faults` (crash
  mid-rollout → deterministic resume, abort → rollback), and report wave
  durations, per-version call counts, rebinds and the stale-fault rate in
  the run's :class:`~repro.cluster.report.ClusterReport`.

See ARCHITECTURE.md "Interface evolution" for the classification rules,
the routing invariants and the rollout state machine.
"""

from repro.evolve.actions import abort_rollout, canary, rolling
from repro.evolve.diff import (
    CHANGE_ADDED,
    CHANGE_REMOVED,
    CHANGE_SIGNATURE,
    CLASS_BREAKING,
    CLASS_COMPATIBLE,
    CLASS_IDENTICAL,
    InterfaceDelta,
    OperationChange,
    StructChange,
    diff_descriptions,
    is_compatible,
)
from repro.evolve.graph import ClientBinding
from repro.evolve.rollout import (
    STRATEGY_CANARY,
    STRATEGY_ROLLING,
    InterfaceUpgrade,
    RolloutController,
    RolloutReport,
    WaveReport,
    upgrade,
)

__all__ = [
    "InterfaceDelta",
    "OperationChange",
    "StructChange",
    "diff_descriptions",
    "is_compatible",
    "CHANGE_ADDED",
    "CHANGE_REMOVED",
    "CHANGE_SIGNATURE",
    "CLASS_IDENTICAL",
    "CLASS_COMPATIBLE",
    "CLASS_BREAKING",
    "ClientBinding",
    "InterfaceUpgrade",
    "upgrade",
    "RolloutController",
    "RolloutReport",
    "WaveReport",
    "rolling",
    "canary",
    "abort_rollout",
    "STRATEGY_ROLLING",
    "STRATEGY_CANARY",
]
