"""``repro.faults`` — deterministic fault injection for resilience scenarios.

The paper's interesting claims (§5.7 stall protocol, §6 recency guarantee)
only bite when things go wrong; this subsystem makes things go wrong —
deterministically — at every layer:

* :class:`LinkFaultProfile` — per-link-direction seeded message loss and
  bounded jitter, applied by the simnet when a delivery is scheduled (the
  network clamps jittered arrivals so FIFO correlation survives);
* :class:`FaultInjector` — ``crash`` / ``restart`` of server nodes (ports
  unbound and re-bound, in-flight client deferreds failed fast), hard
  ``partition`` / ``heal``, lossy ``drop_link`` / ``restore_link``, and
  availability bookkeeping (:class:`Outage`, downtime, recovery latency);
* :class:`RetryPolicy` — the client-side retry/failover knob consumed by
  the cluster fleet driver;
* timeline actions :class:`crash`, :class:`restart`, :class:`partition`,
  :class:`heal`, :class:`drop_link`, :class:`restore_link` — composable in
  ``Scenario.at(...)`` next to ``edit`` / ``publish`` / ``churn``.

See ARCHITECTURE.md "Fault model" for the determinism invariants and where
each fault hooks into the delivery path.
"""

from repro.faults.actions import (
    crash,
    drop_link,
    heal,
    partition,
    restart,
    restore_link,
)
from repro.faults.injector import FaultInjector, Outage
from repro.faults.policy import RetryPolicy
from repro.faults.profile import LinkFaultProfile

__all__ = [
    "FaultInjector",
    "Outage",
    "LinkFaultProfile",
    "RetryPolicy",
    "crash",
    "restart",
    "partition",
    "heal",
    "drop_link",
    "restore_link",
]
