"""``repro`` — live development middleware for SOAP and CORBA servers.

A from-scratch Python reproduction of *Supporting Live Development of SOAP
and CORBA Servers* (Pallemulle, Goldman & Morgan, WUCSE-2004-75 / ICDCS
2005).  The package contains:

* the paper's contribution — the **SDE** server development environment
  (:mod:`repro.core.sde`), the companion **CDE** client environment
  (:mod:`repro.core.cde`) and the joint consistency protocol
  (:mod:`repro.core.protocol`);
* every substrate it depends on, implemented from scratch: a JPie-style
  dynamic-class environment (:mod:`repro.jpie`), a SOAP/WSDL stack
  (:mod:`repro.soap`), a CORBA stack with IDL/IOR/GIOP/ORB/DSI
  (:mod:`repro.corba`), an HTTP substrate and simulated network
  (:mod:`repro.net`), and a deterministic discrete-event simulation kernel
  (:mod:`repro.sim`);
* the declarative **Scenario API** (:mod:`repro.cluster`) — one
  protocol-agnostic entry point that describes an N-server × M-client
  world (replicated services routed round-robin, client fleets with
  protocol mixes, a timeline of developer actions) and runs it
  deterministically;
* the deterministic **fault-injection subsystem** (:mod:`repro.faults`) —
  crashes, restarts, partitions and lossy links as timeline actions, with
  failover-aware routing and a client :class:`~repro.faults.RetryPolicy`,
  so resilience scenarios can prove the §6 recency guarantee under
  failure;
* the **interface-evolution subsystem** (:mod:`repro.evolve`) — a typed
  diff engine over published interface descriptions (compatible vs.
  breaking publications), version-aware routing over each replica's
  publication history, and ``rolling`` / ``canary`` / ``abort_rollout`` upgrade drills that
  move an N-replica fleet to a new interface while hundreds of clients
  keep calling;
* the **observability layer** (:mod:`repro.obs`) — deterministic causal
  span trees per client call (propagated in-band over SOAP headers and
  GIOP service contexts), simulated-time metrics sampling and a flight
  recorder that auto-dumps the recent span window when an invariant
  trips; any scenario opts in with ``scenario.run(obs=True)``;
* experiment drivers reproducing every table and figure of the evaluation
  (:mod:`repro.experiments`), each built on a one-server ``Scenario`` — the
  paper's two-host SDE/CDE world.

Quickstart
----------

Describe a world declaratively and run it:

>>> from repro import Scenario, op, STRING
>>> report = (
...     Scenario()
...     .servers(2)
...     .service("Echo", [op("echo", (("m", STRING),), STRING,
...                          body=lambda self, m: m)], replicas=2)
...     .clients(8, service="Echo", calls=5, arguments=("ping",))
...     .run()
... )
>>> report.outcomes("discrete").successes
40

or build it for interactive live development (the paper's §4 workflow):

>>> from repro import INT
>>> world = (
...     Scenario()
...     .service("Calculator", [op("add", (("a", INT), ("b", INT)), INT,
...                                body=lambda self, a, b: a + b)])
...     .build()
... )
>>> world.publish()
>>> client = world.connect("Calculator")
>>> client.invoke("add", 2, 3)
5
"""

from repro.cluster import (
    ClientReport,
    ClusterReport,
    CohortModel,
    CohortReport,
    OperationSpec,
    Scenario,
    ScenarioRuntime,
    ServiceReport,
    churn,
    edit,
    op,
    publish,
)
from repro.errors import ReproError
from repro.evolve import (
    InterfaceDelta,
    InterfaceUpgrade,
    abort_rollout,
    canary,
    diff_descriptions,
    rolling,
    upgrade,
)
from repro.faults import (
    RetryPolicy,
    crash,
    drop_link,
    heal,
    partition,
    restart,
    restore_link,
)
from repro.interface import InterfaceDescription, OperationSignature, Parameter
from repro.obs import ObsConfig, Observability
from repro.rmitypes import (
    ArrayType,
    BOOLEAN,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    STRING,
    StructType,
    FieldDef,
    VOID,
)

__version__ = "4.0.0"

__all__ = [
    "ReproError",
    "InterfaceDescription",
    "OperationSignature",
    "Parameter",
    "ArrayType",
    "StructType",
    "FieldDef",
    "INT",
    "DOUBLE",
    "FLOAT",
    "BOOLEAN",
    "STRING",
    "CHAR",
    "VOID",
    "Scenario",
    "ScenarioRuntime",
    "OperationSpec",
    "ClusterReport",
    "ClientReport",
    "ServiceReport",
    "CohortModel",
    "CohortReport",
    "op",
    "edit",
    "publish",
    "churn",
    "rolling",
    "canary",
    "abort_rollout",
    "upgrade",
    "InterfaceUpgrade",
    "InterfaceDelta",
    "diff_descriptions",
    "crash",
    "restart",
    "partition",
    "heal",
    "drop_link",
    "restore_link",
    "RetryPolicy",
    "ObsConfig",
    "Observability",
    "__version__",
]
