"""Client Development Environment (CDE).

"CDE supports the live construction of SOAP and CORBA clients ... we extend
the live development model introduced by JPie to automate addition, mutation,
and deletion of dynamic server methods within dynamic clients" (§2.3).

* :mod:`repro.core.cde.binding` — a live, blocking client binding to one
  remote server: a façade over the same client protocol stack the fleet
  driver uses (:mod:`repro.cluster.protocols`), which fetches and parses the
  published interface description, sends calls — even when the local view
  may be stale — and sorts the replies.  The binding adds the client half of
  the §6 consistency algorithm (refresh on "Non existent Method", report to
  the JPie debugger, support "try again").  Dynamic invocation needs no DII
  layer: the stack names the operation at run time;
* :mod:`repro.core.cde.stub_manager` — maintains a client-side dynamic class
  whose methods mirror the server interface;
* :mod:`repro.core.cde.client_env` — the CDE facade that connects a binding
  to a server through any registered client stack.
"""

from repro.core.cde.binding import DynamicClientBinding, GuaranteeRecord
from repro.core.cde.stub_manager import ClientStubManager
from repro.core.cde.client_env import ClientDevelopmentEnvironment

__all__ = [
    "DynamicClientBinding",
    "GuaranteeRecord",
    "ClientStubManager",
    "ClientDevelopmentEnvironment",
]
