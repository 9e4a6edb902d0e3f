"""World building: N server machines, M client machines.

The paper evaluates a two-host shape (one client PowerBook, one SDE server
desktop).  :class:`ClusterWorld` generalises host creation: any number of
server machines — each carrying its own JPie environment and SDE Manager —
plus any number of client machines, all on one shared scheduler and
simulated network.  :class:`repro.cluster.Scenario` builds every world
through it; a one-server scenario is the paper's two-host shape.
"""

from __future__ import annotations

from repro.core.sde import SDEConfig, SDEManager, SDEManagerInterface
from repro.errors import HostNotFoundError
from repro.jpie import JPieEnvironment
from repro.net import Host, LatencyModel, Network, t1_lan_profile
from repro.sim import Scheduler


class ServerNode:
    """One server machine: a host plus its JPie environment and SDE Manager."""

    def __init__(self, world: "ClusterWorld", name: str, config: SDEConfig | None = None) -> None:
        self.world = world
        self.name = name
        self.host = world.network.add_host(name)
        self.environment = JPieEnvironment(f"{name}-jpie")
        self.sde = SDEManager(self.environment, world.scheduler, self.host, config)
        self.manager_interface = SDEManagerInterface(self.sde)
        #: False while crashed (toggled by :class:`repro.faults.FaultInjector`);
        #: the registry's routing policies skip dead nodes' replicas.
        self.is_alive = True

    @property
    def scheduler(self) -> Scheduler:
        """The shared event scheduler."""
        return self.world.scheduler

    @property
    def server_core(self):
        """The node's bounded CPU pool (``None`` = unbounded)."""
        return self.sde.server_core

    def __repr__(self) -> str:
        return f"ServerNode({self.name!r}, managed={len(self.sde.managed_servers)})"


class ClusterWorld:
    """A simulated world of N server machines and M client machines."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        scheduler: Scheduler | None = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.network = Network(self.scheduler, latency or t1_lan_profile())
        self.server_nodes: list[ServerNode] = []
        self.client_hosts: list[Host] = []

    # -- machines -----------------------------------------------------------

    def add_server(self, name: str, config: SDEConfig | None = None) -> ServerNode:
        """Attach one more server machine, with its own JPie + SDE stack."""
        node = ServerNode(self, name, config)
        self.server_nodes.append(node)
        return node

    def add_client(self, name: str) -> Host:
        """The client machine named ``name``, attached on first use.

        A machine already attached under that name is reused, so repeated
        runs on one world share their client hosts.
        """
        try:
            return self.network.host(name)
        except HostNotFoundError:
            host = self.network.add_host(name)
            self.client_hosts.append(host)
            return host

    def client_fleet(self, count: int) -> tuple[Host, ...]:
        """The ``count`` fleet machines ``fleet-client-1..count``."""
        return tuple(self.add_client(f"fleet-client-{index + 1}") for index in range(count))

    def node(self, name: str) -> ServerNode:
        """The server node with the given host name."""
        for node in self.server_nodes:
            if node.name == name:
                return node
        raise HostNotFoundError(f"no server node named {name!r}")

    # -- time control --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.scheduler.run_for(duration)

    def run_until_idle(self) -> None:
        """Run until no simulated work remains."""
        self.scheduler.run_until_idle()

    def __repr__(self) -> str:
        return (
            f"ClusterWorld(servers={[n.name for n in self.server_nodes]}, "
            f"clients={len(self.client_hosts)})"
        )
