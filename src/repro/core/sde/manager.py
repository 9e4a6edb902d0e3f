"""The SDE Manager (§5.1/§5.2/§5.3).

"The SDE Manager oversees the subsystem initialization and acts as the
central point of communication between the other components."  Concretely it:

* creates the gateway classes (``SDEServer``, ``SOAPServer``, ``CORBAServer``)
  inside the JPie environment and listens for new dynamic classes extending
  them (§5.1.1);
* on detection, automatically deploys the backend components — a DL Publisher
  and a Call Handler — and immediately publishes the minimal interface
  description (automated deployment, §1/§4);
* enforces the single-instance rule (§5.4) and activates the call handler
  when the first instance of a managed class is created;
* relays the §5.7 "bring the published interface up to date" requests from
  call handlers to the corresponding publisher;
* stays technology independent: SOAP and CORBA are two registered
  :class:`~repro.core.sde.api.Technology` plug-ins, and further technologies
  can be registered at run time (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.sde.api import (
    GATEWAY_CORBA,
    GATEWAY_ROOT,
    GATEWAY_SOAP,
    Technology,
)
from repro.core.sde.call_handler import CallHandler
from repro.core.sde.corba_handler import CorbaCallHandler
from repro.core.sde.idl_publisher import IdlPublisher
from repro.core.sde.interface_server import InterfaceServer
from repro.core.sde.publisher import DLPublisher, STRATEGY_STABLE_TIMEOUT
from repro.core.sde.soap_handler import SoapCallHandler
from repro.core.sde.wsdl_publisher import WsdlPublisher
from repro.errors import DeploymentError, TechnologyError
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.dynamic_instance import DynamicInstance
from repro.jpie.environment import JPieEnvironment
from repro.jpie.listeners import ClassLoadedEvent
from repro.net.latency import CostModel
from repro.net.simnet import Host
from repro.sim.scheduler import Scheduler
from repro.sim.servercore import ServerCore

#: Namespace prefix of every generated interface (``urn:sde:<class name>``).
NAMESPACE_PREFIX = "urn:sde"


@dataclass
class SDEConfig:
    """Deployment and publication configuration for an SDE instance."""

    #: Port of the integrated Interface Server (WSDL/IDL/IOR publication).
    interface_port: int = 8080
    #: First HTTP port used for SOAP endpoints (one port per managed class).
    soap_base_port: int = 8070
    #: First IIOP port used for CORBA endpoints (one port per managed class).
    corba_base_port: int = 9000
    #: §5.6 stability timeout (virtual seconds); user-tunable per class.
    publication_timeout: float = 5.0
    #: Simulated cost of one interface generation operation (§5.6: "a
    #: relatively expensive operation").
    generation_cost: float = 0.25
    #: Publication strategy (the paper's mechanism by default; the others
    #: exist for the E4 ablation).
    publication_strategy: str = STRATEGY_STABLE_TIMEOUT
    #: Polling interval when the polling strategy is selected.
    poll_interval: float = 10.0
    #: CPU cost model charged by call handlers (None disables cost accounting).
    cost_model: CostModel | None = None
    #: Number of server CPU cores shared by every managed class's endpoint.
    #: ``None`` keeps the seed behaviour — processing delays charged in
    #: parallel with unlimited implicit concurrency; a bound makes replies
    #: queue under load, so RTT degrades realistically as the fleet grows.
    server_cores: int | None = None


@dataclass
class ManagedServer:
    """Everything SDE created for one dynamic server class."""

    dynamic_class: DynamicClass
    technology: Technology
    publisher: DLPublisher = field(default=None)  # type: ignore[assignment]
    call_handler: CallHandler = field(default=None)  # type: ignore[assignment]
    instance: DynamicInstance | None = None

    @property
    def name(self) -> str:
        """The managed class name."""
        return self.dynamic_class.name


class SDEManager:
    """The central SDE component."""

    def __init__(
        self,
        environment: JPieEnvironment,
        scheduler: Scheduler,
        host: Host,
        config: SDEConfig | None = None,
    ) -> None:
        self.environment = environment
        self.scheduler = scheduler
        self.host = host
        self.config = config if config is not None else SDEConfig()

        #: The server machine's bounded CPU pool, shared by every managed
        #: class's call-handler endpoint (None = unbounded, the seed model).
        self.server_core = (
            ServerCore(scheduler, self.config.server_cores)
            if self.config.server_cores
            else None
        )

        self.interface_server = InterfaceServer(host, self.config.interface_port)
        self.interface_server.start()

        self._technologies: dict[str, Technology] = {}
        self._managed: dict[str, ManagedServer] = {}
        self._next_soap_port = self.config.soap_base_port
        self._next_corba_port = self.config.corba_base_port

        self._gateway_root = self._ensure_gateway_class(GATEWAY_ROOT, superclass=None)
        self.register_technology(self._soap_technology())
        self.register_technology(self._corba_technology())

        environment.add_class_load_listener(self._on_class_loaded)
        environment.add_instance_listener(self._on_instance_created)

    # -- technology plug-ins (§5.3) -------------------------------------------

    def register_technology(self, technology: Technology) -> None:
        """Register a technology plug-in and create its gateway class."""
        if technology.name in self._technologies:
            raise TechnologyError(f"technology {technology.name!r} is already registered")
        self._technologies[technology.name] = technology
        self._ensure_gateway_class(technology.gateway_class_name, superclass=self._gateway_root)

    @property
    def technologies(self) -> tuple[Technology, ...]:
        """The registered technologies, in registration order."""
        return tuple(self._technologies.values())

    def _ensure_gateway_class(
        self, name: str, superclass: DynamicClass | None
    ) -> DynamicClass:
        try:
            return self.environment.get_class(name)
        except Exception:
            return self.environment.create_class(name, superclass=superclass)

    def gateway_class(self, technology_name: str) -> DynamicClass:
        """The gateway class users extend for ``technology_name``."""
        technology = self._technologies.get(technology_name)
        if technology is None:
            raise TechnologyError(f"unknown technology {technology_name!r}")
        return self.environment.get_class(technology.gateway_class_name)

    @property
    def soap_server_class(self) -> DynamicClass:
        """The provided ``SOAPServer`` gateway class (§4)."""
        return self.environment.get_class(GATEWAY_SOAP)

    @property
    def corba_server_class(self) -> DynamicClass:
        """The provided ``CORBAServer`` gateway class (§4)."""
        return self.environment.get_class(GATEWAY_CORBA)

    def _soap_technology(self) -> Technology:
        def publisher_factory(manager: "SDEManager", server: ManagedServer) -> DLPublisher:
            return WsdlPublisher(
                dynamic_class=server.dynamic_class,
                interface_server=manager.interface_server,
                scheduler=manager.scheduler,
                namespace=f"{NAMESPACE_PREFIX}:{server.name}",
                endpoint_url=server.call_handler.endpoint_url,
                timeout=manager.config.publication_timeout,
                generation_cost=manager.config.generation_cost,
                strategy=manager.config.publication_strategy,
                poll_interval=manager.config.poll_interval,
            )

        def handler_factory(manager: "SDEManager", server: ManagedServer) -> CallHandler:
            port = manager._allocate_soap_port()
            return SoapCallHandler(manager, server, port)

        return Technology(
            name="soap",
            gateway_class_name=GATEWAY_SOAP,
            publisher_factory=publisher_factory,
            call_handler_factory=handler_factory,
        )

    def _corba_technology(self) -> Technology:
        def publisher_factory(manager: "SDEManager", server: ManagedServer) -> DLPublisher:
            publisher = IdlPublisher(
                dynamic_class=server.dynamic_class,
                interface_server=manager.interface_server,
                scheduler=manager.scheduler,
                namespace=f"{NAMESPACE_PREFIX}:{server.name}",
                endpoint_url=server.call_handler.endpoint_url,
                timeout=manager.config.publication_timeout,
                generation_cost=manager.config.generation_cost,
                strategy=manager.config.publication_strategy,
                poll_interval=manager.config.poll_interval,
            )
            publisher.publish_ior(server.call_handler.ior)  # type: ignore[attr-defined]
            return publisher

        def handler_factory(manager: "SDEManager", server: ManagedServer) -> CallHandler:
            port = manager._allocate_corba_port()
            return CorbaCallHandler(manager, server, port)

        return Technology(
            name="corba",
            gateway_class_name=GATEWAY_CORBA,
            publisher_factory=publisher_factory,
            call_handler_factory=handler_factory,
        )

    def _allocate_soap_port(self) -> int:
        port = self._next_soap_port
        self._next_soap_port += 1
        return port

    def _allocate_corba_port(self) -> int:
        port = self._next_corba_port
        self._next_corba_port += 1
        return port

    # -- automated deployment (§5.1.1/§5.2.1) -------------------------------------

    def _on_class_loaded(self, event: ClassLoadedEvent) -> None:
        dynamic_class = event.dynamic_class
        if dynamic_class is None:
            return
        technology = self._technology_for(dynamic_class)
        if technology is None:
            return
        self.deploy(dynamic_class, technology)

    def _technology_for(self, dynamic_class: DynamicClass) -> Technology | None:
        for technology in self._technologies.values():
            if dynamic_class.name == technology.gateway_class_name:
                return None  # the gateway class itself is not a server
            try:
                gateway = self.environment.get_class(technology.gateway_class_name)
            except Exception:
                continue
            if dynamic_class.is_subclass_of(gateway):
                return technology
        return None

    def deploy(self, dynamic_class: DynamicClass, technology: Technology) -> ManagedServer:
        """Create and start the backend components for ``dynamic_class``.

        This is the automated deployment step: the developer only created the
        class; SDE creates the call handler, the publisher, publishes the
        minimal interface description, and starts listening for changes.
        """
        if dynamic_class.name in self._managed:
            raise DeploymentError(f"class {dynamic_class.name!r} is already managed")

        server = ManagedServer(dynamic_class=dynamic_class, technology=technology)
        server.call_handler = technology.call_handler_factory(self, server)
        server.call_handler.start()
        server.publisher = technology.publisher_factory(self, server)
        server.publisher.start()
        server.publisher.publish_minimal()

        # §5.6: the publisher listens to changes by monitoring the undo/redo stack.
        self.environment.undo_stack.add_listener(server.publisher.on_change_record)

        self._managed[dynamic_class.name] = server
        return server

    # -- instance management (§5.4) ---------------------------------------------------

    def _on_instance_created(self, dynamic_class: DynamicClass, instance: DynamicInstance) -> None:
        server = self._managed.get(dynamic_class.name)
        if server is None:
            return
        if server.instance is not None:
            raise DeploymentError(
                f"only a single instance of {dynamic_class.name!r} may exist (§5.4); "
                "an instance is already active"
            )
        server.instance = instance
        server.call_handler.activate(instance)

    # -- lookups -------------------------------------------------------------------------

    @property
    def managed_servers(self) -> tuple[ManagedServer, ...]:
        """All currently managed servers, in deployment order."""
        return tuple(self._managed.values())

    def managed_server(self, class_name: str) -> ManagedServer:
        """The managed server for ``class_name``."""
        server = self._managed.get(class_name)
        if server is None:
            raise DeploymentError(f"class {class_name!r} is not managed by SDE")
        return server

    def is_managed(self, class_name: str) -> bool:
        """True if SDE manages a class with this name."""
        return class_name in self._managed

    # -- §5.7 relay ---------------------------------------------------------------------------

    def ensure_interface_current(
        self, server: ManagedServer, callback: Callable[[], None]
    ) -> None:
        """Ask the publisher to bring the published interface up to date,
        then invoke ``callback`` (used by call handlers on stale calls)."""
        server.publisher.ensure_current(callback)

    def __repr__(self) -> str:
        return (
            f"SDEManager(host={self.host.name!r}, managed={list(self._managed)}, "
            f"technologies={list(self._technologies)})"
        )
