"""The SDE Manager Interface (§4).

"Once SDE starts monitoring a subclass of SOAPServer or CORBAServer, the user
can control the automated server interface publication using the SDE Manager
Interface.  The user can control the publication frequency by specifying a
timeout value.  In addition, the SDE Manager Interface allows users to
control the integrated HTTP server used to publish server interfaces.  The
users may also view the WSDL/CORBA-IDL that corresponds to each server under
development in JPie."

This is the headless (API) rendering of that GUI panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sde.manager import SDEManager
from repro.errors import PublicationError


@dataclass(frozen=True)
class PublicationStatus:
    """A snapshot of one managed server's publication state."""

    class_name: str
    technology: str
    version: int
    timer_running: bool
    generation_in_progress: bool
    published_current: bool
    publications: int
    document_url: str


class SDEManagerInterface:
    """User-facing control panel for a running SDE Manager."""

    def __init__(self, manager: SDEManager) -> None:
        self.manager = manager

    # -- publication frequency control -----------------------------------------

    def set_publication_timeout(self, class_name: str, timeout: float) -> None:
        """Set the §5.6 stability timeout for one managed class."""
        if timeout <= 0:
            raise PublicationError(f"publication timeout must be positive, got {timeout}")
        self.manager.managed_server(class_name).publisher.timeout = timeout

    def publication_timeout(self, class_name: str) -> float:
        """Return the current stability timeout for one managed class."""
        return self.manager.managed_server(class_name).publisher.timeout

    def force_publication(self, class_name: str) -> None:
        """Manually trigger publication by forcing timer expiration (§5.6)."""
        self.manager.managed_server(class_name).publisher.force_publish()

    # -- interface inspection ------------------------------------------------------

    def view_interface_document(self, class_name: str) -> str:
        """Return the currently *published* WSDL/CORBA-IDL document text."""
        publisher = self.manager.managed_server(class_name).publisher
        document = self.manager.interface_server.document(publisher.document_path)
        return document if document is not None else ""

    def view_live_interface(self, class_name: str) -> str:
        """Return a human-readable rendering of the *live* (possibly not yet
        published) interface of the dynamic class."""
        publisher = self.manager.managed_server(class_name).publisher
        return publisher.current_description().describe()

    def publication_status(self, class_name: str) -> PublicationStatus:
        """A status snapshot for one managed class."""
        server = self.manager.managed_server(class_name)
        publisher = server.publisher
        return PublicationStatus(
            class_name=class_name,
            technology=server.technology.name,
            version=publisher.version,
            timer_running=publisher.timer.running,
            generation_in_progress=publisher.generation_in_progress,
            published_current=publisher.is_published_current(),
            publications=len(publisher.publication_history),
            document_url=publisher.document_url,
        )

    def managed_class_names(self) -> tuple[str, ...]:
        """Names of all classes SDE is currently managing."""
        return tuple(server.name for server in self.manager.managed_servers)

    # -- interface server control -----------------------------------------------------

    def start_interface_server(self) -> None:
        """Start the integrated HTTP publication server."""
        self.manager.interface_server.start()

    def stop_interface_server(self) -> None:
        """Stop the integrated HTTP publication server."""
        self.manager.interface_server.stop()

    @property
    def interface_server_running(self) -> bool:
        """True while the integrated HTTP publication server is running."""
        return self.manager.interface_server.running
