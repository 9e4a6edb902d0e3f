"""Dynamic Skeleton Interface (DSI).

"The Dynamic Skeleton Interface technology allows applications to provide
implementations of the operations on CORBA objects without static knowledge
of the object's interface.  We use DSI to avoid reinitializing the Server ORB
when the server methods or types change." (§5.2.2)

A :class:`DynamicServant` receives each incoming call as a
:class:`ServerRequest` and decides at run time how to handle it; SDE's CORBA
Call Handler is implemented on top of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.corba.servant import Servant
from repro.errors import CorbaSystemException


@dataclass
class ServerRequest:
    """The server-side reification of one incoming invocation."""

    operation: str
    arguments: list[Any]
    object_key: str = ""
    request_id: int = 0
    _result: Any = None
    _result_set: bool = False
    _exception: BaseException | None = None

    def set_result(self, value: Any) -> None:
        """Record the operation result."""
        self._result = value
        self._result_set = True

    def set_exception(self, error: BaseException) -> None:
        """Record an exception to be propagated to the client."""
        self._exception = error
        self._result_set = True

    @property
    def completed(self) -> bool:
        """True once a result or exception has been recorded."""
        return self._result_set

    def outcome(self) -> Any:
        """Return the recorded result or raise the recorded exception."""
        if not self._result_set:
            raise CorbaSystemException(
                "NO_RESPONSE", f"dynamic invocation of {self.operation!r} produced no outcome"
            )
        if self._exception is not None:
            raise self._exception
        return self._result


class DynamicServant(Servant):
    """A servant whose dispatch logic is supplied as a callable.

    The handler receives the :class:`ServerRequest` and must call
    :meth:`ServerRequest.set_result` or :meth:`ServerRequest.set_exception`.
    """

    def __init__(
        self,
        type_name: str,
        handler: Callable[[ServerRequest], None],
    ) -> None:
        self.type_name = type_name
        self.repository_id = f"IDL:repro/{type_name}:1.0"
        self._handler = handler

    def invoke(self, operation: str, arguments: list[Any]) -> Any:
        request = ServerRequest(operation, arguments)
        self._handler(request)
        return request.outcome()

    def __repr__(self) -> str:
        return f"DynamicServant({self.type_name!r})"
