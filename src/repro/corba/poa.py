"""Portable Object Adapter: maps object keys to servants.

The server ORB "intercepts the call, finds the object that can handle the
request" (§2.2); the lookup from the object key carried in the GIOP Request
to the servant is the object adapter's job.
"""

from __future__ import annotations

from repro.corba.servant import Servant
from repro.errors import CorbaSystemException


class PortableObjectAdapter:
    """A minimal POA: an object-key → servant table with activation state."""

    def __init__(self, name: str = "RootPOA") -> None:
        self.name = name
        self._servants: dict[str, Servant] = {}

    def activate_object(self, object_key: str, servant: Servant) -> None:
        """Register ``servant`` under ``object_key``."""
        if object_key in self._servants:
            raise CorbaSystemException(
                "OBJ_ADAPTER", f"object key {object_key!r} is already active"
            )
        self._servants[object_key] = servant

    def servant_for(self, object_key: str) -> Servant:
        """Return the servant for ``object_key``.

        Raises
        ------
        CorbaSystemException
            ``OBJECT_NOT_EXIST`` when no servant is active under that key.
        """
        servant = self._servants.get(object_key)
        if servant is None:
            raise CorbaSystemException(
                "OBJECT_NOT_EXIST", f"no active object for key {object_key!r}"
            )
        return servant

    def __repr__(self) -> str:
        return f"PortableObjectAdapter({self.name!r}, active={list(self._servants)})"
