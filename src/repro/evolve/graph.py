"""The client-side binding state that version-aware routing consults.

A replicated service evolves *per replica*: each replica's publisher owns a
monotone version counter, and a rolling upgrade deliberately lets replicas
diverge for a while (some already publish v+1 while others still serve v).
Each replica's history is its publisher's ``publication_history``; what
changed between two of its versions is
:func:`~repro.evolve.diff.diff_descriptions` over consecutive entries.

:class:`ClientBinding` is the per-client half: which description the
client's stubs were compiled against per replica, and the highest published
version the client has *observed* (the §6 recency watermark).  The
version-aware selection in :class:`~repro.cluster.registry.ServiceEntry`
consults it to keep each client on replicas that are both **fresh** (never
older than anything the client already saw — the §6 guarantee, enforced by
routing) and **compatible** (the client's stubs still match — breaking
versions are avoided while a compatible replica remains, and otherwise
surface as an explicit stale-fault + rebind, never a silently wrong
answer).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.evolve.diff import is_compatible
from repro.interface import InterfaceDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.registry import Replica


class ClientBinding:
    """One client's stub-binding state, consulted by version-aware routing."""

    __slots__ = ("bound", "seen_version", "_compat_cache")

    def __init__(self) -> None:
        #: replica index -> the description the client's stubs were built from.
        self.bound: dict[int, InterfaceDescription] = {}
        #: Highest published interface version this client has observed
        #: (successful replies and §5.7 stale faults both count — the stall
        #: protocol guarantees the published interface is current at either).
        self.seen_version: int = -1
        #: (bound, current) -> compatibility memo per replica; descriptions
        #: are immutable values replaced wholesale on publish, so identity
        #: comparison is a sound cache key.
        self._compat_cache: dict[int, tuple[object, object, bool]] = {}

    def bind(self, replica_index: int, description: InterfaceDescription) -> None:
        """Record (re)binding this client's stubs for one replica."""
        self.bound[replica_index] = description
        self._compat_cache.pop(replica_index, None)

    def observe(self, version: int) -> None:
        """Raise the §6 recency watermark to ``version`` if it is newer."""
        if version > self.seen_version:
            self.seen_version = version

    def fresh(self, replica: "Replica") -> bool:
        """True when the replica publishes at least the watermark version."""
        return replica.publisher.version >= self.seen_version

    def compatible_with(self, replica: "Replica") -> bool:
        """True when this client's stubs still match the replica's interface."""
        bound = self.bound.get(replica.index)
        if bound is None:
            return True
        current = replica.publisher.published_description
        if current is None:
            return True
        cached = self._compat_cache.get(replica.index)
        if cached is not None and cached[0] is bound and cached[1] is current:
            return cached[2]
        answer = is_compatible(bound, current)
        self._compat_cache[replica.index] = (bound, current, answer)
        return answer

    def __repr__(self) -> str:
        return (
            f"ClientBinding(bound={sorted(self.bound)}, "
            f"seen_version={self.seen_version})"
        )
