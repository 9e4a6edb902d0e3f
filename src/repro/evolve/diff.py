"""The typed interface-diff engine: what changed, and does it break clients?

The source paper is about *live* interface evolution — the SDE republishes
WSDL/IDL while clients keep calling — but a publication is more than a
version bump: it either *extends* the interface (old stubs keep working) or
*breaks* it (old stubs reference operations that no longer exist, or whose
signatures changed).  This module makes that distinction first-class:

* :func:`diff_descriptions` compares two
  :class:`~repro.interface.InterfaceDescription` snapshots and returns a
  typed :class:`InterfaceDelta` — one :class:`OperationChange` per
  operation added / removed / signature-changed, plus struct-type changes;
* :meth:`InterfaceDelta.summary` is the one-line text the CDE's debugger
  shows a developer (``added: quote; removed: price; changed struct: P``);
* :func:`is_compatible` answers the routing-layer question — "do stubs
  bound against ``bound`` still work against ``current``?" — used by the
  version-aware replica selection in :mod:`repro.cluster.registry`.

Every caller diffs typed descriptions: the rollout controller compares a
replica's published description before and after a wave (the document it
published is rendered from that description, and parsing a rendered WSDL
or IDL document gives back the same signature and version), and the CDE
compares the views a client bound before and after a refresh.

Classification rules (documented in ARCHITECTURE.md "Interface evolution"):
an *added* operation or struct type is **compatible** (old stubs never call
it); a *removed* or *signature-changed* operation, and a removed or changed
struct type, are **breaking** (an old stub could marshal a call the new
interface cannot honour).  A delta is breaking iff any of its changes is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interface import InterfaceDescription, OperationSignature

#: Change kinds carried by :class:`OperationChange` / :class:`StructChange`.
CHANGE_ADDED = "added"
CHANGE_REMOVED = "removed"
CHANGE_SIGNATURE = "signature-changed"

#: Delta classifications (see :attr:`InterfaceDelta.classification`).
CLASS_IDENTICAL = "identical"
CLASS_COMPATIBLE = "compatible"
CLASS_BREAKING = "breaking"


@dataclass(frozen=True)
class OperationChange:
    """One operation-level difference between two interface versions."""

    kind: str
    name: str
    old: OperationSignature | None = None
    new: OperationSignature | None = None

    @property
    def breaking(self) -> bool:
        """True when old stubs referencing this operation stop working."""
        return self.kind != CHANGE_ADDED

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``signature-changed: int f(int a)``."""
        signature = self.new or self.old
        rendered = signature.describe() if signature is not None else self.name
        if self.kind == CHANGE_SIGNATURE and self.old is not None:
            return f"{self.kind}: {self.old.describe()} -> {rendered}"
        return f"{self.kind}: {rendered}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class StructChange:
    """One struct-type difference between two interface versions."""

    kind: str
    name: str

    @property
    def breaking(self) -> bool:
        """Adding a struct type is compatible; removing or changing one is not."""
        return self.kind != CHANGE_ADDED

    def __str__(self) -> str:
        return f"{self.kind}: struct {self.name}"


@dataclass(frozen=True)
class InterfaceDelta:
    """The typed difference between two published interface versions."""

    service: str
    old_version: int
    new_version: int
    operations: tuple[OperationChange, ...] = ()
    structs: tuple[StructChange, ...] = ()

    # -- classification -----------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the two versions expose an identical interface."""
        return not (self.operations or self.structs)

    @property
    def breaking_changes(self) -> tuple["OperationChange | StructChange", ...]:
        """Every change an already-bound client could trip over."""
        return tuple(
            change
            for change in (*self.operations, *self.structs)
            if change.breaking
        )

    @property
    def compatible(self) -> bool:
        """True when clients bound to the old version keep working."""
        return not self.breaking_changes

    @property
    def classification(self) -> str:
        """``identical`` / ``compatible`` / ``breaking``."""
        if self.empty:
            return CLASS_IDENTICAL
        return CLASS_COMPATIBLE if self.compatible else CLASS_BREAKING

    # -- convenience views --------------------------------------------------

    @property
    def added(self) -> tuple[str, ...]:
        """Names of operations the new version added."""
        return self._names(CHANGE_ADDED)

    @property
    def removed(self) -> tuple[str, ...]:
        """Names of operations the new version removed."""
        return self._names(CHANGE_REMOVED)

    @property
    def changed(self) -> tuple[str, ...]:
        """Names of operations whose signature changed."""
        return self._names(CHANGE_SIGNATURE)

    def _names(self, kind: str) -> tuple[str, ...]:
        return tuple(change.name for change in self.operations if change.kind == kind)

    def summary(self) -> str:
        """One line naming the added, removed and changed operations, then
        struct types, e.g. ``added: quote; removed: price; changed struct:
        Order`` (``no interface changes`` if none)."""
        labels = (("added", CHANGE_ADDED), ("removed", CHANGE_REMOVED), ("changed", CHANGE_SIGNATURE))
        parts = []
        for what, changes in (("", self.operations), (" struct", self.structs)):
            for label, kind in labels:
                names = [change.name for change in changes if change.kind == kind]
                if names:
                    parts.append(f"{label}{what}: {', '.join(names)}")
        return "; ".join(parts) or "no interface changes"

    def describe(self) -> str:
        """Multi-line summary: classification header plus one line per change."""
        lines = [
            f"{self.service}: v{self.old_version} -> v{self.new_version} "
            f"({self.classification})"
        ]
        lines.extend(f"  {change}" for change in (*self.operations, *self.structs))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def diff_descriptions(
    old: InterfaceDescription, new: InterfaceDescription
) -> InterfaceDelta:
    """The typed delta going from ``old`` to ``new``."""
    mine = {operation.name: operation for operation in old.operations}
    theirs = {operation.name: operation for operation in new.operations}
    changes: list[OperationChange] = []
    for name in sorted(set(mine) | set(theirs)):
        before, after = mine.get(name), theirs.get(name)
        if before is None:
            changes.append(OperationChange(CHANGE_ADDED, name, new=after))
        elif after is None:
            changes.append(OperationChange(CHANGE_REMOVED, name, old=before))
        elif before != after:
            changes.append(OperationChange(CHANGE_SIGNATURE, name, old=before, new=after))

    old_structs = {struct.name: struct for struct in old.structs}
    new_structs = {struct.name: struct for struct in new.structs}
    struct_changes: list[StructChange] = []
    for name in sorted(set(old_structs) | set(new_structs)):
        before, after = old_structs.get(name), new_structs.get(name)
        if before is None:
            struct_changes.append(StructChange(CHANGE_ADDED, name))
        elif after is None:
            struct_changes.append(StructChange(CHANGE_REMOVED, name))
        elif before != after:
            struct_changes.append(StructChange(CHANGE_SIGNATURE, name))

    return InterfaceDelta(
        service=new.service_name or old.service_name,
        old_version=old.version,
        new_version=new.version,
        operations=tuple(changes),
        structs=tuple(struct_changes),
    )


def is_compatible(bound: InterfaceDescription, current: InterfaceDescription) -> bool:
    """True when stubs bound against ``bound`` still work against ``current``.

    Every operation and struct type the bound description exposes must still
    exist, unchanged, in the current one; anything the current version adds
    on top is invisible to old stubs and therefore harmless.  This is the
    predicate version-aware routing evaluates per replica.
    """
    for operation in bound.operations:
        if current.operation(operation.name) != operation:
            return False
    current_structs = {struct.name: struct for struct in current.structs}
    for struct in bound.structs:
        if current_structs.get(struct.name) != struct:
            return False
    return True
