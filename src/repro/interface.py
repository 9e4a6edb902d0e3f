"""Technology-neutral server interface model.

SDE keeps one description of "the set of distributed operations the server
currently exposes" and renders it to WSDL (SOAP) or CORBA-IDL (CORBA) when
publishing.  This module defines that description:

* :class:`Parameter` — a named, typed formal parameter;
* :class:`OperationSignature` — a remote operation (name, parameters, return
  type);
* :class:`InterfaceDescription` — a versioned set of operations plus the
  user-defined struct types they reference;
* :class:`ServiceDefinition` — a statically deployed service: signatures
  plus the callables implementing them, which both static servers take.

The model is deliberately value-like (frozen dataclasses, structural
equality) so that "has the interface changed?" is a simple ``!=`` between the
current and last-published description — the question at the heart of the
stable-change detection mechanism (§5.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.rmitypes import RmiType, TypeRegistry, StructType, VOID
from repro.util.validation import require_identifier


class InterfaceError(ReproError):
    """Raised on malformed interface descriptions (duplicate operations...)."""


#: How many distinct documents each description parser (``parse_wsdl``,
#: ``parse_idl``) remembers.  Descriptions are frozen values and a document's
#: text carries its version and endpoint, so equal texts may share one parse;
#: a run publishes only a handful of distinct documents at a time.
DESCRIPTION_MEMO_SIZE = 256


@dataclass(frozen=True)
class Parameter:
    """A formal parameter of a remote operation."""

    name: str
    param_type: RmiType

    def __post_init__(self) -> None:
        require_identifier(self.name, "parameter name")

    def __str__(self) -> str:
        return f"{self.param_type.type_name} {self.name}"


@dataclass(frozen=True)
class OperationSignature:
    """A single remote operation in the server interface."""

    name: str
    parameters: tuple[Parameter, ...] = ()
    return_type: RmiType = VOID

    def __post_init__(self) -> None:
        require_identifier(self.name, "operation name")
        seen: set[str] = set()
        for parameter in self.parameters:
            if parameter.name in seen:
                raise InterfaceError(
                    f"duplicate parameter {parameter.name!r} in operation {self.name!r}"
                )
            seen.add(parameter.name)

    @property
    def arity(self) -> int:
        """Number of formal parameters."""
        return len(self.parameters)

    def describe(self) -> str:
        """A human-readable rendering, e.g. ``int add(int a, int b)``."""
        params = ", ".join(str(p) for p in self.parameters)
        return f"{self.return_type.type_name} {self.name}({params})"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class InterfaceDescription:
    """A complete, versioned description of the server interface.

    Attributes
    ----------
    service_name:
        The name of the service (the dynamic class name in JPie).
    namespace:
        Target namespace (SOAP) / module name (CORBA).
    operations:
        The distributed operations, in a deterministic order.
    structs:
        User-defined struct types referenced by the operations.
    version:
        Monotonically increasing version assigned by the publisher; two
        descriptions with different versions but identical contents are
        considered equal for change-detection purposes (see
        :meth:`same_signature`).
    endpoint_url:
        Where the RMI endpoint listens.  A *minimal* description (published
        immediately when the gateway class is created, §5.1.1) has an
        endpoint but no operations.
    """

    service_name: str
    namespace: str
    operations: tuple[OperationSignature, ...] = ()
    structs: tuple[StructType, ...] = ()
    version: int = 0
    endpoint_url: str = ""

    def __post_init__(self) -> None:
        require_identifier(self.service_name, "service name")
        by_name: dict[str, OperationSignature] = {}
        for operation in self.operations:
            if operation.name in by_name:
                raise InterfaceError(
                    f"duplicate operation {operation.name!r} in service {self.service_name!r}"
                )
            by_name[operation.name] = operation
        # Not a field, so equality, hashing and ``replace`` ignore it.
        object.__setattr__(self, "_by_name", by_name)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def minimal(
        cls, service_name: str, namespace: str, endpoint_url: str
    ) -> "InterfaceDescription":
        """The minimal description published at class-creation time (§5.1.1):
        endpoint address present, no operation definitions yet."""
        return cls(
            service_name=service_name,
            namespace=namespace,
            operations=(),
            structs=(),
            version=0,
            endpoint_url=endpoint_url,
        )

    def with_operations(
        self,
        operations: Iterable[OperationSignature],
        structs: Iterable[StructType] = (),
    ) -> "InterfaceDescription":
        """Return a copy with a new operation set (sorted by name)."""
        ordered = tuple(sorted(operations, key=lambda op: op.name))
        struct_tuple = tuple(sorted(structs, key=lambda s: s.name))
        return replace(self, operations=ordered, structs=struct_tuple)

    def with_version(self, version: int) -> "InterfaceDescription":
        """Return a copy carrying the given publication version."""
        return replace(self, version=version)

    # -- queries --------------------------------------------------------------

    def operation(self, name: str) -> OperationSignature | None:
        """Return the operation named ``name``, if present."""
        return self._by_name.get(name)

    def has_operation(self, name: str) -> bool:
        """True if an operation named ``name`` is part of the interface."""
        return name in self._by_name

    def operation_names(self) -> tuple[str, ...]:
        """All operation names, in the interface's deterministic order."""
        return tuple(op.name for op in self.operations)

    def type_registry(self) -> TypeRegistry:
        """A registry containing this interface's struct types."""
        return TypeRegistry(self.structs)

    def same_signature(self, other: "InterfaceDescription") -> bool:
        """True if the two descriptions describe the same interface,
        ignoring the publication version."""
        return (
            self.service_name == other.service_name
            and self.namespace == other.namespace
            and self.operations == other.operations
            and self.structs == other.structs
            and self.endpoint_url == other.endpoint_url
        )

    def describe(self) -> str:
        """Human-readable multi-line summary of the interface."""
        lines = [f"service {self.service_name} (namespace {self.namespace}, "
                 f"version {self.version}, endpoint {self.endpoint_url or '<none>'})"]
        for struct in self.structs:
            fields = ", ".join(f"{f.field_type.type_name} {f.name}" for f in struct.fields)
            lines.append(f"  struct {struct.name} {{ {fields} }}")
        for operation in self.operations:
            lines.append(f"  {operation.describe()}")
        return "\n".join(lines)


@dataclass
class ServiceDefinition:
    """A statically deployed service: signatures plus their implementations.

    Both static servers (:class:`~repro.soap.server.StaticSoapServer`,
    :class:`~repro.corba.server.StaticCorbaServer`) take one: the Table 1
    baselines and the §7 export target.
    """

    service_name: str
    namespace: str
    operations: list[tuple[OperationSignature, Callable[..., Any]]] = field(default_factory=list)
    structs: list[StructType] = field(default_factory=list)

    def add_operation(
        self, signature: OperationSignature, implementation: Callable[..., Any]
    ) -> None:
        """Register an operation and its implementation."""
        if self.operation(signature.name) is not None:
            raise InterfaceError(f"operation {signature.name!r} is already defined")
        self.operations.append((signature, implementation))

    def operation(self, name: str) -> tuple[OperationSignature, Callable[..., Any]] | None:
        """The ``(signature, implementation)`` registered as ``name``, if any."""
        for entry in self.operations:
            if entry[0].name == name:
                return entry
        return None

    def signatures(self) -> tuple[OperationSignature, ...]:
        """The operation signatures in registration order."""
        return tuple(signature for signature, _ in self.operations)

    def description(self, endpoint_url: str) -> InterfaceDescription:
        """The description a server deploying this service at
        ``endpoint_url`` publishes."""
        return InterfaceDescription(
            service_name=self.service_name,
            namespace=self.namespace,
            endpoint_url=endpoint_url,
        ).with_operations(self.signatures(), self.structs)
