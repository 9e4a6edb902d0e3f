"""Shared RMI type model.

The paper's type universe (§2.1/§2.2) is the intersection supported by both
technologies: Java ``String`` and the primitives ``int``, ``double``,
``float``, ``char`` and ``boolean``, plus user-defined structured types
declared in the interface document (WSDL complex types / CORBA-IDL
interfaces) and arrays of those.

This module defines a technology-neutral representation of those types —
:class:`PrimitiveType`, :class:`ArrayType` and :class:`StructType` — together
with a :class:`TypeRegistry` for user-defined structs, value validation and a
mapping to/from Python values.  The SOAP encoding (XSD) and CORBA encoding
(CDR/IDL) layers each provide their own mapping *from* this shared model to
their wire representation, which is exactly how the paper keeps the SDE
manager technology independent (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.util.validation import require_identifier


class TypeError_(ReproError):
    """Raised when a value does not conform to its declared RMI type."""


class RmiType:
    """Base class for all RMI types."""

    def validate(self, value: Any, registry: "TypeRegistry | None" = None) -> None:
        """Raise :class:`TypeError_` unless ``value`` conforms to this type."""
        raise NotImplementedError

    @property
    def type_name(self) -> str:
        """The technology-neutral name of this type (used in signatures)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PrimitiveType(RmiType):
    """One of the primitive types shared by SOAP and CORBA."""

    name: str

    _PYTHON_TYPES = {
        "int": int,
        "double": float,
        "float": float,
        "boolean": bool,
        "string": str,
        "char": str,
        "void": type(None),
    }

    def __post_init__(self) -> None:
        if self.name not in self._PYTHON_TYPES:
            raise TypeError_(f"unknown primitive type {self.name!r}")

    @property
    def type_name(self) -> str:
        return self.name

    def validate(self, value: Any, registry: "TypeRegistry | None" = None) -> None:
        if self.name == "void":
            if value is not None:
                raise TypeError_(f"void type cannot carry value {value!r}")
            return
        expected = self._PYTHON_TYPES[self.name]
        if self.name in ("double", "float"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError_(f"expected a number for {self.name}, got {value!r}")
            return
        if self.name == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError_(f"expected int, got {value!r}")
            return
        if self.name == "char":
            if not isinstance(value, str) or len(value) != 1:
                raise TypeError_(f"expected a single character, got {value!r}")
            return
        if not isinstance(value, expected):
            raise TypeError_(f"expected {self.name}, got {value!r}")

    def __str__(self) -> str:
        return self.name


# Singleton instances used throughout the code base.
INT = PrimitiveType("int")
DOUBLE = PrimitiveType("double")
FLOAT = PrimitiveType("float")
BOOLEAN = PrimitiveType("boolean")
STRING = PrimitiveType("string")
CHAR = PrimitiveType("char")
VOID = PrimitiveType("void")

PRIMITIVES: dict[str, PrimitiveType] = {
    t.name: t for t in (INT, DOUBLE, FLOAT, BOOLEAN, STRING, CHAR, VOID)
}


@dataclass(frozen=True)
class ArrayType(RmiType):
    """A homogeneous sequence of elements of ``element_type``."""

    element_type: RmiType

    @property
    def type_name(self) -> str:
        return f"{self.element_type.type_name}[]"

    def validate(self, value: Any, registry: "TypeRegistry | None" = None) -> None:
        if not isinstance(value, (list, tuple)):
            raise TypeError_(f"expected a sequence for {self.type_name}, got {value!r}")
        for item in value:
            self.element_type.validate(item, registry)

    def __str__(self) -> str:
        return self.type_name


@dataclass(frozen=True)
class FieldDef:
    """A named, typed field of a :class:`StructType`."""

    name: str
    field_type: RmiType

    def __post_init__(self) -> None:
        require_identifier(self.name, "field name")


@dataclass(frozen=True)
class StructType(RmiType):
    """A user-defined structured type with named, typed fields.

    Python values of a struct type are plain dictionaries keyed by field
    name, which keeps user code free of generated classes.
    """

    name: str
    fields: tuple[FieldDef, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_identifier(self.name, "struct name")
        seen = set()
        for field_def in self.fields:
            if field_def.name in seen:
                raise TypeError_(f"duplicate field {field_def.name!r} in struct {self.name!r}")
            seen.add(field_def.name)

    @property
    def type_name(self) -> str:
        return self.name

    def field_names(self) -> tuple[str, ...]:
        """The field names in declaration order."""
        return tuple(f.name for f in self.fields)

    def validate(self, value: Any, registry: "TypeRegistry | None" = None) -> None:
        if not isinstance(value, dict):
            raise TypeError_(f"expected a dict for struct {self.name!r}, got {value!r}")
        expected = set(self.field_names())
        actual = set(value.keys())
        if expected != actual:
            raise TypeError_(
                f"struct {self.name!r} expects fields {sorted(expected)}, got {sorted(actual)}"
            )
        for field_def in self.fields:
            field_def.field_type.validate(value[field_def.name], registry)

    def __str__(self) -> str:
        return self.name


class TypeRegistry:
    """Registry of the user-defined struct types known to an interface.

    Both the WSDL generator (complex types) and the IDL generator (interface
    declarations within the module) render the registry's contents into the
    published interface description.
    """

    def __init__(self, structs: Iterable[StructType] = ()) -> None:
        self._structs: dict[str, StructType] = {}
        for struct in structs:
            self.register(struct)

    def register(self, struct: StructType) -> StructType:
        """Register ``struct``; re-registering an identical definition is a
        no-op, while a conflicting redefinition raises."""
        existing = self._structs.get(struct.name)
        if existing is not None and existing != struct:
            raise TypeError_(f"conflicting redefinition of struct {struct.name!r}")
        self._structs[struct.name] = struct
        return struct

    def get(self, name: str) -> StructType:
        """Return the struct named ``name``."""
        try:
            return self._structs[name]
        except KeyError:
            raise TypeError_(f"unknown struct type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._structs

    @property
    def structs(self) -> tuple[StructType, ...]:
        """All registered structs, sorted by name for deterministic output."""
        return tuple(sorted(self._structs.values(), key=lambda s: s.name))

    def copy(self) -> "TypeRegistry":
        """Return an independent copy of this registry."""
        return TypeRegistry(self._structs.values())


def parse_type(name: str, registry: TypeRegistry | None = None) -> RmiType:
    """Resolve a textual type name to an :class:`RmiType`.

    ``"int[]"`` style suffixes denote arrays; anything that is not a
    primitive is looked up in ``registry``.
    """
    name = name.strip()
    if name.endswith("[]"):
        return ArrayType(parse_type(name[:-2], registry))
    if name in PRIMITIVES:
        return PRIMITIVES[name]
    if registry is not None and name in registry:
        return registry.get(name)
    raise TypeError_(f"unknown type name {name!r}")


def resolve_structs(
    definitions: Iterable[tuple[str, Iterable[tuple[str, str]]]],
    resolve_type: Callable[[str, Any], RmiType],
    error: type[Exception],
) -> list[StructType]:
    """Build struct types from raw ``(name, [(field name, type name)])`` pairs.

    This is the shared step of the WSDL and CORBA-IDL parsers, which find the
    raw definitions in any order.  ``resolve_type`` turns one type spelling
    into an :class:`RmiType` against a registry (:func:`parse_type` for WSDL,
    ``rmi_type_from_idl`` for IDL).  A struct is built only after the structs
    its fields name, so nesting of any depth resolves to complete definitions.
    Frozen structs cannot form a cycle, so a reference cycle or a name
    defined twice raises ``error``.
    """
    raw: dict[str, tuple[tuple[str, str], ...]] = {}
    for name, fields in definitions:
        if name in raw:
            raise error(f"struct {name!r} is defined twice")
        raw[name] = tuple(fields)
    built = TypeRegistry()
    building: list[str] = []

    class _OnDemand:
        """The registry ``resolve_type`` sees: a named struct is built on lookup."""

        def __contains__(self, name: str) -> bool:
            return name in raw

        def get(self, name: str) -> StructType:
            if name in built:
                return built.get(name)
            if name in building:
                cycle = " -> ".join(building[building.index(name):] + [name])
                raise error(f"struct reference cycle: {cycle}")
            building.append(name)
            fields = tuple(
                FieldDef(field_name, resolve_type(type_name, self))
                for field_name, type_name in raw[name]
            )
            building.pop()
            return built.register(StructType(name, fields))

    on_demand = _OnDemand()
    return [on_demand.get(name) for name in raw]


def python_default(rmi_type: RmiType) -> Any:
    """A neutral default value of the given type (used by generated stubs)."""
    if isinstance(rmi_type, PrimitiveType):
        return {
            "int": 0,
            "double": 0.0,
            "float": 0.0,
            "boolean": False,
            "string": "",
            "char": " ",
            "void": None,
        }[rmi_type.name]
    if isinstance(rmi_type, ArrayType):
        return []
    if isinstance(rmi_type, StructType):
        return {f.name: python_default(f.field_type) for f in rmi_type.fields}
    raise TypeError_(f"cannot produce a default for {rmi_type!r}")


def infer_type(value: Any, registry: TypeRegistry | None = None) -> RmiType:
    """Infer the RMI type of a Python value (how SOAP call arguments are typed).

    Dictionaries are matched against registered structs by field-name set;
    unknown shapes raise.
    """
    if value is None:
        return VOID
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if isinstance(value, (list, tuple)):
        if not value:
            return ArrayType(STRING)
        return ArrayType(infer_type(value[0], registry))
    if isinstance(value, dict) and registry is not None:
        keys = set(value.keys())
        for struct in registry.structs:
            if set(struct.field_names()) == keys:
                return struct
    raise TypeError_(f"cannot infer RMI type of {value!r}")
