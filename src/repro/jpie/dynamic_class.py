"""Dynamic classes.

A :class:`DynamicClass` is a run-time-mutable class definition built from
:class:`~repro.jpie.dynamic_method.DynamicMethod` and
:class:`~repro.jpie.dynamic_field.DynamicField` components.  Existing
instances always see the current definition, modifications fire
:class:`~repro.jpie.listeners.ClassChangeEvent` notifications to registered
listeners, and every mutation is pushed onto the environment's undo/redo
stack so that SDE's publishers can monitor editing activity (§5.6).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import DynamicClassError, MemberNotFoundError
from repro.interface import OperationSignature, Parameter
from repro.jpie.dynamic_field import DynamicField
from repro.jpie.dynamic_method import DynamicMethod, MethodBody
from repro.jpie.listeners import ClassChangeEvent, ClassChangeKind
from repro.jpie.modifiers import Modifier
from repro.rmitypes import RmiType, StructType, VOID
from repro.util.listenable import Listenable
from repro.util.validation import require_identifier


class DynamicClass(Listenable):
    """A mutable class definition whose instances track every change."""

    def __init__(
        self,
        name: str,
        superclass: "DynamicClass | type | None" = None,
        environment: "Any | None" = None,
    ) -> None:
        super().__init__()
        require_identifier(name, "class name")
        self._name = name
        self.superclass = superclass
        self.environment = environment
        self._methods: dict[str, DynamicMethod] = {}
        self._fields: dict[str, DynamicField] = {}
        self._struct_types: dict[str, StructType] = {}
        self._instances: list[Any] = []

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """The class name."""
        return self._name

    def rename(self, new_name: str) -> None:
        """Rename the class (fires a CLASS_RENAMED event)."""
        require_identifier(new_name, "class name")
        old_name = self._name
        self._name = new_name
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.CLASS_RENAMED,
                class_name=new_name,
                detail=f"renamed from {old_name}",
                old_value=old_name,
                new_value=new_name,
            ),
            undo=lambda: self.rename(old_name),
        )

    def is_subclass_of(self, other: "DynamicClass | type") -> bool:
        """True if this class descends from ``other`` (dynamic or static)."""
        current: DynamicClass | type | None = self
        while current is not None:
            if current is other:
                return True
            if isinstance(current, DynamicClass):
                current = current.superclass
            else:
                return isinstance(other, type) and issubclass(current, other)
        return False

    # -- methods -----------------------------------------------------------------

    @property
    def methods(self) -> tuple[DynamicMethod, ...]:
        """All methods, in insertion order."""
        return tuple(self._methods.values())

    def method(self, name: str) -> DynamicMethod:
        """Return the method named ``name``."""
        method = self._methods.get(name)
        if method is None and isinstance(self.superclass, DynamicClass):
            return self.superclass.method(name)
        if method is None:
            raise MemberNotFoundError(f"class {self._name!r} has no method {name!r}")
        return method

    def has_method(self, name: str) -> bool:
        """True if a method named ``name`` exists (including inherited)."""
        try:
            self.method(name)
            return True
        except MemberNotFoundError:
            return False

    def add_method(
        self,
        name: str,
        parameters: Iterable[Parameter] = (),
        return_type: RmiType = VOID,
        body: MethodBody | None = None,
        modifiers: set[Modifier] | None = None,
        distributed: bool = False,
    ) -> DynamicMethod:
        """Create a method, add it to the class and return it."""
        if name in self._methods:
            raise DynamicClassError(f"class {self._name!r} already has a method {name!r}")
        final_modifiers = set(modifiers or {Modifier.PUBLIC})
        if distributed:
            final_modifiers.add(Modifier.DISTRIBUTED)
        method = DynamicMethod(
            name,
            tuple(parameters),
            return_type,
            body,
            final_modifiers,
        )
        method.owner = self
        self._methods[name] = method
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_ADDED,
                class_name=self._name,
                member_name=name,
                detail=method.signature().describe(),
                new_value=method,
            ),
            undo=lambda: self.remove_method(name),
        )
        return method

    def remove_method(self, name: str) -> None:
        """Delete the method named ``name`` (removing it from the server
        interface if it was distributed)."""
        method = self._methods.pop(name, None)
        if method is None:
            raise MemberNotFoundError(f"class {self._name!r} has no method {name!r}")
        method.owner = None
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_REMOVED,
                class_name=self._name,
                member_name=name,
                detail=method.signature().describe(),
                old_value=method,
            ),
            undo=lambda: self._readd_method(method),
        )

    def _readd_method(self, method: DynamicMethod) -> None:
        if method.name in self._methods:
            raise DynamicClassError(f"cannot restore method {method.name!r}: name in use")
        method.owner = self
        self._methods[method.name] = method
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_ADDED,
                class_name=self._name,
                member_name=method.name,
                detail="restored by undo",
                new_value=method,
            ),
            undo=lambda: self.remove_method(method.name),
        )

    # -- fields -------------------------------------------------------------------

    @property
    def fields(self) -> tuple[DynamicField, ...]:
        """All fields, in insertion order."""
        return tuple(self._fields.values())

    def field(self, name: str) -> DynamicField:
        """Return the field named ``name``."""
        field = self._fields.get(name)
        if field is None and isinstance(self.superclass, DynamicClass):
            return self.superclass.field(name)
        if field is None:
            raise MemberNotFoundError(f"class {self._name!r} has no field {name!r}")
        return field

    def has_field(self, name: str) -> bool:
        """True if a field named ``name`` exists (including inherited)."""
        try:
            self.field(name)
            return True
        except MemberNotFoundError:
            return False

    def add_field(
        self,
        name: str,
        field_type: RmiType,
        initial_value: Any = None,
        modifiers: set[Modifier] | None = None,
    ) -> DynamicField:
        """Create a field, add it to the class and return it.

        Existing instances receive the field immediately, initialised to the
        field's initial value.
        """
        if name in self._fields:
            raise DynamicClassError(f"class {self._name!r} already has a field {name!r}")
        field = DynamicField(name, field_type, initial_value, modifiers)
        field.owner = self
        self._fields[name] = field
        for instance in self._instances:
            instance._field_added(field)
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.FIELD_ADDED,
                class_name=self._name,
                member_name=name,
                detail=f"{field_type.type_name} {name}",
                new_value=field,
            ),
            undo=lambda: self.remove_field(name),
        )
        return field

    def remove_field(self, name: str) -> None:
        """Delete the field named ``name`` from the class and all instances."""
        field = self._fields.pop(name, None)
        if field is None:
            raise MemberNotFoundError(f"class {self._name!r} has no field {name!r}")
        field.owner = None
        for instance in self._instances:
            instance._field_removed(name)
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.FIELD_REMOVED,
                class_name=self._name,
                member_name=name,
                old_value=field,
            ),
            undo=lambda: self.add_field(name, field.field_type, field.initial_value),
        )

    # -- struct types ----------------------------------------------------------------

    def declare_struct(self, struct: StructType) -> StructType:
        """Declare a user-defined struct type used by distributed methods."""
        self._struct_types[struct.name] = struct
        return struct

    @property
    def struct_types(self) -> tuple[StructType, ...]:
        """The declared struct types, sorted by name."""
        return tuple(sorted(self._struct_types.values(), key=lambda s: s.name))

    # -- instances ----------------------------------------------------------------------

    def new_instance(self) -> "Any":
        """Create a new live instance of this class."""
        from repro.jpie.dynamic_instance import DynamicInstance

        instance = DynamicInstance(self)
        self._instances.append(instance)
        if self.environment is not None:
            self.environment._instance_created(self, instance)
        return instance

    @property
    def instances(self) -> tuple[Any, ...]:
        """All live instances created from this class."""
        return tuple(self._instances)

    # -- the distributed (server) interface -----------------------------------------------

    def distributed_methods(self) -> tuple[DynamicMethod, ...]:
        """Methods carrying the ``distributed`` modifier, sorted by name."""
        return tuple(
            sorted(
                (m for m in self._methods.values() if m.is_distributed),
                key=lambda m: m.name,
            )
        )

    def distributed_signatures(self) -> tuple[OperationSignature, ...]:
        """Signatures of the distributed methods (the server interface)."""
        return tuple(m.signature() for m in self.distributed_methods())

    # -- change plumbing (called by members) ------------------------------------------------

    def _rename_method(self, method: DynamicMethod, new_name: str) -> None:
        if new_name in self._methods:
            raise DynamicClassError(f"class {self._name!r} already has a method {new_name!r}")
        old_name = method.name
        del self._methods[old_name]
        method._apply_rename(new_name)
        self._methods[new_name] = method
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_RENAMED,
                class_name=self._name,
                member_name=new_name,
                detail=f"renamed from {old_name}",
                old_value=old_name,
                new_value=new_name,
            ),
            undo=lambda: method.rename(old_name),
        )

    def _rename_field(self, field: DynamicField, new_name: str) -> None:
        if new_name in self._fields:
            raise DynamicClassError(f"class {self._name!r} already has a field {new_name!r}")
        old_name = field.name
        del self._fields[old_name]
        field._apply_rename(new_name)
        self._fields[new_name] = field
        for instance in self._instances:
            instance._field_renamed(old_name, new_name)
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.FIELD_CHANGED,
                class_name=self._name,
                member_name=new_name,
                detail=f"renamed from {old_name}",
                old_value=old_name,
                new_value=new_name,
            ),
            undo=lambda: field.rename(old_name),
        )

    def _method_signature_changed(self, method: DynamicMethod, detail: str) -> None:
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_SIGNATURE_CHANGED,
                class_name=self._name,
                member_name=method.name,
                detail=detail,
            ),
            undo=None,
        )

    def _method_body_changed(self, method: DynamicMethod) -> None:
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_BODY_CHANGED,
                class_name=self._name,
                member_name=method.name,
            ),
            undo=None,
        )

    def _method_modifiers_changed(self, method: DynamicMethod, detail: str) -> None:
        self._record_and_notify(
            ClassChangeEvent(
                kind=ClassChangeKind.METHOD_MODIFIERS_CHANGED,
                class_name=self._name,
                member_name=method.name,
                detail=detail,
            ),
            undo=None,
        )

    def _record_and_notify(
        self, event: ClassChangeEvent, undo: Callable[[], None] | None
    ) -> None:
        if self.environment is not None:
            self.environment._class_changed(self, event, undo)
        self.notify(event)

    def __repr__(self) -> str:
        return (
            f"DynamicClass({self._name!r}, methods={list(self._methods)}, "
            f"fields={list(self._fields)}, instances={len(self._instances)})"
        )
