"""Live instances of dynamic classes.

Instances never copy behaviour out of their class: every invocation looks up
the *current* method definition, so signature and implementation changes
"take effect immediately upon existing instances of the class" (§1).
"""

from __future__ import annotations

from typing import Any

from repro.errors import MemberNotFoundError
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.dynamic_field import DynamicField
from repro.util.ids import fresh_id


class DynamicInstance:
    """A live object created from a :class:`DynamicClass`."""

    def __init__(self, dynamic_class: DynamicClass) -> None:
        self.dynamic_class = dynamic_class
        self.instance_id = fresh_id(f"{dynamic_class.name}-instance")
        self._field_values: dict[str, Any] = {
            field.name: field.initial_value for field in dynamic_class.fields
        }

    # -- fields ---------------------------------------------------------------

    def get_field(self, name: str) -> Any:
        """Read the current value of field ``name``."""
        if name not in self._field_values:
            if self.dynamic_class.has_field(name):
                # Field declared on the class after this instance last saw it
                # (e.g. re-added via undo); initialise lazily.
                field = self.dynamic_class.field(name)
                self._field_values[name] = field.initial_value
            else:
                raise MemberNotFoundError(
                    f"instance of {self.dynamic_class.name!r} has no field {name!r}"
                )
        return self._field_values[name]

    def set_field(self, name: str, value: Any) -> None:
        """Write field ``name``; the value is validated against the declared type."""
        field = self.dynamic_class.field(name)
        field.field_type.validate(value)
        self._field_values[name] = value

    # -- invocation --------------------------------------------------------------

    def invoke(self, method_name: str, *arguments: Any) -> Any:
        """Invoke the *current* definition of ``method_name`` on this instance."""
        method = self.dynamic_class.method(method_name)
        return method.invoke(self, *arguments)

    def __getattr__(self, name: str) -> Any:
        # Provide natural attribute access for fields and methods so user
        # code reads like ordinary Python.  Only called when normal lookup
        # fails, so internal attributes are unaffected.
        if name.startswith("_"):
            raise AttributeError(name)
        klass = self.__dict__.get("dynamic_class")
        if klass is None:
            raise AttributeError(name)
        if name in self.__dict__.get("_field_values", {}):
            return self._field_values[name]
        if klass.has_method(name):
            method = klass.method(name)
            return lambda *arguments: method.invoke(self, *arguments)
        if klass.has_field(name):
            return self.get_field(name)
        raise AttributeError(
            f"instance of {klass.name!r} has no member {name!r}"
        )

    # -- class-change plumbing -------------------------------------------------------

    def _field_added(self, field: DynamicField) -> None:
        self._field_values.setdefault(field.name, field.initial_value)

    def _field_removed(self, name: str) -> None:
        self._field_values.pop(name, None)

    def _field_renamed(self, old_name: str, new_name: str) -> None:
        if old_name in self._field_values:
            self._field_values[new_name] = self._field_values.pop(old_name)

    def __repr__(self) -> str:
        return f"DynamicInstance({self.instance_id})"
