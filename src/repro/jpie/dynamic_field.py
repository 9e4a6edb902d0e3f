"""Dynamic fields.

Dynamic fields "directly correspond to the respective classes in Java's
reflection mechanism.  However, the dynamic versions can be instantiated and
mutated." (§2.3)
"""

from __future__ import annotations

from typing import Any

from repro.jpie.modifiers import Modifier
from repro.rmitypes import RmiType, STRING, python_default
from repro.util.validation import require_identifier


class DynamicField:
    """A mutable field definition belonging to a dynamic class."""

    def __init__(
        self,
        name: str,
        field_type: RmiType = STRING,
        initial_value: Any = None,
        modifiers: set[Modifier] | None = None,
    ) -> None:
        require_identifier(name, "field name")
        self._name = name
        self._field_type = field_type
        if initial_value is None:
            initial_value = python_default(field_type)
        field_type.validate(initial_value)
        self._initial_value = initial_value
        self.modifiers: set[Modifier] = set(modifiers or {Modifier.PRIVATE})
        self.owner = None  # set by DynamicClass.add_field

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        """The field name."""
        return self._name

    @property
    def field_type(self) -> RmiType:
        """The declared field type."""
        return self._field_type

    @property
    def initial_value(self) -> Any:
        """The value new instances start with."""
        return self._initial_value

    # -- mutation --------------------------------------------------------------

    def rename(self, new_name: str) -> None:
        """Rename the field; existing instances keep their values under the
        new name (declaration/use consistency)."""
        require_identifier(new_name, "field name")
        if self.owner is not None:
            self.owner._rename_field(self, new_name)
        else:
            self._name = new_name

    def _apply_rename(self, new_name: str) -> None:
        self._name = new_name

    def __repr__(self) -> str:
        return f"DynamicField({self._field_type.type_name} {self._name})"
